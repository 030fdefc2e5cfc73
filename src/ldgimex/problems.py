"""Problem registry: fluxes, diffusion, sources, boundary data, exact solutions."""

import numbers

import numpy as np

from .mesh import axis_bounds


class ProblemSpec:
    """Definition of one convection-diffusion-reaction problem.

    The PDE is u_t + sum_a f_a(u)_a = D lap u + h(u, x, t) with Dirichlet
    data omega on the whole boundary.  Per-axis data holds one entry per
    axis, in axis order.  Every function of space takes one coordinate
    per axis, (*coords, t): (x, t) in 1D and (x, y, t) in 2D.  Fields and
    coordinate arrays are shaped (cells, nodes) per axis: (n, p) in 1D,
    (n, p, m, p) in 2D.

    Fields:
        bounds: one (a, b) pair per axis (a 1D (a, b) is one pair); the
            dimension is len(bounds).
        fluxes: per axis, the flux f and its derivatives f', f'' as
            callables of u, or a number c for the linear flux f(u) = c u;
            (None, None, None) on an axis without a flux (the default);
            f'' may be None where f is not.
        d_coef: diffusion coefficient D >= 0.
        p, p_grad: source factor with h = p(*coords, t) * u, and one
            space derivative of p per axis; a number q means h = q u, with
            no p_grad.
        h: source h(u, *coords, t) in place of p (not both: the boundary
            treatment reads p); defaults to p * u.
        exact: exact solution u(*coords, t) or None.
        u0: initial data u0(*coords); defaults to exact at t = 0 when that
            exists.
        omega, omega_t, omega_tt: boundary trace and its time derivatives,
            functions of (*coords, t); omega defaults to exact.

    speeds (read-only, read off fluxes whenever they are set) holds per
    axis the f' of a flux given as a number, 0.0 without a flux and None
    for a callable one.
    The boundary treatment uses them in place of f' and f'' when none is
    None; its fourth-order closure needs them and a number p.

    Raises ValueError unless fluxes and p_grad hold one entry per axis,
    for an axis with a flux f but no f', for both p and h, and for p_grad
    beside a number p.
    """

    def __init__(self, name, bounds, d_coef, T, cfl, degree,
                 tableau='ark3', **kw):
        self.name = name
        self.bounds = axis_bounds(bounds)
        self.d_coef = float(d_coef)
        self.T = float(T)
        self.cfl = float(cfl)
        self.degree = int(degree)
        self.tableau = tableau
        dim = len(self.bounds)
        self.fluxes = kw.pop('fluxes', [(None, None, None)] * dim)
        self.p = kw.pop('p', None)
        self.p_grad = tuple(kw.pop('p_grad', [None] * dim))
        self.exact = kw.pop('exact', None)
        self.u0 = kw.pop('u0', None)
        self.omega = kw.pop('omega', self.exact)
        self.omega_t = kw.pop('omega_t', None)
        self.omega_tt = kw.pop('omega_tt', None)
        self.h = kw.pop('h', None)
        if kw:
            raise TypeError("ProblemSpec: unknown fields %r" % sorted(kw))
        if len(self.fluxes) != dim or len(self.p_grad) != dim:
            raise ValueError("ProblemSpec %r: fluxes and p_grad need one "
                             "entry per axis (%d)" % (name, dim))
        for a, (f, fp, _) in enumerate(self.fluxes):
            if f is not None and fp is None:
                raise ValueError("ProblemSpec %r: axis %d has a flux f but "
                                 "no derivative f'" % (name, a))
        if self.p is not None and self._h is not None:
            raise ValueError("ProblemSpec %r: give the source as p (h = p*u) "
                             "or as h, not both" % name)
        if isinstance(self.p, numbers.Real):
            if any(self.p_grad):
                raise ValueError("ProblemSpec %r: a number p takes no p_grad"
                                 % name)
            self.p = float(self.p)

    # u0 and h fall back on exact and p when not given, read off the spec
    # they are called through: a copy given another exact or p calls its own
    @property
    def u0(self):
        """u0 as given, else exact at t = 0 (None without either)."""
        if self._u0 is None and self.exact is not None:
            return self._exact_at_0
        return self._u0

    @u0.setter
    def u0(self, value):
        self._u0 = value

    def _exact_at_0(self, *x):
        return self.exact(*x, 0.0)

    @property
    def h(self):
        """h as given, else p * u (None without either)."""
        if self._h is None and self.p is not None:
            return self._p_times_u
        return self._h

    @h.setter
    def h(self, value):
        self._h = value

    def _p_times_u(self, u, *xt):
        p = self.p
        return (p(*xt) if callable(p) else p) * u

    @property
    def dim(self):
        """The number of axes, len(bounds)."""
        return len(self.bounds)

    @property
    def fluxes(self):
        """Per axis (f, f', f''); a number c given is expanded to c u."""
        return self._fluxes

    @fluxes.setter
    def fluxes(self, value):
        # speeds are worked out here, once per assignment: explicit_rhs
        # reads them at every call
        self._fluxes = tuple(
            _linear_flux(float(entry)) if isinstance(entry, numbers.Real)
            else tuple(entry) for entry in value)
        self._speeds = tuple(0.0 if f is None else getattr(fp, 'speed', None)
                             for f, fp, _ in self._fluxes)

    @property
    def speeds(self):
        """f' per axis: c for a flux c, 0.0 for none, None if callable."""
        return self._speeds


def _linear_flux(c):
    """(f, f', f'') of the linear flux f(u) = c u; f' carries c as .speed."""
    def fprime(u):
        return c * np.ones_like(np.asarray(u, dtype=float))

    fprime.speed = c
    return (lambda u: c * u, fprime,
            lambda u: np.zeros_like(np.asarray(u, dtype=float)))


def _moving_sine(C):
    """exact, omega_t and omega_tt of u = e^-t sin(x + C t)."""
    def exact(x, t):
        return np.exp(-t) * np.sin(x + C * t)

    def omega_t(x, t):
        return np.exp(-t) * (C * np.cos(x + C * t) - np.sin(x + C * t))

    def omega_tt(x, t):
        return np.exp(-t) * ((1.0 - C * C) * np.sin(x + C * t)
                             - 2.0 * C * np.cos(x + C * t))

    return {'exact': exact, 'omega_t': omega_t, 'omega_tt': omega_tt}


def _heat1d():
    C, D = 0.1, 2.0
    return ProblemSpec(
        'heat1d', (-1.0, 1.0), D, 5.0, 0.25, 2, tableau='ark3',
        fluxes=[-C], p=D - 1.0, **_moving_sine(C))


def _kept(fn):
    """fn of an ndarray, kept for the last four arrays it saw (a run's
    node and boundary coordinates among them).  An array is known by its
    bytes, shape and dtype, never by its identity: one changed in place
    misses, so a kept value is fn of the very values it is served for,
    bitwise.  Anything but an ndarray is passed to fn."""
    kept = []

    def call(x):
        if type(x) is not np.ndarray:
            return fn(x)
        key = (x.tobytes(), x.shape, x.dtype)
        for seen, value in kept:
            if seen == key:
                return value
        value = fn(x)
        kept.insert(0, (key, value))
        del kept[4:]
        return value

    return call


def _burgers1d():
    D = 2.0
    # only e^-t moves p between stages: cos x is kept per coordinate array
    cos = _kept(np.cos)

    def exact(x, t):
        return np.exp(-t) * np.sin(x)

    def omega_t(x, t):
        return -np.exp(-t) * np.sin(x)

    def omega_tt(x, t):
        return np.exp(-t) * np.sin(x)

    return ProblemSpec(
        'burgers1d', (-1.0, 1.0), D, 5.0, 0.4, 2, tableau='ark3',
        # f' and f'' take a Python float to a Python float, as the treated
        # 1D recursion calls them, and an array to an array
        fluxes=[(lambda u: 0.5 * u * u, lambda u: u,
                 lambda u: 1.0 + 0.0 * u)],
        p=lambda x, t: D - 1.0 + np.exp(-t) * cos(x),
        p_grad=[lambda x, t: -np.exp(-t) * np.sin(x)],
        exact=exact, omega_t=omega_t, omega_tt=omega_tt)


def _heat2d():
    C, D = 0.1, 1.0

    def exact(x, y, t):
        return np.exp(-t) * np.sin(x + C * t) * np.cos(y + C * t)

    def omega_t(x, y, t):
        sx, cx = np.sin(x + C * t), np.cos(x + C * t)
        sy, cy = np.sin(y + C * t), np.cos(y + C * t)
        return np.exp(-t) * (-sx * cy + C * cx * cy - C * sx * sy)

    return ProblemSpec(
        'heat2d', ((-1.0, 1.0), (-1.0, 1.0)), D, 5.0, 0.2, 2,
        tableau='ark3',
        fluxes=[-C, -C], p=2.0 * D - 1.0, exact=exact, omega_t=omega_t)


def _heat1d_o4():
    C, D = 0.1, 1.0
    return ProblemSpec(
        'heat1d_o4', (-1.0, 1.0), D, 5.0, 0.25, 3, tableau='ark4',
        fluxes=[-C], **_moving_sine(C))


_BUILTIN = {
    'heat1d': _heat1d,
    'burgers1d': _burgers1d,
    'heat2d': _heat2d,
    'heat1d_o4': _heat1d_o4,
}


def builtin_problem(name):
    """One of the four builtin problems: heat1d, burgers1d, heat2d, heat1d_o4."""
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ValueError("unknown problem %r; choose from %s"
                         % (name, sorted(_BUILTIN))) from None
    return factory()


def residual_check(spec, samples=20, step=1e-5, seed=0):
    """Max |PDE residual| of the exact solution at random space-time points.

    All derivatives are central differences with the given step, so a correct
    problem definition scores around step^2 and a wrong one scores O(1).
    """
    if spec.exact is None:
        raise ValueError("residual_check needs an exact solution")
    rng = np.random.default_rng(seed)
    u = spec.exact
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(0.1, 2.0)
        x = [rng.uniform(a + 0.1, b - 0.1) for a, b in spec.bounds]
        u_c = u(*x, t)
        u_t = (u(*x, t + step) - u(*x, t - step)) / (2 * step)
        conv = 0.0
        diff = 0.0
        for k, (f, fp, _) in enumerate(spec.fluxes):
            up = u(*x[:k], x[k] + step, *x[k + 1:], t)
            um = u(*x[:k], x[k] - step, *x[k + 1:], t)
            if f is not None:
                conv += fp(u_c) * ((up - um) / (2 * step))
            diff += (up - 2 * u_c + um) / step ** 2
        src = spec.h(u_c, *x, t) if spec.h is not None else 0.0
        res = u_t + conv - spec.d_coef * diff - src
        worst = max(worst, abs(float(res)))
    return worst


def boundary_data_check(spec, coords):
    """Compare derivative fields with what they stand for.

    At the points coords (one flat array per axis) and t = 0.25, 0.5 and
    1, each of these the problem defines: omega_t and omega_tt against
    central differences of omega in t and, alongside a callable p, each
    axis's p_grad entry against second-order one-sided differences of p
    stepping towards the middle of the domain along that axis.

    Returns {label: mismatch}, p_grad labelled per axis ('p_grad[1]'):
    the largest difference relative to max(1, largest reference value).
    Raises ValueError naming the first label (and axis) whose mismatch
    exceeds 1e-5: with a step of 1e-4 a correct derivative scores about
    1e-8 (the roundoff of the second difference), a wrong one O(1).
    """
    t = np.array([[0.25], [0.5], [1.0]])
    step = 1e-4
    x = [np.asarray(c, dtype=float)[None, :] for c in coords]
    fields = [n for n in ('omega_t', 'omega_tt')
              if getattr(spec, n) is not None]
    # (label, value, reference, what the reference is)
    checks = []
    if fields:
        times = np.concatenate([t - step, t, t + step])   # one omega call
        om = np.broadcast_to(spec.omega(*x, times), (len(times), x[0].size))
        before, now, after = np.split(om, 3)
        fd = {'omega_t': (after - before) / (2 * step),
              'omega_tt': (after - 2 * now + before) / step ** 2}
        checks += [(n, getattr(spec, n)(*x, t), fd[n],
                    'finite differences of omega') for n in fields]
    for a, ((lo, hi), grad) in enumerate(zip(spec.bounds, spec.p_grad)):
        if spec.p is None or grad is None:
            continue
        h = np.where(x[a] < 0.5 * (lo + hi), step, -step)
        p0, p1, p2 = (spec.p(*x[:a], x[a] + k * h, *x[a + 1:], t)
                      for k in range(3))
        checks.append(('p_grad[%d]' % a, grad(*x, t),
                       (4 * p1 - 3 * p0 - p2) / (2 * h),
                       'finite differences of p along axis %d' % a))
    out = {}
    for label, value, want, what in checks:
        err = float(np.max(np.abs(value - want)))
        err /= max(1.0, float(np.max(np.abs(want))))
        out[label] = max(out.get(label, 0.0), err)
        if err > 1e-5:
            raise ValueError("%s disagrees with %s by %.3g (relative); check "
                             "its definition" % (label, what, err))
    return out
