"""Problem registry: fluxes, diffusion, sources, boundary data, exact solutions."""

import numpy as np


class ProblemSpec:
    """Definition of one convection-diffusion-reaction problem.

    The PDE is u_t + div F(u) = div(G(grad u)) + h(u, x, t) with linear
    diffusion G = D grad u and Dirichlet data omega on the whole boundary.
    Every function of space takes one coordinate per axis, (*coords, t):
    (x, t) in 1D and (x, y, t) in 2D.  Fields and coordinate arrays are
    shaped (cells per axis..., nodes per axis...).

    Fields:
        bounds: (a, b) in 1D, one (a, b) pair per axis in 2D.
        f, fprime, fsecond (1D) or f1/f2 pairs with derivatives (2D):
            convective flux per axis and its derivatives, callables of u;
            see fluxes.
        d_coef: diffusion coefficient D >= 0.
        p, p_x (and p_y in 2D): source factor with h = p(*coords, t) * u
            and its space derivatives, or None for h == 0.
        h: source h(u, *coords, t); defaults to p(*coords, t) * u.
        exact: exact solution u(*coords, t) or None.
        u0: initial data u0(*coords); defaults to exact at t = 0 when that
            exists.
        omega, omega_t, omega_tt: boundary trace and its time derivatives,
            functions of (*coords, t); omega defaults to exact.

    fprime_const / p_const hold the scalar values of f' and p when those are
    constant (needed by the fourth-order Cauchy-Kovalevskaya substitution),
    else None.
    """

    def __init__(self, name, dim, bounds, d_coef, T, cfl, degree,
                 tableau='ark3', **kw):
        self.name = name
        self.dim = dim
        self.bounds = bounds
        self.d_coef = float(d_coef)
        self.T = float(T)
        self.cfl = float(cfl)
        self.degree = int(degree)
        self.tableau = tableau
        self.f = kw.pop('f', None)
        self.fprime = kw.pop('fprime', None)
        self.fsecond = kw.pop('fsecond', None)
        self.f1 = kw.pop('f1', None)
        self.f1prime = kw.pop('f1prime', None)
        self.f1second = kw.pop('f1second', None)
        self.f2 = kw.pop('f2', None)
        self.f2prime = kw.pop('f2prime', None)
        self.f2second = kw.pop('f2second', None)
        self.p = kw.pop('p', None)
        self.p_x = kw.pop('p_x', None)
        self.p_y = kw.pop('p_y', None)
        self.exact = kw.pop('exact', None)
        self.u0 = kw.pop('u0', None)
        if self.u0 is None and self.exact is not None:
            self.u0 = lambda *x: self.exact(*x, 0.0)
        self.omega = kw.pop('omega', self.exact)
        self.omega_t = kw.pop('omega_t', None)
        self.omega_tt = kw.pop('omega_tt', None)
        self.h = kw.pop('h', None)
        self.fprime_const = kw.pop('fprime_const', None)
        self.p_const = kw.pop('p_const', None)
        if kw:
            raise TypeError("ProblemSpec: unknown fields %r" % sorted(kw))
        if self.h is None and self.p is not None:
            self.h = lambda u, *xt: self.p(*xt) * u

    @property
    def fluxes(self):
        """(f, f', f'') per mesh axis; f is None on an axis without flux."""
        if self.dim == 1:
            return ((self.f, self.fprime, self.fsecond),)
        return ((self.f1, self.f1prime, self.f1second),
                (self.f2, self.f2prime, self.f2second))


def _heat1d():
    C, D = 0.1, 2.0

    def exact(x, t):
        return np.exp(-t) * np.sin(x + C * t)

    def omega_t(x, t):
        return np.exp(-t) * (C * np.cos(x + C * t) - np.sin(x + C * t))

    def omega_tt(x, t):
        return np.exp(-t) * ((1.0 - C * C) * np.sin(x + C * t)
                             - 2.0 * C * np.cos(x + C * t))

    return ProblemSpec(
        'heat1d', 1, (-1.0, 1.0), D, 5.0, 0.25, 2, tableau='ark3',
        f=lambda u: -C * u,
        fprime=lambda u: -C * np.ones_like(np.asarray(u, dtype=float)),
        fsecond=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        fprime_const=-C,
        p=lambda x, t: (D - 1.0) * np.ones_like(np.asarray(x, dtype=float)),
        p_x=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        p_const=D - 1.0,
        exact=exact, omega_t=omega_t, omega_tt=omega_tt)


def _burgers1d():
    D = 2.0

    def exact(x, t):
        return np.exp(-t) * np.sin(x)

    def omega_t(x, t):
        return -np.exp(-t) * np.sin(x)

    def omega_tt(x, t):
        return np.exp(-t) * np.sin(x)

    return ProblemSpec(
        'burgers1d', 1, (-1.0, 1.0), D, 5.0, 0.4, 2, tableau='ark3',
        f=lambda u: 0.5 * u * u,
        fprime=lambda u: np.asarray(u, dtype=float),
        fsecond=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        p=lambda x, t: D - 1.0 + np.exp(-t) * np.cos(x),
        p_x=lambda x, t: -np.exp(-t) * np.sin(x),
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
        'heat2d', 2, ((-1.0, 1.0), (-1.0, 1.0)), D, 5.0, 0.2, 2,
        tableau='ark3',
        f1=lambda u: -C * u,
        f1prime=lambda u: -C * np.ones_like(np.asarray(u, dtype=float)),
        f1second=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        f2=lambda u: -C * u,
        f2prime=lambda u: -C * np.ones_like(np.asarray(u, dtype=float)),
        f2second=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        fprime_const=-C,
        p=lambda x, y, t: (2.0 * D - 1.0) * np.ones_like(np.asarray(x, dtype=float)),
        p_x=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
        p_y=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
        p_const=2.0 * D - 1.0,
        exact=exact, omega_t=omega_t)


def _heat1d_o4():
    C, D = 0.1, 1.0

    def exact(x, t):
        return np.exp(-t) * np.sin(x + C * t)

    def omega_t(x, t):
        return np.exp(-t) * (C * np.cos(x + C * t) - np.sin(x + C * t))

    def omega_tt(x, t):
        return np.exp(-t) * ((1.0 - C * C) * np.sin(x + C * t)
                             - 2.0 * C * np.cos(x + C * t))

    return ProblemSpec(
        'heat1d_o4', 1, (-1.0, 1.0), D, 5.0, 0.25, 3, tableau='ark4',
        f=lambda u: -C * u,
        fprime=lambda u: -C * np.ones_like(np.asarray(u, dtype=float)),
        fsecond=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        fprime_const=-C,
        p=None, p_x=None, p_const=0.0,
        exact=exact, omega_t=omega_t, omega_tt=omega_tt)


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
    bounds = np.reshape(spec.bounds, (-1, 2))   # one (a, b) pair per axis
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(0.1, 2.0)
        x = [rng.uniform(a + 0.1, b - 0.1) for a, b in bounds]
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


def boundary_data_check(spec, coords, names=None):
    """Compare derivative fields with finite differences at given points.

    omega_t and omega_tt are checked against central differences of omega
    in t, p_x and p_y against one-sided differences of p that step from
    each point towards the middle of the domain along that axis (inward
    at the boundary), all second-order accurate, at the points coords
    (one flat array per axis) and t = 0.25, 0.5 and 1.  names picks the
    fields; by default every one of them the problem defines.

    Returns {field: mismatch}, the largest difference over the points
    relative to max(1, largest finite-difference value).  Raises
    ValueError naming the first field whose mismatch exceeds 1e-5: with
    a step of 1e-4 a correct field scores about 1e-8 (the roundoff of the
    second difference), a wrong one O(1).
    """
    if names is None:
        names = [n for n in ['omega_t', 'omega_tt']
                 + ['p_' + a for a in 'xy'[:spec.dim]]
                 if getattr(spec, n) is not None]
    t = np.array([[0.25], [0.5], [1.0]])
    step = 1e-4
    x = [np.asarray(c, dtype=float)[None, :] for c in coords]
    fd = {}
    if {'omega_t', 'omega_tt'} & set(names):
        times = np.concatenate([t - step, t, t + step])   # one omega call
        om = np.broadcast_to(spec.omega(*x, times), (len(times), x[0].size))
        before, now, after = np.split(om, 3)
        fd['omega_t'] = (after - before) / (2 * step)
        fd['omega_tt'] = (after - 2 * now + before) / step ** 2
    for a, ((lo, hi), axis) in enumerate(zip(np.reshape(spec.bounds, (-1, 2)),
                                             'xy')):
        if 'p_' + axis in names:
            h = np.where(x[a] < 0.5 * (lo + hi), step, -step)
            p0, p1, p2 = (spec.p(*x[:a], x[a] + k * h, *x[a + 1:], t)
                          for k in range(3))
            fd['p_' + axis] = (4 * p1 - 3 * p0 - p2) / (2 * h)
    out = {}
    for name in names:
        want = fd[name]
        err = np.abs(getattr(spec, name)(*x, t) - want)
        out[name] = float(np.max(err)) / max(1.0, float(np.max(np.abs(want))))
        if out[name] > 1e-5:
            raise ValueError("%s disagrees with finite differences of %s by "
                             "%.3g (relative); check its definition"
                             % (name, name.split('_')[0], out[name]))
    return out
