"""Stage-consistent Dirichlet data for IMEX time stepping.

Evaluating a time-dependent boundary trace omega(t) directly at the
Runge-Kutta stage abscissae t^{n,i} = t^n + c_i*tau caps the observed
convergence near second order: the internal stages of the scheme only
approximate u(t^{n,i}) to O(tau^2), so handing them the exact trace puts a
boundary layer into the error.  The treated controller instead rebuilds, at
each boundary point, the value the scheme itself would produce there.
Splitting the semidiscrete right-hand side into xi (convection plus
source) and psi (diffusion), the stage combination

    u^{n,i} = u^n + tau*sum_j at[i,j]*xi^{n,j} + tau*sum_j a[i,j]*psi^{n,j}

is evaluated with psi^{n,j} = omega_t(t^{n,j}) - xi^{n,j} -- the PDE solved
for its diffusive part -- while xi = -sum_a f_a'(u)*u_a + p*u is built from
boundary derivatives recovered one-sidedly from the discrete field, and
the gradient (u_a) itself is advanced by the same Runge-Kutta recursion,
whose diffusive closure psi_a = d*sum_b u_bba comes from recovered third
derivatives.

One recursion serves every boundary: StageCorrector runs it on one point
set, a 1D endpoint (one gradient component, Python floats) or a 2D face
(two components, numpy arrays over the face's quadrature points).
Its arithmetic is plain + and *, so the same code handles both; a 1D
endpoint is a face without tangential terms.  The traces it consumes come
from the BoundarySampler that the naive controller uses as well.  The
derivatives come from a recovery, whose recover(field) returns exactly the
tuple the recursion reads: (grad, hess, grad_lap), the gradient, Hessian
and gradient of the Laplacian (psi's gradient over d), floats u_x, u_xx,
u_xxx at an endpoint and stacked over the axes (x, y) on a face, then at
fourth order the closure's (u_xxx, u_xxxx, u_xxxxx).

Two variants are provided.  The default, 'stagewise', re-recovers the
second derivatives and psi from every freshly solved stage field so Taylor
shifts only span single stage gaps; 'anchored' expands everything from the
step-start field.  Third-order runs (k = 2) keep a single Taylor term;
fourth-order runs (k = 3, 1D only) add one time derivative of psi_x,
obtained by exchanging time for space derivatives, which closes only for
linear convection and constant source factor p.
"""

from operator import itemgetter, methodcaller, mul

import numpy as np

from .imex import BoundarySampler, axis_pairs
from .problems import boundary_data_check

__all__ = [
    'ALGORITHMS', 'VARIANTS', 'EdgeDerivatives1D', 'EdgeDerivatives2D',
    'StageCorrector', 'TreatedBoundary', 'resolve_variant',
    'treated_boundary',
]

# Algorithm names of the paper and the recursion variant each runs.  The
# paper's alg3 is not implemented: resolve_variant rejects it.
ALGORITHMS = {'alg1': 'anchored', 'alg2': 'stagewise'}
VARIANTS = ('anchored', 'stagewise')


def resolve_variant(name):
    """The recursion variant for an algorithm or variant name."""
    if name == 'alg3':
        raise ValueError("treatment variant 'alg3' is not implemented; "
                         "alg2 is the per-stage variant")
    variant = ALGORITHMS.get(name, name)
    if variant not in VARIANTS:
        names = sorted(ALGORITHMS) + list(VARIANTS)
        raise ValueError("unknown treatment variant %r (choose an algorithm "
                         "or variant from %s)" % (name, ', '.join(names)))
    return variant


def _basis_row(basis, xi, order):
    """Row vector turning a cell's nodal values into d^order/dx^order at xi."""
    eye = np.eye(basis.p)
    if order == 0:
        row = basis.values(eye, xi)
    else:
        row = basis.derivative_values(eye, xi, order)
    return np.asarray(row, dtype=float).reshape(basis.p)


class EdgeDerivatives1D:
    """One-sided derivative recovery at a 1D endpoint.

    recover(field) returns the floats (u_x, u_xx, u_xxx) at scheme_order
    3 and (u_x, u_xx, u_xxx_fd, u_xxx, u_xxxx, u_xxxxx) at scheme_order 4.
    u_x and u_xx come from the boundary cell's own polynomial evaluated at
    the endpoint.  Derivatives beyond the cell polynomial's reach use
    finite differences of per-cell samples taken at matching offsets: cell
    a, counted inward from the boundary, is evaluated at its own near edge,
    a cell widths in.  scheme_order 3 (k = 2) forms u_xxx as the one-sided
    second difference of those u_x samples; scheme_order 4 (k = 3) reads
    u_xxx off the cubic directly, differences the u_xx samples for the
    second-order u_xxx_fd that psi_x reads, and differences the per-cell
    (constant) third derivatives for u_xxxx and u_xxxxx.  Both read only
    the three cells next to the endpoint.  The sums are unrolled over
    plain floats because this runs once per side and stage: a call takes
    1.4-2.4 us, the same sums as a loop over the cells 5.4-9.9 us (one
    Xeon core).
    """

    def __init__(self, mesh, basis, side, scheme_order):
        if side not in ('west', 'east'):
            raise ValueError("side must be 'west' or 'east', got %r" % (side,))
        if scheme_order not in (3, 4):
            raise ValueError("scheme_order must be 3 or 4, got %r"
                             % (scheme_order,))
        if mesh.n < 3:
            raise ValueError("endpoint recovery needs >= 3 cells, mesh has %d"
                             % mesh.n)
        self.order = scheme_order
        self.dx = dx = mesh.dx
        self._dx2 = dx * dx
        xi = -1.0 if side == 'west' else 1.0
        jac = 2.0 / dx
        self._r1 = tuple((_basis_row(basis, xi, 1) * jac).tolist())
        self._r2 = tuple((_basis_row(basis, xi, 2) * jac ** 2).tolist())
        self._r3 = (tuple((_basis_row(basis, xi, 3) * jac ** 3).tolist())
                    if scheme_order == 4 else None)
        self._rev = side == 'east'
        self.inward = -1.0 if self._rev else 1.0
        self._rows = slice(mesh.n - 3, mesh.n) if self._rev else slice(0, 3)

    def recover(self, field):
        """The endpoint's derivative tuple (see the class docstring)."""
        rows = field[self._rows].tolist()
        if self._rev:
            rows.reverse()
        u0, u1, u2 = rows
        if self.order == 3:
            a0, a1, a2 = self._r1
            b0, b1, b2 = self._r2
            p0, p1, p2 = u0
            u_x = a0 * p0 + a1 * p1 + a2 * p2
            s1 = a0 * u1[0] + a1 * u1[1] + a2 * u1[2]
            s2 = a0 * u2[0] + a1 * u2[1] + a2 * u2[2]
            return (u_x, b0 * p0 + b1 * p1 + b2 * p2,
                    (u_x - 2.0 * s1 + s2) / self._dx2)
        a0, a1, a2, a3 = self._r1
        b0, b1, b2, b3 = self._r2
        g0, g1, g2, g3 = self._r3
        p0, p1, p2, p3 = u0
        q0, q1, q2, q3 = u1
        w0, w1, w2, w3 = u2
        u_xx = b0 * p0 + b1 * p1 + b2 * p2 + b3 * p3
        t1 = b0 * q0 + b1 * q1 + b2 * q2 + b3 * q3
        t2 = b0 * w0 + b1 * w1 + b2 * w2 + b3 * w3
        v0 = g0 * p0 + g1 * p1 + g2 * p2 + g3 * p3
        v1 = g0 * q0 + g1 * q1 + g2 * q2 + g3 * q3
        v2 = g0 * w0 + g1 * w1 + g2 * w2 + g3 * w3
        inward, dx = self.inward, self.dx
        return (a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3, u_xx,
                inward * (-3.0 * u_xx + 4.0 * t1 - t2) / (2.0 * dx),
                v0, inward * (v1 - v0) / dx,
                (v0 - 2.0 * v1 + v2) / self._dx2)


def _tang_first(z, dt):
    """d/dt along axis 0 of per-cell samples one cell width apart.

    Centered where a neighbor exists on both sides, one-sided 3-point at
    the first and last cells (second-order either way).
    """
    out = np.empty_like(z)
    out[1:-1] = (z[2:] - z[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * z[0] + 4.0 * z[1] - z[2]) / (2.0 * dt)
    out[-1] = (3.0 * z[-1] - 4.0 * z[-2] + z[-3]) / (2.0 * dt)
    return out


def _tang_second(z, dt):
    """d2/dt2 along axis 0; one-sided second difference at the ends."""
    out = np.empty_like(z)
    out[1:-1] = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dt ** 2
    out[0] = (z[0] - 2.0 * z[1] + z[2]) / dt ** 2
    out[-1] = (z[-1] - 2.0 * z[-2] + z[-3]) / dt ** 2
    return out


class EdgeDerivatives2D:
    """Derivative recovery at every quadrature point of one 2D face.

    recover(field) returns grad = [u_x, u_y], hess = [[u_xx, u_xy], [u_xy,
    u_yy]] and grad_lap = [u_xxx + u_yyx, u_xxy + u_yyy], each entry of
    shape (cells along the face, p).  They are built in face-local
    (normal, tangent) order, n = inward normal axis, with a sign sg = -1 on
    odd normal-derivative counts on east/north faces, where the normal axis
    was reversed; south/north faces then reverse the axis order once.
    Third derivatives use the 1D one-sided rule along the normal, a second
    difference of neighboring-cell tangent-derivative samples along the
    tangent, and composed one-sided normal / centered tangential first
    differences of u_n (resp. u_t) samples for the mixed u_nnt and u_ttn.
    All samples sit one cell width apart and are evaluated from each
    cell's own polynomial at its matching near edge / node line.
    """

    def __init__(self, mesh, basis, face):
        if face not in ('west', 'east', 'south', 'north'):
            raise ValueError("face must be west/east/south/north, got %r"
                             % (face,))
        if basis.k != 2:
            raise ValueError("2D recovery supports degree k = 2, got k = %d"
                             % basis.k)
        if mesh.x.n < 3 or mesh.y.n < 3:
            raise ValueError("face recovery needs >= 3 cells per direction")
        self.normal_axis = 'x' if face in ('west', 'east') else 'y'
        self.flip = face in ('east', 'north')
        dn, dt = mesh.x.dx, mesh.y.dx
        if self.normal_axis == 'y':
            dn, dt = dt, dn
        self.dn, self.dt = dn, dt
        jn = 2.0 / dn
        jt = 2.0 / dt
        e0 = _basis_row(basis, -1.0, 0)
        e1 = _basis_row(basis, -1.0, 1) * jn
        e2 = _basis_row(basis, -1.0, 2) * jn ** 2
        eye = np.eye(basis.p)
        dt1 = np.asarray(basis.derivative_values(eye, basis.nodes, 1),
                         dtype=float) * jt
        dt2 = np.asarray(basis.derivative_values(eye, basis.nodes, 2),
                         dtype=float) * jt ** 2
        # one (p*p, 5p) matrix mapping a cell's (normal, tangent) nodal
        # values to the face-point samples d_n, d_t, d_nn, d_tt, d_nt
        self._maps = np.hstack([np.kron(e[:, None], d) for e, d in
                                ((e1, eye), (e0, dt1), (e2, eye),
                                 (e0, dt2), (e1, dt1))])

    def _oriented(self, field):
        """View of the field with the normal axis first and boundary low."""
        f = field
        if self.normal_axis == 'y':
            f = f.transpose(1, 0, 3, 2)
        if self.flip:
            f = f[::-1, :, ::-1, :]
        return f

    def recover(self, field):
        """The face's (grad, hess, grad_lap) (see the class docstring)."""
        f = self._oriented(field)
        dn, dt = self.dn, self.dt
        cells, p = f.shape[1], f.shape[2]
        # the first three cell layers, one row of nodal values per cell
        rows = f[:3].reshape(3 * cells, p * p)
        m = self._maps
        xy = (rows @ m[:, :2 * p]).reshape(3, cells, 2 * p)
        x, y = xy[..., :p], xy[..., p:]             # u_n, u_t per layer
        second = rows[:cells] @ m[:, 2 * p:]        # boundary layer only
        u_nn, u_tt, u_nt = second[:, :p], second[:, p:2 * p], second[:, 2 * p:]
        u_nnn = (x[0] - 2.0 * x[1] + x[2]) / dn ** 2
        u_ttt = _tang_second(y[0], dt)
        # one-sided normal difference of u_n and u_t, then one tangential
        # difference of both (the two differences commute)
        mixed = _tang_first((-3.0 * xy[0] + 4.0 * xy[1] - xy[2])
                            / (2.0 * dn), dt)
        u_nnt, u_ttn = mixed[:, :p], mixed[:, p:]
        sg = -1.0 if self.flip else 1.0
        u_nt = sg * u_nt
        grad = np.array([sg * x[0], y[0]])
        hess = np.array([[u_nn, u_nt], [u_nt, u_tt]])
        grad_lap = np.array([sg * (u_nnn + u_ttn), u_nnt + u_ttt])
        if self.normal_axis == 'y':
            return grad[::-1], hess[::-1, ::-1], grad_lap[::-1]
        return grad, hess, grad_lap


def _check_problem_fields(problem, scheme_order):
    if problem.omega is None or problem.omega_t is None:
        raise ValueError("boundary treatment needs omega and omega_t")
    if problem.h is not None and problem.p is None:
        raise ValueError("boundary treatment needs the source as p, with "
                         "h = p*u: give p in place of h")
    if callable(problem.p) and None in problem.p_grad:
        raise ValueError("boundary treatment needs p_grad on every axis "
                         "alongside a callable p")
    for a, (f, _, fpp) in enumerate(problem.fluxes):
        if f is not None and fpp is None:
            raise ValueError("boundary treatment needs f'' on axis %d, "
                             "which has a flux" % a)
    if scheme_order == 4:
        if problem.omega_tt is None:
            raise ValueError("fourth-order treatment needs omega_tt")
        if None in problem.speeds:
            raise ValueError("fourth-order treatment closes the time "
                             "derivative of psi_x in space only for linear "
                             "convection (every flux a number)")
        if callable(problem.p):
            raise ValueError("fourth-order treatment requires a constant "
                             "source factor (p a number)")


def _as_float(fn):
    return None if fn is None else (lambda u: float(fn(u)))


_first = itemgetter(0)


def _zero(u):
    return 0.0 * u


def _dot2(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _matvec2(h, v):
    return h[:, 0] * v[0] + h[:, 1] * v[1]


class StageCorrector:
    """Runs the stage recursion at one boundary point set.

    The problem's axis count is the number of gradient components: 1 at
    a 1D endpoint, where every value is a Python float, and 2 along a 2D
    face, where values are arrays over the face's points and vectors over
    the axes (gradient, psi) are stacked on a leading axis.  Only
    contracting those vectors over the axes differs between the two; the
    recursion itself is plain + and *, with no tangential terms left at a
    1D endpoint.  Drive it with begin(rec, tau, traces), then
    stage_value(i) for i = 0, 1, ... in order, and observe(i, rec) with
    the tuple recovered from each solved interior stage field (stagewise
    variant).  rec is (grad, hess, grad_lap), the gradient, Hessian and
    gradient of the Laplacian in this layout, followed at order 4 by the
    closure's (u_xxx, u_xxxx, u_xxxxx).  traces maps sampler keys to this
    point set's per-stage samples (see BoundarySampler), with the gradient
    of p under ('p_grad', axis).
    """

    def __init__(self, problem, tableau, scheme_order, variant):
        if variant not in VARIANTS:
            raise ValueError("variant must be 'stagewise' or 'anchored'")
        _check_problem_fields(problem, scheme_order)
        dim = problem.dim
        self.order4 = scheme_order == 4
        if self.order4 and dim != 1:
            raise ValueError("fourth-order treatment is one-dimensional")
        self.anchored = variant == 'anchored'
        self.d = problem.d_coef
        self._tableau = tableau
        # the point set's layout: how vectors over the axes are stacked
        # and contracted
        if dim == 1:
            self._vec, self._dot, self._matvec = _first, mul, mul
            scalar = _as_float
        else:
            self._vec, self._dot, self._matvec = np.array, _dot2, _matvec2
            scalar = lambda fn: fn
        self._fpc = self._fp = self._fpp = None
        if None not in problem.speeds:
            self._fpc = self._vec(list(problem.speeds))
        else:
            # an axis without a flux has f' = f'' = 0
            fluxes = problem.fluxes
            self._fp = [scalar(_zero if f is None else fp)
                        for f, fp, _ in fluxes]
            self._fpp = [scalar(_zero if f is None else fpp)
                         for f, _, fpp in fluxes]
        # the source factor p is absent, a number, or sampled per stage
        sampled = callable(problem.p)
        self._p_const = None if sampled else problem.p
        self._p_keys = [('p_grad', a) for a in range(dim)] if sampled else None
        self._p4 = self._p_const or 0.0     # p in the order-4 closure
        self._ps = None
        self._treated = None
        self._tau = None

    def _scale(self, tau):
        """Tableau rows and abscissae times the step size tau."""
        self._tau = tau
        tab = self._tableau
        c = tab.c.tolist()
        self._ex = [[(j, tau * cf) for j, cf in row] for row in tab.ex_rows]
        self._im = [[(j, tau * cf) for j, cf in row] for row in tab.im_rows]
        self._taii = [tau * a for a in tab.im_diag]
        self._ct = [ci * tau for ci in c]
        self._dct = [0.0] + [(c[i] - c[i - 1]) * tau
                             for i in range(1, len(c))]

    def _xi(self, grad, u, i):
        fp = self._fpc
        if fp is None:
            fp = self._vec([f(u) for f in self._fp])
        val = -self._dot(fp, grad)
        if self._p_const is not None:
            val = val + self._p_const * u
        elif self._ps is not None:
            val = val + self._ps[i] * u
        return val

    def _psi_rate(self, rec):
        """d/dt psi_x, time exchanged for space derivatives (order 4)."""
        d = self.d
        u_xxx, u_xxxx, u_xxxxx = rec[3:]
        return d * (-self._fpc * u_xxxx + d * u_xxxxx + self._p4 * u_xxx)

    def begin(self, rec, tau, traces):
        """Open a step from the step-start derivatives and trace samples.

        The variants differ only in the per-stage Hessians and psi values
        they feed the recursion: stagewise observes them stage by stage,
        anchored expands them all from the step start here.
        """
        if tau != self._tau:
            self._scale(float(tau))
        om0 = traces['omega'][0]
        self._omt = traces['omega_t']
        if self.order4:
            self._omtt0 = traces['omega_tt'][0]
        if self._p_keys is not None:
            self._ps = traces['p']
            self._pgs = [traces[key] for key in self._p_keys]
        grad, hess, grad_lap = rec[:3]
        self._treated = [om0]
        self._grads = [grad]
        self._xis = [self._xi(grad, om0, 0)]
        self._xigs = []
        if not self.anchored:
            self._hesss = []
            self._psis = []
            self._preds = [] if self.order4 else self._psis
            self.observe(0, rec)
            return
        psi = self.d * grad_lap
        ct = self._ct
        if self.order4:
            u_xxx, u_xxxx, _ = rec[3:]
            dhess = -self._fpc * u_xxx + self.d * u_xxxx + self._p4 * hess
            dpsi = self._psi_rate(rec)
            self._hesss = [hess + cti * dhess for cti in ct]
            self._psis = [psi + cti * dpsi for cti in ct]
        else:
            self._hesss = [hess] * len(ct)
            self._psis = [psi] * len(ct)
        self._preds = self._psis[1:]

    def stage_value(self, i):
        """Treated Dirichlet value(s) of stage i."""
        treated = self._treated
        if treated is None:
            raise RuntimeError("begin a step before requesting stage values")
        if i == 0:
            return treated[0]
        if len(treated) != i:
            raise RuntimeError("stage values must be requested in order "
                               "(archive has %d, asked for stage %d)"
                               % (len(treated), i))
        psis = self._psis
        xigs = self._xigs
        omt = self._omt
        taii = self._taii[i]
        # gradient of xi at the previous stage, from its Hessian, gradient
        # and value
        prev = i - 1
        u = treated[prev]
        g = self._grads[prev]
        hess = self._hesss[prev]
        fp = self._fpc
        if fp is None:
            fp = self._vec([f(u) for f in self._fp])
            fpp = self._vec([f(u) for f in self._fpp])
            xig = -(self._dot(fpp, g) * g) - self._matvec(hess, fp)
        else:
            xig = -self._matvec(hess, fp)
        if self._p_const is not None:
            xig = xig + self._p_const * g
        elif self._ps is not None:
            pg = self._vec([v[prev] for v in self._pgs])
            xig = xig + (pg * u + self._ps[prev] * g)
        xigs.append(xig)
        # the boundary gradient advances by the same stage combination as
        # the treated value; psi at the boundary is omega_t - xi
        grad = self._grads[0]
        val = treated[0]
        for j, w in self._ex[i]:
            grad = grad + w * xigs[j]
            val = val + w * self._xis[j]
        for j, w in self._im[i]:
            grad = grad + w * psis[j]
            val = val + w * (omt[j] - self._xis[j])
        grad = grad + taii * self._preds[i - 1]
        self._grads.append(grad)
        # boundary state at this stage, Taylor-expanded from the step start
        uh = treated[0] + self._ct[i] * omt[0]
        if self.order4:
            uh = uh + 0.5 * self._ct[i] ** 2 * self._omtt0
        xi_i = self._xi(grad, uh, i)
        self._xis.append(xi_i)
        val = val + taii * (omt[i] - xi_i)
        treated.append(val)
        return val

    def observe(self, i, rec):
        """Derivatives recovered from solved stage i (stagewise only).

        Stores the Hessian and psi of rec, and psi predicted one stage on;
        third order predicts psi unchanged, so there the predictions are
        the psi list itself.
        """
        if self.anchored:
            return
        psis = self._psis
        if len(psis) != i:
            raise RuntimeError("stage fields must be observed in order "
                               "(archive has %d, got stage %d)"
                               % (len(psis), i))
        _, hess, grad_lap = rec[:3]
        psi = self.d * grad_lap
        self._hesss.append(hess)
        psis.append(psi)
        if self.order4:
            self._preds.append(psi + self._dct[i + 1] * self._psi_rate(rec))


class TreatedBoundary:
    """Boundary controller serving corrected stage values on every side.

    One StageCorrector per side -- the two endpoints in 1D, the four faces
    in 2D -- fed by one BoundarySampler and the side's recovery stencil.
    Plugs into the integrator in place of the naive omega sampler.  Set
    .trace to a list to collect (stage, side, point, naive, treated) rows,
    one per boundary point; point holds one coordinate per axis, (x,) in
    1D and (x, y) in 2D, as boundary_points gives them.
    """

    def __init__(self, problem, mesh, basis, tableau, variant='stagewise'):
        if problem.dim != mesh.dim:
            raise ValueError("problem is %dD but the mesh is %dD"
                             % (problem.dim, mesh.dim))
        if mesh.dim == 1:
            if basis.k not in (2, 3):
                raise ValueError("boundary treatment supports k = 2 or 3, "
                                 "got k = %d" % basis.k)
            order = basis.k + 1
            recovery = lambda side: EdgeDerivatives1D(mesh, basis, side,
                                                      order)
        else:
            if variant != 'stagewise':
                raise ValueError("2D treatment supports the stagewise "
                                 "variant only")
            if basis.k != 2:
                raise ValueError("2D treatment supports k = 2, got k = %d"
                                 % basis.k)
            order = 3
            recovery = lambda side: EdgeDerivatives2D(mesh, basis, side)
        fns = [('omega', problem.omega), ('omega_t', problem.omega_t)]
        if order == 4:
            fns.append(('omega_tt', problem.omega_tt))
        if callable(problem.p):
            fns += [('p', problem.p)] + [(('p_grad', a), grad) for a, grad
                                         in enumerate(problem.p_grad)]
        self.stages = tableau.stages
        self.anchored = variant == 'anchored'
        self.sampler = BoundarySampler(mesh, basis, tableau.c, fns)
        self.correctors = [StageCorrector(problem, tableau, order, variant)
                           for _ in self.sampler.sides]
        # a wrong derivative field silently costs order: check them all,
        # once the correctors have checked that the fields they need exist
        boundary_data_check(problem, self.sampler.coords)
        self.recovery = [recovery(side) for side in self.sampler.sides]
        self.trace = None
        self._traces = None

    def prepare(self, t0, tau, nsteps):
        self.sampler.prepare(t0, tau, nsteps)

    def begin_step(self, u, t, tau):
        self._traces = self.sampler.step(t, tau)
        for rec, corr, traces in zip(self.recovery, self.correctors,
                                     self._traces):
            corr.begin(rec.recover(u), tau, traces)

    def stage_data(self, i):
        vals = list(map(methodcaller('stage_value', i), self.correctors))
        if self.trace is not None:
            self._record(i, vals)
        return axis_pairs(vals)

    def _record(self, i, vals):
        for side, pts, traces, val in zip(self.sampler.sides,
                                          self.sampler.points, self._traces,
                                          vals):
            for *point, nv, tv in zip(*map(np.ravel, pts),
                                      np.ravel(traces['omega'][i]),
                                      np.ravel(val)):
                self.trace.append((i, side, tuple(map(float, point)),
                                   float(nv), float(tv)))

    def observe_stage(self, i, u_stage):
        # stage 0 is the step-start field, already recovered at begin; the
        # last stage feeds no further stage, so neither needs recovery here
        if self.anchored or i < 1 or i >= self.stages - 1:
            return
        for rec, corr in zip(self.recovery, self.correctors):
            corr.observe(i, rec.recover(u_stage))


def treated_boundary(problem, mesh, basis, tableau, variant='stagewise'):
    """Build the treated-boundary controller for an algorithm or variant."""
    return TreatedBoundary(problem, mesh, basis, tableau,
                           variant=resolve_variant(variant))
