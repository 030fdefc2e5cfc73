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
set, a 1D endpoint (one gradient component, Python floats) or the points
of all four faces of a 2D mesh at once (two components, numpy arrays over
those points).  Its arithmetic is plain + and *, so the same code handles
both; a 1D endpoint is a face without tangential terms.  Per point set,
the traces come from the BoundarySampler that the naive controller uses
as well, and the derivatives from the mesh's one recovery, whose
recover(field) returns one tuple per point set, exactly what the
recursion reads: (grad, hess, grad_lap), the gradient, Hessian and
gradient of the Laplacian (psi's gradient over d), floats u_x, u_xx,
u_xxx at an endpoint and stacked over the axes (x, y) on the faces, then
at fourth order the closure's (u_xxx, u_xxxx, u_xxxxx).  Both recoveries
are data, built from one table of one-sided stencil rows over the three
cell layers next to a boundary (_NORMAL_ROWS): in 1D one small matrix
per endpoint over its three nearest cells (EdgeDerivatives1D), in 2D a
linear map from the flat dof vector to every face point, built from
those rows and per-axis tangential weights (FaceDerivatives2D).

Two variants are provided.  The default, 'stagewise', re-recovers the
second derivatives and psi from every freshly solved stage field so Taylor
shifts only span single stage gaps; 'anchored' expands everything from the
step-start field.  Third-order runs (k = 2) keep a single Taylor term;
fourth-order runs (k = 3, 1D only) add one time derivative of psi_x,
obtained by exchanging time for space derivatives, which closes only for
linear convection and constant source factor p.

The order k + 1 holds with tau proportional to dx.  Refining tau alone on
a fixed mesh, the treated error stays 45-77x below the naive one, but its
time order is 2.5-2.4 against naive's 2.1 (heat1d at N = 40): at fixed
dx the treatment removes most of the naive error, but not its order.
The cause is the recovered u_xxx of the psi closure.  With the exact
u_xxx swapped in for it alone, the orders over tau = T/m, m = 50, 100,
200, 400 (T = 0.5, errors against a same-closure run at m = 3200) read
3.11/3.17/3.29 against 2.53/2.39/2.32 (heat1d at N = 40); swapping in
the exact u_x or u_xx moves them by at most 0.01.
"""

from operator import itemgetter, methodcaller, mul

import numpy as np
import scipy.sparse as sp

from .imex import BoundarySampler, axis_pairs
from .problems import boundary_data_check

__all__ = [
    'ALGORITHMS', 'VARIANTS', 'EdgeDerivatives1D', 'FaceDerivatives2D',
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


# the quantities the 2D recovery finds at a face point: u_x, u_y, u_xx,
# u_xy, u_yy, then grad(lap u) = (u_xxx + u_yyx, u_xxy + u_yyy); its
# output rows, each over all face points, hold the quantities _OUTPUT:
# the gradient, the Hessian row by row (u_xy twice), grad(lap u)
_QUANTITIES = 7
_OUTPUT = [0, 1, 2, 3, 3, 4, 5, 6]
# a face's rows in its own (normal n, tangent t) order -- u_n, u_t, u_nn,
# u_nt, u_tt, (grad lap)_n, (grad lap)_t -- land on these rows when y is
# the normal
_Y_NORMAL = [1, 0, 4, 3, 2, 6, 5]
# the normal weights N over the three cell layers next to a boundary,
# counted inward: (weights per layer, derivative order along n of each
# layer's polynomial at its near edge, further power of 1/dn).  They take
# the boundary cell's u, u_n and u_nn at the boundary, the one-sided second
# difference of the layers' u_n samples, one cell width apart, and the
# one-sided difference (-3, 4, -1)/(2 dn) of their u and of their u_n; at
# k = 3 also that difference of their u_nn, the boundary cell's u_nnn, and
# the first and second differences of the layers' (constant) u_nnn.
_NORMAL_ROWS = (
    ((1.0, 0.0, 0.0), 0, 0),
    ((1.0, 0.0, 0.0), 1, 0),
    ((1.0, 0.0, 0.0), 2, 0),
    ((1.0, -2.0, 1.0), 1, 2),
    ((-1.5, 2.0, -0.5), 0, 1),
    ((-1.5, 2.0, -0.5), 1, 1),
    ((-1.5, 2.0, -0.5), 2, 1),
    ((1.0, 0.0, 0.0), 3, 0),
    ((-1.0, 1.0, 0.0), 3, 1),
    ((1.0, -2.0, 1.0), 3, 2),
)
# the rows a 2D face reads (k = 2), and those a 1D endpoint returns, by k
_FACE_ROWS = _NORMAL_ROWS[:6]
_ENDPOINT_ROWS = {2: _NORMAL_ROWS[1:4],
                  3: _NORMAL_ROWS[1:3] + _NORMAL_ROWS[6:]}
# the tangential maps T, over a point's window of three cells (its cell
# and the neighbors, shifted inward at the end cells), for the first cell,
# an interior one and the last: the cell's own value, the first
# difference (times dt; centered, one-sided 3-point at the ends) and the
# second difference (times dt^2; one-sided at the ends) of per-cell
# samples, so that the index of each is its difference order
_WINDOWS = np.array([
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]],
    [[1.0, -2.0, 1.0], [1.0, -2.0, 1.0], [1.0, -2.0, 1.0]],
])
# the terms N V T^T of a face's rows: (row, normal row, tangential map,
# derivative order along t of each cell's polynomial at its nodes)
_TERMS = (
    (0, 1, 0, 0),       # u_n
    (1, 0, 0, 1),       # u_t
    (2, 2, 0, 0),       # u_nn
    (3, 1, 0, 1),       # u_nt
    (4, 0, 0, 2),       # u_tt
    (5, 3, 0, 0),       # u_nnn
    (5, 4, 1, 1),       # u_ttn
    (6, 5, 1, 0),       # u_nnt
    (6, 0, 2, 1),       # u_ttt
)


def _normal_weights(basis, dn, rows):
    """The normal weights of rows (entries of _NORMAL_ROWS) at the low and
    the high end of an axis of cell width dn, each over the dofs of the
    three cell layers there in the axis's order.  The high end is the low
    end mirrored: its columns reversed, and the rows odd in n (derivative
    order plus power odd) negated.  The edge rows are the basis's, each
    scaled by (2/dn)^order to the cell of width dn."""
    layers, orders, powers = zip(*rows)
    scale, divisor, sign = np.array(
        [((2.0 / dn) ** order, dn ** power, (-1.0) ** (order + power))
         for order, power in zip(orders, powers)]).T[:, :, None]
    edges = basis.edge_rows[list(orders)] * scale
    low = (np.array(layers)[:, :, None] * edges[:, None]).reshape(
        len(rows), -1) / divisor
    return low, sign * low[:, ::-1]


class EdgeDerivatives1D:
    """One-sided derivative recovery at both endpoints of a 1D mesh.

    recover(field) returns [west, east], one tuple per point set of the
    BoundarySampler, each a list of floats: (u_x, u_xx, u_xxx) at degree
    k = 2 and (u_x, u_xx, u_xxx_fd, u_xxx, u_xxxx, u_xxxxx) at k = 3, the
    rows _ENDPOINT_ROWS of the table the 2D faces read.  u_x and u_xx are
    the boundary cell's own at the endpoint.  Beyond the cell polynomial's
    reach the rows difference samples of the three cells next to the
    endpoint, each taken at its own near edge: k = 2 differences their u_x
    for u_xxx; k = 3 reads u_xxx off the cubic, differences their u_xx for
    the second-order u_xxx_fd that psi_x reads, and their (constant) u_xxx
    for u_xxxx and u_xxxxx.  Each endpoint's rows are one small dense
    matrix over its three nearest cells, built once, the east one the west
    one mirrored.
    """

    def __init__(self, mesh, basis):
        if basis.k not in _ENDPOINT_ROWS:
            raise ValueError("endpoint recovery supports degree k = 2 or 3, "
                             "got k = %d" % basis.k)
        if mesh.n < 3:
            raise ValueError("endpoint recovery needs >= 3 cells, mesh has %d"
                             % mesh.n)
        self._ends = list(zip(
            _normal_weights(basis, mesh.dx, _ENDPOINT_ROWS[basis.k]),
            (slice(0, 3), slice(mesh.n - 3, mesh.n))))

    def recover(self, field):
        """The endpoints' derivatives (see the class docstring)."""
        return [weights.dot(field[cells].ravel()).tolist()
                for weights, cells in self._ends]


def _tangential_weights(basis, widths):
    """The tangential factor on the faces normal to x and to y, shaped
    (normal axis, cell class, quantity, point node, normal row, window
    cell, tangential node), for the first, interior and last cell
    classes along the face."""
    p = basis.p
    d1 = basis.diff_matrix
    nodes = np.array([np.eye(p), d1, d1 @ d1])
    row, normal, tangential, node = (np.array(c) for c in zip(*_TERMS))
    # each term on the reference cells, (term, class, q, window cell, node)
    unit = (_WINDOWS[tangential][:, :, None, :, None]
            * nodes[node][:, None, :, None, :])
    select = np.zeros((2, _QUANTITIES, len(_FACE_ROWS), len(_TERMS)))
    for axis, rows in enumerate((row, np.take(_Y_NORMAL, row))):
        dt = widths[1 - axis]
        select[axis, rows, normal, np.arange(len(_TERMS))] = (
            (2.0 / dt) ** node / dt ** tangential)
    weights = (select.reshape(-1, len(_TERMS))
               @ unit.reshape(len(_TERMS), -1))
    return np.ascontiguousarray(weights.reshape(
        (2, _QUANTITIES, len(_FACE_ROWS), 3, p, 3, p)).transpose(
            0, 3, 1, 4, 2, 5, 6))


class FaceDerivatives2D:
    """Derivative recovery at every quadrature point of the four faces of
    a 2D mesh, as one precomputed linear map of the flat dof vector.

    recover(field) returns one tuple for the BoundarySampler's one point
    set, [(grad, hess, grad_lap)]: grad = [u_x, u_y], hess = [[u_xx, u_xy],
    [u_xy, u_yy]] and grad_lap = [u_xxx + u_yyx, u_xxy + u_yyy], each entry
    an array over the faces' points in the order of BoundarySampler.coords
    (west, east, south, north).  The three are C-contiguous views of one
    new (8, points) array, rows u_x, u_y, u_xx, u_xy, u_xy, u_yy and the
    two of grad_lap (_OUTPUT), hess its rows 2 to 5 as (2, 2, points):
    the layout StageCorrector's array arithmetic reads fastest.  It reads
    the field as (x dofs, y dofs), a reshape of its (cell, node) per axis
    layout that copies nothing.

    The map is built once, from per-axis 1D stencil weights.  On a face
    with inward normal n and tangent t, each quantity is a sum of terms
    N V T^T: V the field on the three cell layers next to the face
    (normal dofs by tangential dofs), N a row of normal weights over
    those layers (_FACE_ROWS) and T a map from the tangential dofs to
    the face points (_WINDOWS and each cell's own node derivatives).  The
    map is kept in these two factors: per face the six normal rows as one
    small dense matrix, applied to V in place, and one sparse matrix
    taking every face's N V to all faces' points, with a fifth of the
    entries of the whole map (14.2k against 65k at N = 40).  Its rows
    are built in output order, quantity by quantity, the u_xy rows
    twice; each row holds its entries in the order of the normal row,
    window cell and node it reads, so its sum does not depend on the row
    order.  On the east and north faces the normal rows are the west and
    south ones mirrored, as at a 1D endpoint (_normal_weights).  Needs
    k = 2 and >= 3 cells per direction.
    """

    def __init__(self, mesh, basis):
        if basis.k != 2:
            raise ValueError("2D recovery supports degree k = 2, got k = %d"
                             % basis.k)
        if mesh.x.n < 3 or mesh.y.n < 3:
            raise ValueError("face recovery needs >= 3 cells per direction")
        p = basis.p
        cells = (mesh.x.n, mesh.y.n)
        widths = (mesh.x.dx, mesh.y.dx)
        self._shape = (cells[0] * p, cells[1] * p)
        self._normal = []
        for dn in widths:
            self._normal += _normal_weights(basis, dn, _FACE_ROWS)
        # N V of each face, (normal row, tangential dof), one after another
        rows = len(_FACE_ROWS)
        sizes = [rows * self._shape[tangent] for tangent in (1, 1, 0, 0)]
        ends = np.cumsum(sizes).tolist()
        self._spans = list(zip([0] + ends[:-1], ends))
        weights = _tangential_weights(basis, widths)
        entries = np.nonzero(weights)
        axes, classes, quantity, q, normal_row, window, node = entries
        vals = weights[entries]
        # the entries of one quantity at one cell of each (normal axis,
        # class) are a segment, in the order of its rows q, with
        # row_lengths entries each; cols are their columns on a face's
        # N V, before the shift to the face's span and the cell's window
        segment = (axes * 3 + classes) * _QUANTITIES + quantity
        segments = 6 * _QUANTITIES
        bounds = np.searchsorted(segment, np.arange(segments + 1))
        row_lengths = np.bincount(segment * p + q,
                                  minlength=segments * p).reshape(-1, p)
        cols = (normal_row * np.take(self._shape[::-1], axes)
                + window * p + node)
        # the cells of every face, face after face: the first, the
        # interior ones, the last, each with the column of its window
        kinds, shifts = [], []
        for face, (lo_col, _) in enumerate(self._spans):
            axis = face // 2
            m = cells[1 - axis]
            kinds.append(axis * 3 + np.repeat([0, 1, 2], [1, m - 2, 1]))
            shifts.append(lo_col + p * np.concatenate(
                [[0], np.arange(m - 2), [m - 3]]))
        # one segment per output row block and face cell, in row order:
        # its p rows, the cell's points, take its entries in turn
        seg = (np.array(_OUTPUT)[:, None]
               + _QUANTITIES * np.concatenate(kinds)).ravel()
        shift = np.tile(np.concatenate(shifts), len(_OUTPUT))
        lengths = row_lengths[seg].ravel()
        indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
        np.cumsum(lengths, out=indptr[1:])
        counts = bounds[seg + 1] - bounds[seg]
        take = (np.repeat(bounds[seg] - indptr[:-1:p], counts)
                + np.arange(indptr[-1]))
        self._tangential = sp.csr_matrix(
            (vals[take], (cols[take] + np.repeat(shift, counts)).astype(
                np.int32), indptr), shape=(len(lengths), ends[-1]))

    def recover(self, field):
        """[(grad, hess, grad_lap)] on the faces (see the class doc)."""
        v = field.reshape(self._shape)
        k = self._normal[0].shape[1]
        layers = (v[:k], v[-k:], v[:, :k].T, v[:, -k:].T)
        nv = np.empty(self._spans[-1][1])
        for normal, layer, (lo, hi) in zip(self._normal, layers, self._spans):
            np.matmul(normal, layer, out=nv[lo:hi].reshape(len(normal), -1))
        y = (self._tangential @ nv).reshape(len(_OUTPUT), -1)
        return [(y[:2], y[2:6].reshape(2, 2, -1), y[6:])]


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
    return lambda u: float(fn(u))


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
    a 1D endpoint, where every value is a Python float, and 2 on the
    points of all four 2D faces, where values are arrays over the points
    and vectors over the axes (gradient, psi) are stacked on a leading
    axis.  Only contracting those vectors over the axes differs between
    the two; the recursion itself is plain + and *, with no tangential
    terms left at a 1D endpoint.  Drive it with begin(rec, tau, traces),
    then stage_value(i) for i = 0, 1, ... in order, and observe(i, rec)
    with the tuple recovered from each solved interior stage field
    (stagewise variant).  rec is (grad, hess, grad_lap), the gradient,
    Hessian and gradient of the Laplacian in this layout, followed at
    order 4 by the closure's (u_xxx, u_xxxx, u_xxxxx).  traces maps
    sampler keys to this point set's per-stage samples (see
    BoundarySampler): omega_t, and a callable source factor p under 'p',
    its gradient under ('p_grad', axis); p as a number, 0.0 without a
    source, is read off the problem.  Of omega and (order 4) omega_tt it
    reads the step-start sample, index 0, only.
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
        # the source factor p is a number (0.0 without a source) or sampled
        # per stage, with its gradient
        sampled = callable(problem.p)
        self._p = 0.0 if sampled or problem.p is None else problem.p
        self._p_keys = [('p_grad', a) for a in range(dim)] if sampled else None
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
        p = self._p if self._ps is None else self._ps[i]
        return p * u - self._dot(fp, grad)

    def _psi_rate(self, rec):
        """d/dt psi_x, time exchanged for space derivatives (order 4)."""
        d = self.d
        u_xxx, u_xxxx, u_xxxxx = rec[3:]
        return d * (-self._fpc * u_xxxx + d * u_xxxxx + self._p * u_xxx)

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
        self._bpsis = [self._omt[0] - self._xis[0]]
        self._xigs = []
        if not self.anchored:
            self._hesss, self._psis = [], []
            self._preds = [] if self.order4 else self._psis
            self.observe(0, rec)
            return
        psi = self.d * grad_lap
        ct = self._ct
        if self.order4:
            u_xxx, u_xxxx, _ = rec[3:]
            dhess = -self._fpc * u_xxx + self.d * u_xxxx + self._p * hess
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
        psis, xigs, bpsis = self._psis, self._xigs, self._bpsis
        taii = self._taii[i]
        # gradient of xi at the previous stage, from its Hessian, gradient
        # and value
        prev = i - 1
        u, g, hess = treated[prev], self._grads[prev], self._hesss[prev]
        if self._ps is None:
            xig = self._p * g
        else:
            pg = self._vec([v[prev] for v in self._pgs])
            xig = pg * u + self._ps[prev] * g
        fp = self._fpc
        if fp is None:
            fp = self._vec([f(u) for f in self._fp])
            fpp = self._vec([f(u) for f in self._fpp])
            xig = xig + (-(self._dot(fpp, g) * g) - self._matvec(hess, fp))
        else:
            xig = xig - self._matvec(hess, fp)
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
            val = val + w * bpsis[j]
        grad = grad + taii * self._preds[i - 1]
        self._grads.append(grad)
        # boundary state at this stage, Taylor-expanded from the step start
        uh = treated[0] + self._ct[i] * self._omt[0]
        if self.order4:
            uh = uh + 0.5 * self._ct[i] ** 2 * self._omtt0
        xi_i = self._xi(grad, uh, i)
        self._xis.append(xi_i)
        bpsis.append(self._omt[i] - xi_i)
        val = val + taii * bpsis[i]
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

    One StageCorrector per point set of its BoundarySampler, fed by the
    sampler's traces there and by the one recovery of the mesh, whose
    recover(field) returns one derivative tuple per point set: the two 1D
    endpoints (EdgeDerivatives1D) or all points of the four 2D faces at
    once (FaceDerivatives2D).  The recovery refuses a degree or a mesh it
    has no stencil for, and the correctors a problem they cannot run.
    Plugs into the integrator in place of the naive omega sampler; its
    sampler samples omega and omega_tt at the step start only, the keys
    it declares as start_keys.  Set .trace to a list to collect (stage,
    side, point, naive, treated) rows, one per boundary point, the naive
    value omega at the stage time, evaluated for the trace alone; point
    holds one coordinate per axis, (x,) in 1D and (x, y) in 2D, as
    boundary_points gives them.
    """

    def __init__(self, problem, mesh, basis, tableau, variant='stagewise'):
        if problem.dim != mesh.dim:
            raise ValueError("problem is %dD but the mesh is %dD"
                             % (problem.dim, mesh.dim))
        if mesh.dim == 1:
            self.recovery = EdgeDerivatives1D(mesh, basis)
        elif variant != 'stagewise':
            raise ValueError("2D treatment supports the stagewise variant "
                             "only")
        else:
            self.recovery = FaceDerivatives2D(mesh, basis)
        order = basis.k + 1
        fns = [('omega', problem.omega), ('omega_t', problem.omega_t)]
        if order == 4:
            fns.append(('omega_tt', problem.omega_tt))
        if callable(problem.p):
            fns += [('p', problem.p)] + [(('p_grad', a), grad) for a, grad
                                         in enumerate(problem.p_grad)]
        self.stages = tableau.stages
        self.anchored = variant == 'anchored'
        # the recursion reads omega and omega_tt at the step start only
        self.sampler = BoundarySampler(mesh, basis, tableau.c, fns,
                                       start_keys=('omega', 'omega_tt'))
        self._omega, self._c = problem.omega, tableau.c.tolist()
        self.correctors = [StageCorrector(problem, tableau, order, variant)
                           for _ in range(self.sampler.point_sets)]
        # a wrong derivative field silently costs order: check them all,
        # once the correctors have checked that the fields they need exist
        boundary_data_check(problem, self.sampler.coords)
        self.trace = self._step = None

    def prepare(self, t0, tau, nsteps):
        self.sampler.prepare(t0, tau, nsteps)

    def begin_step(self, u, t, tau):
        self._step = (t, tau)
        for rec, corr, traces in zip(self.recovery.recover(u),
                                     self.correctors,
                                     self.sampler.step(t, tau)):
            corr.begin(rec, tau, traces)

    def stage_data(self, i):
        vals = self.sampler.split(
            list(map(methodcaller('stage_value', i), self.correctors)))
        if self.trace is not None:
            self._record(i, vals)
        return axis_pairs(vals)

    def _record(self, i, vals):
        # the naive value omega at the stage time, which the recursion
        # itself does not sample
        t, tau = self._step
        naive = self.sampler.at(self._omega, t + tau * self._c[i])
        for side, pts, nvs, tvs in zip(self.sampler.sides,
                                       self.sampler.points, naive, vals):
            for *point, nv, tv in zip(*map(np.ravel, pts), np.ravel(nvs),
                                      np.ravel(tvs)):
                self.trace.append((i, side, tuple(map(float, point)),
                                   float(nv), float(tv)))

    def observe_stage(self, i, u_stage):
        # stage 0 is the step-start field, already recovered at begin; the
        # last stage feeds no further stage, so neither needs recovery here
        if self.anchored or i < 1 or i >= self.stages - 1:
            return
        for rec, corr in zip(self.recovery.recover(u_stage),
                             self.correctors):
            corr.observe(i, rec)


def treated_boundary(problem, mesh, basis, tableau, variant='stagewise'):
    """Build the treated-boundary controller for an algorithm or variant."""
    return TreatedBoundary(problem, mesh, basis, tableau,
                           variant=resolve_variant(variant))
