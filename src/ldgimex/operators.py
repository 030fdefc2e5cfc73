"""LDG spatial discretization on Cartesian meshes: one 1D operator per axis.

Each operator applies its 1D form along every grid line of every mesh axis
(mesh.axes).  All integrals collocate on the (k+1)-point Gauss nodes, so
mass matrices are diagonal and face integrals decouple per transverse node:
diffusion is the Kronecker sum of the per-axis 1D operators, convection a
sum over the axes with a flux.  Along an axis, interior faces take the
primal trace u~ from the left/lower cell and the gradient trace q~ from the
right/upper one.  At the low exterior face u~ is the Dirichlet datum; at
the high one u~ is again the datum while q~ = q^- + s (u^- - omega) adds a
penalty jump, s = 1/width of the other axis (of the axis itself in 1D).
Fields are shaped (cells per axis..., nodes per axis...); flat vectors
order the dofs (cell, node) per axis, x slowest.

Each mesh axis gets one AxisOperator: its reference line matrices, which
the convective operator reads too, and its diffusion matrices, assembled
from stacked block diagonals without a loop over cells.
"""

import math
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp


def lax_friedrichs(u_in, u_out, normal, flux, alpha):
    """Local Lax-Friedrichs numerical flux in the direction of `normal`.

    F~ . n = 1/2 [ (F(u_in) + F(u_out)) . n - alpha (u_out - u_in) ]
    with alpha >= sup |F'(u) . n| over the relevant states.
    """
    return (0.5 * normal * (flux(u_in) + flux(u_out))
            - 0.5 * alpha * (u_out - u_in))


class LineMatrices:
    """Reference matrices of a cell line of width dx along one axis.

    S[m, q] = w_q phi_m'(xi_q) is the collocated stiffness matrix, winv
    the inverse of the diagonal mass matrix, r and l the trace rows
    phi_m(+1) and phi_m(-1).  The convective and diffusive operators both
    read them.
    """

    def __init__(self, basis, dx):
        w = basis.weights
        self.S = basis.diff_matrix.T * w
        self.winv = 2.0 / (dx * w)
        self.r, self.l = basis.phi_right, basis.phi_left


def _repeat(count, block, last=None):
    """count copies of a (p, p) block, the final one replaced by last."""
    out = np.repeat(block[None], count, axis=0)
    if last is not None:
        out[-1] = last
    return out


def _block_banded(bands):
    """CSR matrix from block diagonals {offset: (n - |offset|, p, p) blocks}.

    Stored with sorted indices and no stored zeros, as a cell-by-cell
    assembly stores it: sparse products then sum in the same order, and
    SuperLU, which orders by structure, pivots the same way.
    """
    n, p = len(bands[0]), bands[0].shape[1]
    rows = np.concatenate([np.arange(max(0, -k), n - max(0, k))
                           for k in bands])
    cols = rows + np.repeat(list(bands), [len(b) for b in bands.values()])
    order = np.argsort(rows, kind='stable')     # BSR takes block rows in order
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    blocks = np.concatenate(list(bands.values()))[order]
    mat = sp.bsr_matrix((blocks, cols[order], indptr),
                        shape=(n * p, n * p)).tocsr()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


class AxisOperator(LineMatrices):
    """The 1D LDG diffusion operator along one mesh axis of n cells.

    K is the weak gradient with boundary map Kb, q = K u + Kb [low; high];
    L = d Ddiv K + P is the diffusive operator on the field coefficients
    and Gb its boundary map, g_b = Gb [low; high], for the face data low
    and high of the axis.  The cells of an axis share their blocks, and
    only the blocks next to the high exterior face differ, so each matrix
    is assembled at once from stacked (n, p, p) block diagonals:

        K:    diagonal winv(-S + rr), last winv(-S); below winv(-lr)
        Ddiv: diagonal winv(-S - ll), last winv((-S - ll) + rr);
              above winv rl
        P:    last diagonal block -d s winv rr

    with rr = r r^T, rl = r l^T and so on, and s = penalty.  Every block
    is formed with the same floating-point operations as a cell-by-cell
    loop would, so K, Kb, L and Gb are bitwise those of that loop (the
    tests keep it as cell_loop_operator).
    """

    def __init__(self, n, dx, basis, d_coef, penalty):
        super().__init__(basis, dx)
        p, S, winv, r, l = basis.p, self.S, self.winv, self.r, self.l

        def rows(mat):
            return winv[:, None] * mat

        rr, rl, lr, ll = (np.outer(r, r), np.outer(r, l),
                          np.outer(l, r), np.outer(l, l))
        # u~ is the left cell's right trace at interior faces: a cell's
        # east face reads its own (rr), its west face the left cell's (lr);
        # at the exterior faces u~ is the datum (Kb)
        self.K = _block_banded({0: _repeat(n, rows(-S + rr), rows(-S)),
                                -1: _repeat(n - 1, rows(-lr))})
        self.Kb = np.zeros((n * p, 2))
        self.Kb[:p, 0] = -winv * l
        self.Kb[-p:, 1] = winv * r
        # q~ is the right cell's left trace at interior faces and the own
        # left trace at the west face (ll); at the exterior east face it is
        # the own right trace (rr) with the penalty jump s (u^- - omega),
        # oriented to dissipate energy (P, Pb)
        ddiag = -S - ll
        Ddiv = _block_banded({0: _repeat(n, rows(ddiag), rows(ddiag + rr)),
                              1: _repeat(n - 1, rows(rl))})
        # the zero blocks leave no stored entries
        P = _block_banded({0: _repeat(n, np.zeros((p, p)),
                                      -d_coef * penalty * rows(rr))})
        Pb = np.zeros((n * p, 2))
        Pb[-p:, 1] = d_coef * penalty * winv * r
        self.L = (d_coef * (Ddiv @ self.K) + P).tocsr()
        self.Gb = d_coef * (Ddiv @ self.Kb) + Pb


def _inverse(perm):
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


class Diffusion:
    """Diffusive operator RHS = L u + g_b(omega) on a 1D or 2D mesh.

    axes holds one AxisOperator per entry of mesh.axes, with penalty
    1/width of the other axis (of the axis itself in 1D).  L is their
    Kronecker sum, in 1D the axis's L itself; g_b adds each axis's Gb
    applied to its face data along every grid line.  flatten/unflatten
    map fields to and from the flat dof order that L acts on.
    """

    def __init__(self, mesh, basis, d_coef):
        self.mesh = mesh
        self.basis = basis
        self.d_coef = d_coef
        axes = mesh.axes
        dim, p = len(axes), basis.p
        widths = [ax.dx for ax in axes][::-1]
        self.axes = tuple(AxisOperator(ax.n, ax.dx, basis, d_coef, 1.0 / w)
                          for ax, w in zip(axes, widths))
        # kronsum(A, B) runs A's index fastest: fold from the last axis
        self.L = reduce(sp.kronsum, [op.L for op in self.axes[::-1]]).tocsr()
        self.shape = tuple(ax.n for ax in axes) + (p,) * dim
        self._order = tuple(i for a in range(dim) for i in (a, a + dim))
        self._unorder = _inverse(self._order)
        self._split = tuple(s for ax in axes for s in (ax.n, p))
        self._grid = grid = tuple(ax.n * p for ax in axes)
        # per axis: the dof grid with that axis first, and the way back
        fronts = [(a,) + tuple(b for b in range(dim) if b != a)
                  for a in range(dim)]
        self._lines = [(f, tuple(grid[b] for b in f), _inverse(f))
                       for f in fronts]

    def flatten(self, u):
        return np.asarray(u, dtype=float).transpose(self._order).reshape(-1)

    def unflatten(self, v):
        return v.reshape(self._split).transpose(self._unorder)

    def gb(self, bdata):
        """Boundary vector in the flat order: each axis's Gb @ [low; high]
        for the (low, high) face data pairs of bdata, one per axis."""
        g = None
        for op, (_, shape, back), pair in zip(self.axes, self._lines, bdata):
            term = op.Gb @ np.array(pair).reshape(2, -1)
            term = term.reshape(shape).transpose(back)
            g = term if g is None else g + term
        return g.reshape(-1)

    def apply(self, u, bdata):
        """Full diffusive RHS L u + g_b as a field."""
        return self.unflatten(self.L @ self.flatten(u) + self.gb(bdata))

    def gradient(self, u, bdata):
        """Auxiliary fields q_a = weak d/dx_a of u with the alternating
        traces, one per axis (a 1-tuple in 1D)."""
        grid = self.flatten(u).reshape(self._grid)
        out = []
        for op, (front, shape, back), pair in zip(self.axes, self._lines,
                                                  bdata):
            q = (op.K @ grid.transpose(front).reshape(op.K.shape[0], -1)
                 + op.Kb @ np.array(pair).reshape(2, -1))
            out.append(self.unflatten(q.reshape(shape).transpose(back)))
        return tuple(out)


def build_diffusion(mesh, basis, problem):
    """Diffusion operator for the problem's (linear) diffusion coefficient."""
    return Diffusion(mesh, basis, problem.d_coef)


def _convection_lines(u, flux, alpha, bw, be, mats):
    """Convective weak-form RHS of -d/dx F(u) on a batch of 1D cell lines.

    Args:
        u: (n, p, B) nodal values (B transverse lines).
        flux: scalar flux function, vectorized.
        alpha: Lax-Friedrichs dissipation bound.
        bw, be: (B,) outside states at the west and east exterior faces.
        mats: the axis's LineMatrices.

    Returns:
        (n, p, B) RHS values.
    """
    S, winv, r, l = mats.S, mats.winv, mats.r, mats.l
    fu = flux(u)
    vol = np.einsum('mq,iqb->imb', S, fu)
    tr_right = np.einsum('q,iqb->ib', r, u)
    tr_left = np.einsum('q,iqb->ib', l, u)
    u_left = np.concatenate([bw[None, :], tr_right], axis=0)    # (n+1, B)
    u_right = np.concatenate([tr_left, be[None, :]], axis=0)
    fhat = lax_friedrichs(u_left, u_right, 1.0, flux, alpha)
    return winv[None, :, None] * (vol
                                  - fhat[1:, None, :] * r[None, :, None]
                                  + fhat[:-1, None, :] * l[None, :, None])


def llf_alpha(problem, u, bdata):
    """Global Lax-Friedrichs bound: max |f_a'| over all nodal and boundary
    states, taken over the axes a that carry a flux (0 when none does)."""
    states = np.concatenate([np.ravel(u)] + [np.ravel(v) for pair in bdata
                                             for v in pair])
    return max((float(np.max(np.abs(fp(states))))
                for f, fp, _ in problem.fluxes if f is not None),
               default=0.0)


@lru_cache(maxsize=None)
def _line_order(axis, dim):
    """Field index order with axis's (cell, node) first, and its inverse."""
    own = (axis, axis + dim)
    front = own + tuple(i for i in range(2 * dim) if i not in own)
    return front, _inverse(front)


def explicit_rhs(u, t, bdata, problem, mesh, basis, coords=None,
                 axes=None):
    """The xi part of the semidiscretization: -div F(u) + h(u, x, t).

    Each axis with a flux runs the 1D LLF operator on every grid line
    along it, with that axis's face data as the outside states.  coords
    (mesh.node_coords) and axes (one LineMatrices per mesh axis, such as
    Diffusion.axes) are built from the mesh when not given.
    """
    if coords is None:
        coords = mesh.node_coords(basis)
    if axes is None:
        axes = [LineMatrices(basis, ax.dx) for ax in mesh.axes]
    u = np.asarray(u, dtype=float)
    dim = len(mesh.axes)
    terms = []
    for a, (ax, mats, (f, _, _), (low, high)) in enumerate(
            zip(mesh.axes, axes, problem.fluxes, bdata)):
        if f is None:
            continue
        if not terms:  # the first axis with a flux
            alpha = llf_alpha(problem, u, bdata)
        front, back = _line_order(a, dim)
        lines = u.transpose(front)
        conv = _convection_lines(
            lines.reshape(ax.n, basis.p, -1), f, alpha, np.ravel(low),
            np.ravel(high), mats)
        terms.append(conv.reshape(lines.shape).transpose(back))
    if problem.h is not None:
        terms.append(problem.h(u, *coords, t))
    return reduce(np.add, terms) if terms else np.zeros_like(u)


def norms(u, exact, mesh, basis, t):
    """(L1, L2, Linf) of u - exact over the mesh, by Gauss quadrature.

    The pointwise error is sampled at the quadrature nodes (which are also
    the nodal points), L1/L2 use the per-cell rule, Linf is the node max.
    """
    e = np.asarray(u, dtype=float) - exact(*mesh.node_coords(basis), t)
    # one weight vector and one half-width per axis: 'q,iq->' in 1D,
    # 'q,r,ijqr->' in 2D
    dim = len(mesh.axes)
    cells, nodes = 'ij'[:dim], 'qr'[:dim]
    subscripts = ','.join(nodes) + ',' + cells + nodes + '->'
    weights = [basis.weights] * dim
    jac = math.prod(0.5 * ax.dx for ax in mesh.axes)
    l1 = jac * float(np.einsum(subscripts, *weights, np.abs(e)))
    l2 = float(np.sqrt(jac * np.einsum(subscripts, *weights, e * e)))
    return l1, l2, float(np.max(np.abs(e)))
