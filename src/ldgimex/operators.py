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
"""

import math
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp


class BoundaryData:
    """Dirichlet (or treated stage) values at the boundary quadrature points.

    1D: scalars west/east.  2D: west/east arrays of shape (m, p) indexed by
    (cell j, node m2) and south/north arrays of shape (n, p) indexed by
    (cell i, node m1).
    """

    def __init__(self, west=None, east=None, south=None, north=None):
        self.west = west
        self.east = east
        self.south = south
        self.north = north

    def pairs(self):
        """(low, high) face data per mesh axis: (west, east), then
        (south, north) in 2D."""
        if self.south is None:
            return ((self.west, self.east),)
        return ((self.west, self.east), (self.south, self.north))


def lax_friedrichs(u_in, u_out, normal, flux, alpha):
    """Local Lax-Friedrichs numerical flux in the direction of `normal`.

    F~ . n = 1/2 [ (F(u_in) + F(u_out)) . n - alpha (u_out - u_in) ]
    with alpha >= sup |F'(u) . n| over the relevant states.
    """
    return (0.5 * normal * (flux(u_in) + flux(u_out))
            - 0.5 * alpha * (u_out - u_in))


def _line_matrices(basis, dx):
    """Per-direction reference matrices for a cell row of width dx."""
    w = basis.weights
    S = basis.diff_matrix.T * w          # S[m, q] = w_q phi_m'(xi_q)
    winv = 2.0 / (dx * w)                # inverse of the diagonal mass matrix
    return S, winv


def _assemble_1d(n, dx, basis, d_coef, penalty_scale):
    """Sparse 1D diffusion machinery along one direction.

    Returns a dict with the gradient operator K (and its boundary map Kb),
    the assembled diffusive operator L = d * Ddiv K + P acting on field
    coefficients, and the boundary map Gb with g_b = Gb @ [omega_w, omega_e].
    """
    p = basis.p
    S, winv = _line_matrices(basis, dx)
    r, l = basis.phi_right, basis.phi_left

    def rows(mat):
        return winv[:, None] * mat

    ndof = n * p
    K = sp.lil_matrix((ndof, ndof))
    Ddiv = sp.lil_matrix((ndof, ndof))
    P = sp.lil_matrix((ndof, ndof))
    Kb = np.zeros((ndof, 2))
    Pb = np.zeros((ndof, 2))
    rr, rl, lr, ll = (np.outer(r, r), np.outer(r, l),
                      np.outer(l, r), np.outer(l, l))
    for i in range(n):
        sl = slice(i * p, (i + 1) * p)
        diag = -S.copy()
        if i < n - 1:
            diag += rr          # u~ at interior east face: own right trace
        else:
            Kb[sl, 1] = winv * r    # u~ at exterior east face: omega_e
        if i > 0:
            K[sl, slice((i - 1) * p, i * p)] = rows(-lr)  # u~ west: left cell
        else:
            Kb[sl, 0] = -winv * l   # u~ at exterior west face: omega_w
        K[sl, sl] = rows(diag)

        ddiag = -S - ll             # q~ at west face: own left trace (all i)
        if i < n - 1:
            Ddiv[sl, slice((i + 1) * p, (i + 2) * p)] = rows(rl)
        else:
            ddiag = ddiag + rr      # exterior east: q~ from own right trace
            # penalty jump s (u^- - omega), oriented to dissipate energy
            P[sl, sl] = -d_coef * penalty_scale * rows(rr)
            Pb[sl, 1] = d_coef * penalty_scale * winv * r
        Ddiv[sl, sl] = rows(ddiag)

    K = K.tocsr()
    Ddiv = Ddiv.tocsr()
    L = (d_coef * (Ddiv @ K) + P).tocsr()
    Gb = d_coef * (Ddiv @ Kb) + Pb
    return {'K': K, 'Kb': Kb, 'L': L, 'Gb': Gb}


def _inverse(perm):
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


class Diffusion:
    """Diffusive operator RHS = L u + g_b(omega) on a 1D or 2D mesh.

    One 1D operator per mesh axis (_assemble_1d, penalty 1/width of the
    other axis, of the axis itself in 1D); L is their Kronecker sum, in 1D
    the axis's operator itself.  flatten/unflatten map fields to and from
    the flat dof order that L acts on.
    """

    def __init__(self, mesh, basis, d_coef):
        self.mesh = mesh
        self.basis = basis
        self.d_coef = d_coef
        axes = mesh.axes
        dim, p = len(axes), basis.p
        widths = [ax.dx for ax in axes][::-1]
        parts = [_assemble_1d(ax.n, ax.dx, basis, d_coef, 1.0 / w)
                 for ax, w in zip(axes, widths)]
        # kronsum(A, B) runs A's index fastest: fold from the last axis
        self.L = reduce(sp.kronsum, [pt['L'] for pt in parts[::-1]]).tocsr()
        self._K = [pt['K'] for pt in parts]
        self._Kb = [pt['Kb'] for pt in parts]
        self._Gb = [pt['Gb'] for pt in parts]
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
        """Boundary vector: each axis's Gb @ [low; high], in the flat order."""
        g = None
        for Gb, (_, shape, back), pair in zip(self._Gb, self._lines,
                                             bdata.pairs()):
            term = Gb @ np.array(pair).reshape(2, -1)
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
        for K, Kb, (front, shape, back), pair in zip(
                self._K, self._Kb, self._lines, bdata.pairs()):
            q = (K @ grid.transpose(front).reshape(K.shape[0], -1)
                 + Kb @ np.array(pair).reshape(2, -1))
            out.append(self.unflatten(q.reshape(shape).transpose(back)))
        return tuple(out)


def build_diffusion(mesh, basis, problem):
    """Diffusion operator for the problem's (linear) diffusion coefficient."""
    return Diffusion(mesh, basis, problem.d_coef)


def _convection_lines(u, flux, alpha, bw, be, S, winv, r, l):
    """Convective weak-form RHS of -d/dx F(u) on a batch of 1D cell lines.

    Args:
        u: (n, p, B) nodal values (B transverse lines).
        flux: scalar flux function, vectorized.
        alpha: Lax-Friedrichs dissipation bound.
        bw, be: (B,) outside states at the west and east exterior faces.

    Returns:
        (n, p, B) RHS values.
    """
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
    states = np.concatenate([np.ravel(u)] + [np.ravel(v) for pair
                                             in bdata.pairs() for v in pair])
    return max((float(np.max(np.abs(fp(states))))
                for f, fp, _ in problem.fluxes if f is not None),
               default=0.0)


@lru_cache(maxsize=None)
def _line_order(axis, dim):
    """Field index order with axis's (cell, node) first, and its inverse."""
    own = (axis, axis + dim)
    front = own + tuple(i for i in range(2 * dim) if i not in own)
    return front, _inverse(front)


def explicit_rhs(u, t, bdata, problem, mesh, basis, coords=None):
    """The xi part of the semidiscretization: -div F(u) + h(u, x, t).

    Each axis with a flux runs the 1D LLF operator on every grid line
    along it, with that axis's face data as the outside states.
    """
    if coords is None:
        coords = mesh.node_coords(basis)
    u = np.asarray(u, dtype=float)
    dim = len(mesh.axes)
    terms = []
    for a, (ax, (f, _, _), (low, high)) in enumerate(
            zip(mesh.axes, problem.fluxes, bdata.pairs())):
        if f is None:
            continue
        if not terms:  # the first axis with a flux
            alpha = llf_alpha(problem, u, bdata)
        front, back = _line_order(a, dim)
        lines = u.transpose(front)
        S, winv = _line_matrices(basis, ax.dx)
        conv = _convection_lines(
            lines.reshape(ax.n, basis.p, -1), f, alpha, np.ravel(low),
            np.ravel(high), S, winv, basis.phi_right, basis.phi_left)
        terms.append(conv.reshape(lines.shape).transpose(back))
    if problem.has_source():
        terms.append(problem.source(u, coords, t))
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
