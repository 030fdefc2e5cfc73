"""LDG spatial discretization: gradient reconstruction, convective fluxes,
diffusion with alternating fluxes and boundary penalty, norms.

Interior faces use the alternating choice: the primal trace u~ is taken from
the left/lower cell, the gradient trace q~ from the right/upper cell.  At
west/south exterior faces u~ is the Dirichlet datum (its natural side); at
east/north exterior faces the choice is inverted: u~ is again the datum while
q~ = q^- + s (u^- - omega) adds a penalty jump scaled by the transverse cell
width.  All integrals collocate on the (k+1)-point Gauss nodes, so mass
matrices are diagonal and face integrals decouple per transverse node.
"""

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

    def sides(self):
        return {k: v for k, v in (('west', self.west), ('east', self.east),
                                  ('south', self.south), ('north', self.north))
                if v is not None}


def lax_friedrichs(u_in, u_out, normal, flux, alpha):
    """Local Lax-Friedrichs numerical flux in the direction of `normal`.

    F~ . n = 1/2 [ (F(u_in) + F(u_out)) . n - alpha (u_out - u_in) ]
    with alpha >= sup |F'(u) . n| over the relevant states.
    """
    return 0.5 * ((flux(u_in) + flux(u_out)) * normal - alpha * (u_out - u_in))


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


class Diffusion1D:
    """Diffusive operator on a 1D mesh: RHS = L u + g_b(omega)."""

    def __init__(self, mesh, basis, d_coef):
        self.mesh = mesh
        self.basis = basis
        self.d_coef = d_coef
        parts = _assemble_1d(mesh.n, mesh.dx, basis, d_coef, 1.0 / mesh.dx)
        self.L = parts['L']
        self._K = parts['K']
        self._Kb = parts['Kb']
        self._Gb = parts['Gb']
        self.shape = (mesh.n, basis.p)

    def flatten(self, u):
        return np.asarray(u, dtype=float).reshape(-1)

    def unflatten(self, v):
        return v.reshape(self.shape)

    def gb(self, bdata):
        return self._Gb @ np.array([bdata.west, bdata.east])

    def apply(self, u, bdata):
        """Full diffusive RHS L u + g_b as a (n, p) field."""
        v = self.L @ self.flatten(u) + self.gb(bdata)
        return self.unflatten(v)

    def gradient(self, u, bdata):
        """Auxiliary field q = weak d/dx of u with the alternating traces."""
        v = self._K @ self.flatten(u) + self._Kb @ np.array([bdata.west,
                                                             bdata.east])
        return self.unflatten(v)


class Diffusion2D:
    """Diffusive operator on a 2D mesh via per-direction 1D assembly.

    The collocated face integrals are diagonal in the transverse node index,
    so the x-direction operator acts on each (j, m2) line exactly like its 1D
    counterpart; the full operator is the Kronecker sum of the two
    directions.  Penalty scales follow the transverse-width convention: east
    faces use 1/dy, north faces 1/dx.
    """

    def __init__(self, mesh, basis, d_coef):
        self.mesh = mesh
        self.basis = basis
        self.d_coef = d_coef
        px = _assemble_1d(mesh.n, mesh.dx, basis, d_coef, 1.0 / mesh.dy)
        py = _assemble_1d(mesh.m, mesh.dy, basis, d_coef, 1.0 / mesh.dx)
        self.Lx, self._Kx, self._Kbx, self._Gbx = (px['L'], px['K'],
                                                   px['Kb'], px['Gb'])
        self.Ly, self._Ky, self._Kby, self._Gby = (py['L'], py['K'],
                                                   py['Kb'], py['Gb'])
        self.nxdof = mesh.n * basis.p
        self.nydof = mesh.m * basis.p
        self.L = (sp.kron(self.Lx, sp.identity(self.nydof), format='csr')
                  + sp.kron(sp.identity(self.nxdof), self.Ly, format='csr'))
        self.shape = (mesh.n, mesh.m, basis.p, basis.p)

    def to_matrix(self, u):
        """(n, m, p, p) field -> (nxdof, nydof) matrix, x-dofs as rows."""
        n, m, p, _ = self.shape
        return np.asarray(u, dtype=float).transpose(0, 2, 1, 3).reshape(
            self.nxdof, self.nydof)

    def from_matrix(self, umat):
        n, m, p, _ = self.shape
        return umat.reshape(n, p, m, p).transpose(0, 2, 1, 3)

    def flatten(self, u):
        return self.to_matrix(u).reshape(-1)

    def unflatten(self, v):
        return self.from_matrix(v.reshape(self.nxdof, self.nydof))

    def _wx(self, bdata):
        return np.stack([np.asarray(bdata.west, dtype=float).reshape(-1),
                         np.asarray(bdata.east, dtype=float).reshape(-1)])

    def _wy(self, bdata):
        return np.stack([np.asarray(bdata.south, dtype=float).reshape(-1),
                         np.asarray(bdata.north, dtype=float).reshape(-1)])

    def gb_matrix(self, bdata):
        return self._Gbx @ self._wx(bdata) + (self._Gby @ self._wy(bdata)).T

    def gb(self, bdata):
        return self.gb_matrix(bdata).reshape(-1)

    def apply(self, u, bdata):
        umat = self.to_matrix(u)
        rhs = self.Lx @ umat + umat @ self.Ly.T + self.gb_matrix(bdata)
        return self.from_matrix(rhs)

    def gradient(self, u, bdata):
        """Auxiliary fields (q1, q2) with the alternating traces."""
        umat = self.to_matrix(u)
        q1 = self._Kx @ umat + self._Kbx @ self._wx(bdata)
        q2 = umat @ self._Ky.T + (self._Kby @ self._wy(bdata)).T
        return self.from_matrix(q1), self.from_matrix(q2)


def build_diffusion(mesh, basis, problem):
    """Diffusion operator for the problem's (linear) diffusion coefficient."""
    if mesh.dim == 1:
        return Diffusion1D(mesh, basis, problem.d_coef)
    return Diffusion2D(mesh, basis, problem.d_coef)


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
    fhat = 0.5 * (flux(u_left) + flux(u_right) - alpha * (u_right - u_left))
    return winv[None, :, None] * (vol
                                  - fhat[1:, None, :] * r[None, :, None]
                                  + fhat[:-1, None, :] * l[None, :, None])


def llf_alpha(problem, u, bdata):
    """Global Lax-Friedrichs bound: max |F'(.)| over all nodal and boundary states."""
    states = [np.asarray(u, dtype=float).reshape(-1)]
    for vals in bdata.sides().values():
        states.append(np.atleast_1d(np.asarray(vals, dtype=float)).reshape(-1))
    allstates = np.concatenate(states)
    if problem.dim == 1:
        return float(np.max(np.abs(problem.fprime(allstates))))
    return float(max(np.max(np.abs(problem.f1prime(allstates))),
                     np.max(np.abs(problem.f2prime(allstates)))))


def explicit_rhs(u, t, bdata, problem, mesh, basis, coords=None):
    """The xi part of the semidiscretization: -div F(u) + h(u, x, t)."""
    if coords is None:
        coords = mesh.node_coords(basis)
    if mesh.dim == 1:
        rhs = np.zeros_like(np.asarray(u, dtype=float))
        if problem.f is not None:
            alpha = llf_alpha(problem, u, bdata)
            S, winv = _line_matrices(basis, mesh.dx)
            rhs += _convection_lines(
                u[:, :, None], problem.f, alpha,
                np.atleast_1d(float(bdata.west)), np.atleast_1d(float(bdata.east)),
                S, winv, basis.phi_right, basis.phi_left)[:, :, 0]
        if problem.has_source():
            rhs += problem.source(u, coords, t)
        return rhs

    n, m, p = mesh.n, mesh.m, basis.p
    u = np.asarray(u, dtype=float)
    rhs = np.zeros_like(u)
    alpha = llf_alpha(problem, u, bdata)
    if problem.f1 is not None:
        S, winv = _line_matrices(basis, mesh.dx)
        ux = u.transpose(0, 2, 1, 3).reshape(n, p, m * p)
        cx = _convection_lines(ux, problem.f1, alpha,
                               np.asarray(bdata.west, dtype=float).reshape(-1),
                               np.asarray(bdata.east, dtype=float).reshape(-1),
                               S, winv, basis.phi_right, basis.phi_left)
        rhs += cx.reshape(n, p, m, p).transpose(0, 2, 1, 3)
    if problem.f2 is not None:
        S, winv = _line_matrices(basis, mesh.dy)
        uy = u.transpose(1, 3, 0, 2).reshape(m, p, n * p)
        cy = _convection_lines(uy, problem.f2, alpha,
                               np.asarray(bdata.south, dtype=float).reshape(-1),
                               np.asarray(bdata.north, dtype=float).reshape(-1),
                               S, winv, basis.phi_right, basis.phi_left)
        rhs += cy.reshape(m, p, n, p).transpose(2, 0, 3, 1)
    if problem.has_source():
        rhs += problem.source(u, coords, t)
    return rhs


def norms(u, exact, mesh, basis, t):
    """(L1, L2, Linf) of u - exact over the mesh, by Gauss quadrature.

    The pointwise error is sampled at the quadrature nodes (which are also
    the nodal points), L1/L2 use the per-cell rule, Linf is the node max.
    """
    w = basis.weights
    if mesh.dim == 1:
        e = np.asarray(u, dtype=float) - exact(mesh.node_coords(basis), t)
        jac = 0.5 * mesh.dx
        l1 = jac * float(np.einsum('q,iq->', w, np.abs(e)))
        l2 = float(np.sqrt(jac * np.einsum('q,iq->', w, e * e)))
        return l1, l2, float(np.max(np.abs(e)))
    x, y = mesh.node_coords(basis)
    e = np.asarray(u, dtype=float) - exact(x, y, t)
    jac = 0.25 * mesh.dx * mesh.dy
    l1 = jac * float(np.einsum('q,r,ijqr->', w, w, np.abs(e)))
    l2 = float(np.sqrt(jac * np.einsum('q,r,ijqr->', w, w, e * e)))
    return l1, l2, float(np.max(np.abs(e)))
