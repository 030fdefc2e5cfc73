"""An independent reference for the LDG discretization and the IMEX step.

Every operator here is written cell by cell, face by face or point by
point, with its own quadrature and bookkeeping, so it shares no kernel
with ldgimex.  The tests check the solver's kernels and whole steps
against it at bounds stated in ulps of the terms summed, which hold in
any summation order, so on any BLAS core.

- cell_loop_operator: one axis's K, Kb, L and Gb filled one cell block at
  a time; axis_operators, global_L and boundary_vector put the axes
  together into the mesh's L and g_b.
- gradient_oracle, diffusion_oracle, convection_oracle: the 1D weak forms
  rebuilt per cell with a 20-point Gauss rule and explicit traces.
  Collocation on the k+1 Gauss nodes is exact for every integrand
  involved (degree <= 2k+1), so the solver and these agree to roundoff.
- along_lines runs a 1D oracle on every grid line of a mesh, the face
  data its outside states; explicit_rhs, the LLF right-hand side
  -div F(u) + h, runs convection_oracle so.
- face_derivatives and PerFaceTreatedBoundary: the 2D face recovery of
  one face by one einsum per term, and the treated controller with one
  recovery and one corrector per face.
- imex_step: one IMEX step with the dense global L, np.linalg.solve for
  the stage equations and the tableau sums written out, on naive_data
  (omega at the stage times) or a controller's boundary data.

An argument part=np.abs turns an oracle's sums into the sums of the
magnitudes of their terms (states interpolated from |u|): the scale of
their rounding error, which the ulp bounds multiply.
"""

from functools import reduce

import numpy as np
import scipy.sparse as sp

from ldgimex.imex import axis_pairs
from ldgimex.treatment import StageCorrector, treated_boundary

XI20, W20 = np.polynomial.legendre.leggauss(20)


# -- the diffusion operator ---------------------------------------------------

def cell_loop_operator(n, dx, basis, d_coef, penalty):
    """K, Kb, L and Gb of one axis filled one cell block at a time.

    The reference for AxisOperator's L and Gb: the same traces and
    penalty, written into lil matrices cell by cell, with L = d Ddiv K + P
    and Gb = d Ddiv Kb + Pb formed by sparse products.
    """
    p = basis.p
    w = basis.weights
    S = basis.diff_matrix.T * w
    winv = 2.0 / (dx * w)
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
            diag += rr
        else:
            Kb[sl, 1] = winv * r
        if i > 0:
            K[sl, slice((i - 1) * p, i * p)] = rows(-lr)
        else:
            Kb[sl, 0] = -winv * l
        K[sl, sl] = rows(diag)

        ddiag = -S - ll
        if i < n - 1:
            Ddiv[sl, slice((i + 1) * p, (i + 2) * p)] = rows(rl)
        else:
            ddiag = ddiag + rr
            P[sl, sl] = -d_coef * penalty * rows(rr)
            Pb[sl, 1] = d_coef * penalty * winv * r
        Ddiv[sl, sl] = rows(ddiag)

    K = K.tocsr()
    Ddiv = Ddiv.tocsr()
    return {'K': K, 'Kb': Kb, 'L': (d_coef * (Ddiv @ K) + P).tocsr(),
            'Gb': d_coef * (Ddiv @ Kb) + Pb}


def axis_operators(mesh, basis, d_coef):
    """cell_loop_operator of every mesh axis, with the penalty 1/width of
    the other axis in 2D and 1/dx in 1D (the widths reversed)."""
    widths = [ax.dx for ax in mesh.axes][::-1]
    return [cell_loop_operator(ax.n, ax.dx, basis, d_coef, 1.0 / w)
            for ax, w in zip(mesh.axes, widths)]


def global_L(mesh, basis, d_coef):
    """The global L of axis_operators in the flat dof order: the Kronecker
    sum of the axes' L, in 1D the axis's L itself."""
    ops = axis_operators(mesh, basis, d_coef)
    # kronsum(A, B) runs A's index fastest: fold from the last axis
    return reduce(sp.kronsum, [op['L'] for op in ops[::-1]]).tocsr()


def boundary_vector(ops, bdata, part=np.asarray):
    """g_b in the flat dof order: each axis's whole Gb @ [low; high] along
    every grid line, summed."""
    grid = tuple(len(op['Gb']) for op in ops)
    g = 0.0
    for a, (op, pair) in enumerate(zip(ops, bdata)):
        front = (a,) + tuple(b for b in range(len(grid)) if b != a)
        term = part(op['Gb']) @ part(np.array(pair)).reshape(2, -1)
        term = term.reshape([grid[b] for b in front])
        g = g + term.transpose(np.argsort(front))
    return np.reshape(g, -1)


# -- 1D weak forms by a 20-point rule -----------------------------------------

def _phi_tables(basis):
    eye = np.eye(basis.p)
    phi = basis.values(eye, XI20)              # (p, 20): row a = phi_a(xi)
    dphi = basis.derivative_values(eye, XI20, 1)
    return phi, dphi


def _exact_mass(basis, dx):
    phi, _ = _phi_tables(basis)
    return 0.5 * dx * np.einsum('q,aq,bq->ab', W20, phi, phi)


def _cell_values(basis, u_cell):
    """Interpolant of one cell's nodal values at the 20 oracle points."""
    return basis.values(u_cell, XI20)


def gradient_oracle(u, omw, ome, mesh, basis):
    """Weak q = u_x with alternating traces, assembled cell by cell.

    u~ is the left cell's right trace at interior faces and the boundary
    datum at both exterior faces.
    """
    n, p = u.shape
    phi, dphi = _phi_tables(basis)
    mass = _exact_mass(basis, mesh.dx)
    phi_r = basis.values(np.eye(p), 1.0)
    phi_l = basis.values(np.eye(p), -1.0)
    q = np.zeros_like(u)
    for i in range(n):
        ue = float(phi_r @ u[i]) if i < n - 1 else ome
        uw = float(phi_r @ u[i - 1]) if i > 0 else omw
        vol = np.einsum('q,q,mq->m', W20, _cell_values(basis, u[i]), dphi)
        rhs = -vol + ue * phi_r - uw * phi_l
        q[i] = np.linalg.solve(mass, rhs)
    return q


def diffusion_oracle(u, omw, ome, mesh, basis, d_coef, penalty=None):
    """d * weak div(q) with q~ from the right cell and the east penalty.

    q~ is the right cell's left trace at interior faces and at the west
    exterior face; the east exterior face inverts to the cell's own right
    trace minus the penalty s (u^- - omega_e), s = 1/dx unless given.
    """
    n, p = u.shape
    q = gradient_oracle(u, omw, ome, mesh, basis)
    phi, dphi = _phi_tables(basis)
    mass = _exact_mass(basis, mesh.dx)
    phi_r = basis.values(np.eye(p), 1.0)
    phi_l = basis.values(np.eye(p), -1.0)
    s = 1.0 / mesh.dx if penalty is None else penalty
    out = np.zeros_like(u)
    for i in range(n):
        if i < n - 1:
            qe = float(phi_l @ q[i + 1])
        else:
            qe = float(phi_r @ q[i]) - s * (float(phi_r @ u[i]) - ome)
        qw = float(phi_l @ q[i])
        vol = np.einsum('q,q,mq->m', W20, _cell_values(basis, q[i]), dphi)
        rhs = -vol + qe * phi_r - qw * phi_l
        out[i] = d_coef * np.linalg.solve(mass, rhs)
    return out


def convection_oracle(u, omw, ome, flux, alpha, mesh, basis, part=np.asarray):
    """Weak -d/dx F(u) with the Lax-Friedrichs trace flux (part: see the
    module docstring)."""
    n, p = u.shape
    phi, dphi = (part(table) for table in _phi_tables(basis))
    mass = _exact_mass(basis, mesh.dx)
    phi_r = part(basis.values(np.eye(p), 1.0))
    phi_l = part(basis.values(np.eye(p), -1.0))
    u = part(u)
    left = np.empty(n + 1)
    right = np.empty(n + 1)
    left[0], right[-1] = part(omw), part(ome)
    for i in range(n):
        right[i] = float(phi_l @ u[i])
        left[i + 1] = float(phi_r @ u[i])
    fhat = sum(map(part, (0.5 * flux(left), 0.5 * flux(right),
                          -0.5 * alpha * right, 0.5 * alpha * left)))
    out = np.zeros_like(u)
    for i in range(n):
        vol = np.einsum('q,q,mq->m', W20, part(flux(u[i] @ phi)), dphi)
        rhs = vol + part(-fhat[i + 1] * phi_r) + part(fhat[i] * phi_l)
        out[i] = np.linalg.solve(mass, rhs)
    return out


# -- the explicit right-hand side ---------------------------------------------

def llf_bound(problem, u, bdata):
    """The LLF bound: max |f_a'| over one vector joining the field and
    every face value, over the axes with a flux (0 without one)."""
    states = np.concatenate([np.ravel(u)] + [np.ravel(pair)
                                             for pair in bdata])
    return max((float(np.abs(fp(states)).max())
                for f, fp, _ in problem.fluxes if f is not None),
               default=0.0)


def along_lines(u, bdata, mesh, oracles):
    """The sum over the axes a of oracles[a](line, low, high), a 1D
    operator run on every grid line along axis a with that line's face
    data, into a field of u's shape; an axis whose oracle is None adds
    nothing."""
    out = np.zeros(np.shape(u))
    for a, (oracle, (low, high)) in enumerate(zip(oracles, bdata)):
        if oracle is None:
            continue
        # the axis's (cell, node) pair first, a line's (cell, node) of the
        # other axis, as its face data are indexed, after it
        lines = np.moveaxis(u, (2 * a, 2 * a + 1), (0, 1))
        dest = np.moveaxis(out, (2 * a, 2 * a + 1), (0, 1))
        faces = lines.shape[2:]
        low, high = np.reshape(low, faces), np.reshape(high, faces)
        for line in np.ndindex(faces):
            at = (slice(None), slice(None)) + line
            dest[at] += oracle(lines[at], low[line], high[line])
    return out


def explicit_rhs(u, t, bdata, problem, mesh, basis, part=np.asarray):
    """-div F(u) + h(u, x, t): convection_oracle along every grid line of
    every axis with a flux, with the LLF bound of all the states, plus the
    source at the node coordinates."""
    u = np.asarray(u, dtype=float)
    alpha = llf_bound(problem, u, bdata)
    out = along_lines(u, bdata, mesh, [
        None if f is None else
        lambda v, low, high, f=f, ax=ax: convection_oracle(
            v, low, high, f, alpha, ax, basis, part)
        for ax, (f, _, _) in zip(mesh.axes, problem.fluxes)])
    if problem.h is not None:
        out += part(problem.h(u, *mesh.node_coords(basis), t))
    return out


# -- the 2D face recovery -----------------------------------------------------

def face_derivatives(mesh, basis, face, field):
    """grad = [u_x, u_y], hess = [[u_xx, u_xy], [u_xy, u_yy]] and
    grad_lap = [u_xxx + u_yyx, u_xxy + u_yyy] at every point of one face
    of a 2D mesh, each (cells along the face, p), by one einsum per term.

    The field is oriented (cells n, cells t, nodes n, nodes t), the face's
    inward normal n first and its boundary low: normal derivatives are
    the boundary cell's own (u_n, u_nn, u_nt) or a second difference over
    the three cells nearest the face (u_nnn, and the -3/4/-1 one-sided
    first difference in u_nnt and u_ttn); tangential ones differ per-cell
    samples, centered inside and one-sided at the face's ends
    (np.gradient, edge_order=2).
    """
    p = basis.p
    f = np.asarray(field, dtype=float).reshape(
        mesh.x.n, p, mesh.y.n, p).transpose(0, 2, 1, 3)
    dn, dt = mesh.x.dx, mesh.y.dx
    normal, tangent = 'x', 'y'
    if face in ('south', 'north'):
        f = f.transpose(1, 0, 3, 2)
        dn, dt, normal, tangent = dt, dn, tangent, normal
    flip = face in ('east', 'north')
    if flip:
        f = f[::-1, :, ::-1, :]
    eye = np.eye(p)
    e0 = np.ravel(basis.values(eye, -1.0))
    e1, e2 = (np.ravel(basis.derivative_values(eye, -1.0, k))
              * (2.0 / dn) ** k for k in (1, 2))
    d1, d2 = (np.asarray(basis.derivative_values(eye, basis.nodes, k)).T
              * (2.0 / dt) ** k for k in (1, 2))
    x = np.einsum('m,ajmq->ajq', e1, f[:3])
    y = np.einsum('m,ajmn,qn->ajq', e0, f[:3], d1)
    inner = (y[0][2:] - 2.0 * y[0][1:-1] + y[0][:-2]) / dt ** 2
    cn = np.array([-3.0, 4.0, -1.0]) / (2.0 * dn)
    local = dict(
        n=x[0], t=y[0],
        nn=np.einsum('m,jmq->jq', e2, f[0]),
        tt=np.einsum('m,jmn,qn->jq', e0, f[0], d2),
        nt=np.einsum('m,jmn,qn->jq', e1, f[0], d1),
        nnn=(x[0] - 2.0 * x[1] + x[2]) / dn ** 2,
        ttt=np.concatenate([inner[:1], inner, inner[-1:]]),
        nnt=sum(c * np.gradient(v, dt, axis=0, edge_order=2)
                for c, v in zip(cn, x)),
        ttn=sum(c * np.gradient(v, dt, axis=0, edge_order=2)
                for c, v in zip(cn, y)))
    # x/y names, each odd count of derivatives along a reversed normal
    # negated
    sg = -1.0 if flip else 1.0
    n, t = normal, tangent
    u = {'u_' + n: sg * local['n'], 'u_' + t: local['t'],
         'u_' + 2 * n: local['nn'], 'u_' + 2 * t: local['tt'],
         'u_xy': sg * local['nt'], 'u_' + 3 * n: sg * local['nnn'],
         'u_' + 3 * t: local['ttt'], 'u_' + 2 * n + t: local['nnt'],
         'u_' + 2 * t + n: sg * local['ttn']}
    return (np.array([u['u_x'], u['u_y']]),
            np.array([[u['u_xx'], u['u_xy']], [u['u_xy'], u['u_yy']]]),
            np.array([u['u_xxx'] + u['u_yyx'], u['u_xxy'] + u['u_yyy']]))


class PerFaceTreatedBoundary:
    """The 2D treated controller with one StageCorrector per face, each
    fed that face's traces and its face_derivatives."""

    def __init__(self, problem, mesh, basis, tableau):
        # the sampler of treatment's controller, whose one point set the
        # faces split
        self.sampler = treated_boundary(problem, mesh, basis,
                                        tableau).sampler
        self.mesh, self.basis = mesh, basis
        self.stages = tableau.stages
        self.correctors = [StageCorrector(problem, tableau, 3, 'stagewise')
                           for _ in self.sampler.sides]

    def _recover(self, u):
        return [face_derivatives(self.mesh, self.basis, face, u)
                for face in self.sampler.sides]

    def prepare(self, t0, tau, nsteps):
        self.sampler.prepare(t0, tau, nsteps)

    def begin_step(self, u, t, tau):
        traces, = self.sampler.step(t, tau)
        faces = [{} for _ in self.sampler.sides]
        for key, samples in traces.items():
            by_stage = [self.sampler.split([v]) for v in samples]
            for k, face in enumerate(faces):
                face[key] = np.array([split[k] for split in by_stage])
        for corr, rec, face in zip(self.correctors, self._recover(u), faces):
            corr.begin(rec, tau, face)

    def stage_data(self, i):
        return axis_pairs([corr.stage_value(i) for corr in self.correctors])

    def observe_stage(self, i, u_stage):
        if i < 1 or i >= self.stages - 1:
            return
        for corr, rec in zip(self.correctors, self._recover(u_stage)):
            corr.observe(i, rec)


# -- one IMEX step ------------------------------------------------------------

def naive_data(problem, mesh, basis, t):
    """omega at time t at every boundary point, one (low, high) pair per
    axis."""
    sides = [problem.omega(*points, t)
             for points in mesh.boundary_points(basis).values()]
    return tuple(zip(sides[::2], sides[1::2]))


def imex_step(u, t, tau, problem, mesh, basis, tableau, controller=None):
    """One IMEX step from (u, t): stage i solves (I - tau a_ii L) u_i =
    acc_i + tau a_ii g_b by np.linalg.solve on the dense global L, its
    implicit rate is psi_i = L u_i + g_b and its explicit one xi_i =
    explicit_rhs, with acc_i and the update the tableau sums over them.
    The boundary data are naive_data at the stage times, or a
    controller's, driven as the integrator drives it."""
    ops = axis_operators(mesh, basis, problem.d_coef)
    L = global_L(mesh, basis, problem.d_coef).toarray()
    u0 = np.reshape(u, -1)
    c, s = tableau.c, tableau.stages
    a_ex, a_im = tableau.a_ex, tableau.a_im
    if controller is not None:
        controller.begin_step(u, t, tau)
    xi, psi = [], []
    for i in range(s):
        bd = (naive_data(problem, mesh, basis, t + c[i] * tau)
              if controller is None else controller.stage_data(i))
        g = boundary_vector(ops, bd)
        acc = u0 + tau * sum(a_ex[i, j] * xi[j] + a_im[i, j] * psi[j]
                             for j in range(i))
        ui = np.linalg.solve(np.eye(len(u0)) - tau * a_im[i, i] * L,
                             acc + tau * a_im[i, i] * g)
        field = ui.reshape(np.shape(u))
        if i and controller is not None:
            controller.observe_stage(i, field)
        psi.append(L @ ui + g)
        xi.append(explicit_rhs(field, t + c[i] * tau, bd, problem, mesh,
                               basis).reshape(-1))
    return (u0 + tau * sum(tableau.b_ex[i] * xi[i] + tableau.b_im[i] * psi[i]
                           for i in range(s))).reshape(np.shape(u))
