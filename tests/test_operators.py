"""LDG operators against brute-force weak forms and energy/exactness laws.

The oracle rebuilds every weak integral per cell with an independent
20-point Gauss rule and explicit trace bookkeeping, so it shares nothing
with the sparse assembly it checks. Collocation on (k+1) Gauss nodes is
exact for all the integrands involved (degree <= 2k+1), so assembled and
brute-force results must agree to roundoff.  The block assembly of the
axis operators is also held bitwise to a cell-by-cell lil assembly
(cell_loop_operator), the explicit RHS to the per-axis einsum kernel it
replaced (einsum_explicit_rhs) and the boundary vector to the dense
product with each axis's whole Gb.  The solver never applies L to a
field or forms q, so the tests do (diffusion_apply, diffusion_gradient),
and they keep the LLF flux formula (lax_friedrichs) that the convective
kernel inlines.
"""

import copy
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ldgimex.mesh import build_mesh
from ldgimex.operators import (Diffusion, LineMatrices, build_diffusion,
                               explicit_rhs, llf_alpha, norms)
from ldgimex.problems import builtin_problem
from ldgimex.quadrature import build_basis, interpolate

XI20, W20 = np.polynomial.legendre.leggauss(20)


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


def convection_oracle(u, omw, ome, flux, alpha, mesh, basis):
    """Weak -d/dx F(u) with the Lax-Friedrichs trace flux."""
    n, p = u.shape
    phi, dphi = _phi_tables(basis)
    mass = _exact_mass(basis, mesh.dx)
    phi_r = basis.values(np.eye(p), 1.0)
    phi_l = basis.values(np.eye(p), -1.0)
    left = np.empty(n + 1)
    right = np.empty(n + 1)
    left[0], right[-1] = omw, ome
    for i in range(n):
        right[i] = float(phi_l @ u[i])
        left[i + 1] = float(phi_r @ u[i])
    fhat = 0.5 * (flux(left) + flux(right) - alpha * (right - left))
    out = np.zeros_like(u)
    for i in range(n):
        vol = np.einsum('q,q,mq->m', W20, flux(_cell_values(basis, u[i])),
                        dphi)
        rhs = vol - fhat[i + 1] * phi_r + fhat[i] * phi_l
        out[i] = np.linalg.solve(mass, rhs)
    return out


# -- numerical flux ----------------------------------------------------------

def lax_friedrichs(u_in, u_out, normal, flux, alpha):
    """Local Lax-Friedrichs numerical flux in the direction of `normal`.

    F~ . n = 1/2 [ (F(u_in) + F(u_out)) . n - alpha (u_out - u_in) ]
    with alpha >= sup |F'(u) . n| over the relevant states.  The solver's
    convective kernel inlines this formula.
    """
    return (0.5 * normal * (flux(u_in) + flux(u_out))
            - 0.5 * alpha * (u_out - u_in))


def test_lax_friedrichs_consistency():
    f = lambda u: 0.5 * u * u
    for u in (-1.3, 0.0, 0.7):
        assert abs(lax_friedrichs(u, u, 1.0, f, 2.0) - f(u)) < 1e-15
        assert abs(lax_friedrichs(u, u, -1.0, f, 2.0) + f(u)) < 1e-15


@given(ul=st.floats(-2, 2), ur=st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_lax_friedrichs_monotone_for_large_alpha(ul, ur):
    # with alpha >= sup|f'| the flux rises in u_in and falls in u_out
    f = lambda u: 0.5 * u * u
    alpha = 2.0
    eps = 1e-6
    base = lax_friedrichs(ul, ur, 1.0, f, alpha)
    assert lax_friedrichs(ul + eps, ur, 1.0, f, alpha) >= base - 1e-12
    assert lax_friedrichs(ul, ur + eps, 1.0, f, alpha) <= base + 1e-12


def test_llf_alpha_includes_boundary_states():
    prob = builtin_problem('burgers1d')      # f' = u
    u = np.zeros((4, 3))
    bdata = ((0.5, -3.0),)
    assert abs(llf_alpha(prob, u, bdata) - 3.0) < 1e-15


# -- gradient / diffusion vs brute force -------------------------------------

def cell_loop_operator(n, dx, basis, d_coef, penalty):
    """K, Kb, L and Gb of one axis filled one cell block at a time.

    The reference for the block assembly in AxisOperator: the same
    traces and penalty, written into lil matrices cell by cell.
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


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for part in ('indptr', 'indices', 'data'):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def assert_canonical(mat):
    """No stored zeros and strictly increasing column indices per row."""
    assert np.all(mat.data != 0.0)
    for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:]):
        assert np.all(np.diff(mat.indices[lo:hi]) > 0)


@pytest.mark.parametrize("d", [1.0, 0.37])
@pytest.mark.parametrize("n", [1, 2, 3, 17])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_axis_operators_equal_the_cell_loop_bitwise(k, n, d):
    # 1D: penalty 1/dx; 2D on an n x 5 mesh: 1/dy along x, 1/dx along y
    basis = build_basis(k)
    one = Diffusion(build_mesh((-1.0, 1.5), n), basis, d)
    two = Diffusion(build_mesh(((-1.0, 1.5), (0.0, 0.7)), (n, 5)), basis, d)
    (ax,), (x, y) = one.mesh.axes, two.mesh.axes
    cases = [(one.axes[0], ax, 1.0 / ax.dx),
             (two.axes[0], x, 1.0 / y.dx), (two.axes[1], y, 1.0 / x.dx)]
    refs = []
    for op, axis, penalty in cases:
        want = cell_loop_operator(axis.n, axis.dx, basis, d, penalty)
        for name in ('K', 'L'):
            assert_same_csr(getattr(op, name), want[name])
        for name in ('Kb', 'Gb'):
            assert np.array_equal(getattr(op, name), want[name]), name
        refs.append(want['L'])
    assert_same_csr(one.L, refs[0])
    # kronsum runs its first argument's index fastest: y, then x
    assert_same_csr(two.L, reduce(sp.kronsum, [refs[2], refs[1]]).tocsr())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_diffusion_matrix_has_no_stored_zeros_and_sorted_indices(k):
    # SuperLU orders by structure: a stored zero from a block would move
    # the pivots, and at heat1d_o4's roundoff floor the errors with them
    basis = build_basis(k)
    for mesh in (build_mesh((-1.0, 1.0), 9),
                 build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (4, 3))):
        diff = Diffusion(mesh, basis, 1.3)
        assert_canonical(diff.L)
        for op in diff.axes:
            assert_canonical(op.K)
            assert_canonical(op.L)


def diffusion_apply(diff, u, bdata):
    """The full diffusive RHS L u + g_b of a Diffusion, as a field."""
    return diff.unflatten(diff.L @ diff.flatten(u) + diff.gb(bdata))


def diffusion_gradient(diff, u, bdata):
    """Auxiliary fields q_a = weak d/dx_a of u with the alternating traces,
    one per axis (a 1-tuple in 1D): each axis's K u + Kb [low; high] on
    every grid line along it."""
    dim = len(diff.axes)
    grid = tuple(ax.n * diff.basis.p for ax in diff.mesh.axes)
    field = diff.flatten(u).reshape(grid)
    out = []
    for a, (op, pair) in enumerate(zip(diff.axes, bdata)):
        front = (a,) + tuple(b for b in range(dim) if b != a)
        q = (op.K @ field.transpose(front).reshape(op.K.shape[0], -1)
             + op.Kb @ np.array(pair).reshape(2, -1))
        q = q.reshape([grid[b] for b in front]).transpose(np.argsort(front))
        out.append(diff.unflatten(q))
    return tuple(out)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 7), (3, 5)])
def test_gradient_matches_weak_form_oracle(k, n):
    rng = np.random.default_rng(3 * n + k)
    basis = build_basis(k)
    mesh = build_mesh((-1.0, 1.5), n)
    diff = Diffusion(mesh, basis, 1.7)
    u = rng.standard_normal((n, basis.p))
    omw, ome = rng.standard_normal(2)
    got, = diffusion_gradient(diff, u, ((omw, ome),))
    want = gradient_oracle(u, omw, ome, mesh, basis)
    np.testing.assert_allclose(got, want, atol=1e-11, rtol=0)


@pytest.mark.parametrize("k,n,d", [(2, 4, 2.0), (2, 6, 0.5), (3, 5, 1.0)])
def test_diffusion_apply_matches_weak_form_oracle(k, n, d):
    rng = np.random.default_rng(5 * n + k)
    basis = build_basis(k)
    mesh = build_mesh((0.0, 2.0), n)
    diff = Diffusion(mesh, basis, d)
    u = rng.standard_normal((n, basis.p))
    omw, ome = rng.standard_normal(2)
    got = diffusion_apply(diff, u, ((omw, ome),))
    want = diffusion_oracle(u, omw, ome, mesh, basis, d)
    np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)


def test_diffusion_exact_on_quadratic():
    # u = x^2 with matching boundary data: L u + g_b = d * 2 exactly
    basis = build_basis(2)
    mesh = build_mesh((-1.0, 1.0), 6)
    d = 2.0
    diff = Diffusion(mesh, basis, d)
    u = interpolate(lambda x: x * x, mesh, basis)
    out = diffusion_apply(diff, u, ((1.0, 1.0),))
    np.testing.assert_allclose(out, 2.0 * d, atol=1e-10, rtol=0)
    q, = diffusion_gradient(diff, u, ((1.0, 1.0),))
    x, = mesh.node_coords(basis)
    np.testing.assert_allclose(q, 2.0 * x, atol=1e-11, rtol=0)


def test_diffusion_is_dissipative_with_homogeneous_data():
    # the energy rate u^T M (L u) must be <= 0 for every field; this pins
    # the minus sign of the east-face penalty jump
    rng = np.random.default_rng(11)
    basis = build_basis(2)
    mesh = build_mesh((-1.0, 1.0), 8)
    diff = Diffusion(mesh, basis, 1.0)
    zero = ((0.0, 0.0),)
    mass = 0.5 * mesh.dx * basis.weights
    for _ in range(50):
        u = rng.standard_normal((mesh.n, basis.p))
        rate = float(np.einsum('q,iq,iq->', mass, u,
                               diffusion_apply(diff, u, zero)))
        assert rate <= 1e-10


def test_diffusion_affine_in_field_and_data():
    rng = np.random.default_rng(4)
    basis = build_basis(2)
    mesh = build_mesh((-1.0, 1.0), 5)
    diff = Diffusion(mesh, basis, 1.3)
    u, v = rng.standard_normal((2, mesh.n, basis.p))
    (w1, e1), (w2, e2) = (0.3, -0.8), (-1.1, 0.4)
    b1, b2 = ((w1, e1),), ((w2, e2),)
    lhs = diffusion_apply(diff, 2.0 * u - 3.0 * v,
                          ((2 * w1 - 3 * w2, 2 * e1 - 3 * e2),))
    rhs = (2.0 * diffusion_apply(diff, u, b1)
           - 3.0 * diffusion_apply(diff, v, b2))
    np.testing.assert_allclose(lhs, rhs, atol=1e-11, rtol=0)


def test_diffusion_2d_exact_on_quadratics():
    basis = build_basis(2)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (4, 5))
    d = 1.5
    diff = Diffusion(mesh, basis, d)
    x, y = mesh.node_coords(basis)

    def poly(x, y):
        return x * x * y * y + 2.0 * x * y - y * y

    def lap(x, y):
        return 2.0 * y * y + 2.0 * x * x - 2.0

    u = poly(x, y)
    bdata = _dirichlet_2d(poly, mesh, basis)
    out = diffusion_apply(diff, u, bdata)
    np.testing.assert_allclose(out, d * lap(x, y), atol=1e-9, rtol=0)
    q1, q2 = diffusion_gradient(diff, u, bdata)
    np.testing.assert_allclose(q1, 2 * x * y * y + 2 * y, atol=1e-9, rtol=0)
    np.testing.assert_allclose(q2, 2 * x * x * y + 2 * x - 2 * y,
                               atol=1e-9, rtol=0)


def _dirichlet_2d(fn, mesh, basis):
    xn, = mesh.x.node_coords(basis)
    yn, = mesh.y.node_coords(basis)
    return ((fn(mesh.x.a, yn), fn(mesh.x.b, yn)),
            (fn(xn, mesh.y.a), fn(xn, mesh.y.b)))


def test_diffusion_2d_matches_dimension_split_oracle():
    # each x line is the 1D operator with penalty 1/dy, each y line the 1D
    # operator with penalty 1/dx; a non-square mesh with random data tells
    # the two scales apart
    basis = build_basis(2)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (4, 3))
    rng = np.random.default_rng(24)
    n, m, p, d = mesh.n, mesh.m, basis.p, 1.3
    u = rng.standard_normal((n, m, p, p))
    bdata = ((rng.standard_normal((m, p)), rng.standard_normal((m, p))),
             (rng.standard_normal((n, p)), rng.standard_normal((n, p))))
    (west, east), (south, north) = bdata
    got = diffusion_apply(Diffusion(mesh, basis, d), u, bdata)
    want = np.zeros_like(u)
    for j in range(m):
        for q2 in range(p):
            want[:, j, :, q2] += diffusion_oracle(
                u[:, j, :, q2], west[j, q2], east[j, q2], mesh.x,
                basis, d, penalty=1.0 / mesh.dy)
    for i in range(n):
        for q1 in range(p):
            want[i, :, q1, :] += diffusion_oracle(
                u[i, :, q1, :], south[i, q1], north[i, q1],
                mesh.y, basis, d, penalty=1.0 / mesh.dx)
    np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)


def test_diffusion_2d_dissipative():
    rng = np.random.default_rng(12)
    basis = build_basis(2)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (4, 4))
    diff = Diffusion(mesh, basis, 1.0)
    w2 = np.einsum('q,r->qr', basis.weights, basis.weights)
    mass = 0.25 * mesh.dx * mesh.dy * w2
    zero = ((np.zeros((4, 3)), np.zeros((4, 3))),
            (np.zeros((4, 3)), np.zeros((4, 3))))
    for _ in range(20):
        u = rng.standard_normal(diff.shape)
        rate = float(np.einsum('qr,ijqr,ijqr->', mass, u,
                               diffusion_apply(diff, u, zero)))
        assert rate <= 1e-10


def test_build_diffusion_dispatch():
    basis = build_basis(2)
    prob1 = builtin_problem('heat1d')
    prob2 = builtin_problem('heat2d')
    assert isinstance(build_diffusion(build_mesh(prob1.bounds, 4),
                                      basis, prob1), Diffusion)
    assert isinstance(build_diffusion(build_mesh(prob2.bounds, (4, 4)),
                                      basis, prob2), Diffusion)


# -- convective RHS vs brute force -------------------------------------------

def test_explicit_rhs_linear_flux_matches_oracle():
    prob = builtin_problem('heat1d')        # f = -0.1 u, p = D - 1 = 1
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 6)
    rng = np.random.default_rng(21)
    u = rng.standard_normal((6, basis.p))
    omw, ome = rng.standard_normal(2)
    bdata = ((omw, ome),)
    t = 0.7
    got = explicit_rhs(u, t, bdata, prob, mesh, basis)
    alpha = llf_alpha(prob, u, bdata)
    want = convection_oracle(u, omw, ome, prob.fluxes[0][0], alpha, mesh,
                             basis)
    want += u
    np.testing.assert_allclose(got, want, atol=1e-11, rtol=0)


def test_explicit_rhs_nonlinear_flux_matches_oracle():
    prob = builtin_problem('burgers1d')     # f = u^2 / 2
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 5)
    rng = np.random.default_rng(22)
    u = rng.standard_normal((5, basis.p))
    omw, ome = rng.standard_normal(2)
    bdata = ((omw, ome),)
    t = 1.2
    got = explicit_rhs(u, t, bdata, prob, mesh, basis)
    alpha = llf_alpha(prob, u, bdata)
    want = convection_oracle(u, omw, ome, prob.fluxes[0][0], alpha, mesh,
                             basis)
    want += prob.p(*mesh.node_coords(basis), t) * u
    np.testing.assert_allclose(got, want, atol=1e-11, rtol=0)


def test_explicit_rhs_constant_state_is_silent():
    # constant field + matching data: fluxes telescope and the volume term
    # cancels the face term exactly, for nonlinear f too
    prob = builtin_problem('burgers1d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 5)
    c = 0.37
    u = np.full((5, basis.p), c)
    bdata = ((c, c),)
    got = explicit_rhs(u, 0.5, bdata, prob, mesh, basis)
    want = prob.p(*mesh.node_coords(basis), 0.5) * c   # only the source acts
    np.testing.assert_allclose(got, want, atol=1e-13, rtol=0)


def test_explicit_rhs_2d_matches_dimension_split_oracle():
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, (4, 3))
    rng = np.random.default_rng(23)
    n, m, p = mesh.n, mesh.m, basis.p
    u = rng.standard_normal((n, m, p, p))
    bdata = ((rng.standard_normal((m, p)), rng.standard_normal((m, p))),
             (rng.standard_normal((n, p)), rng.standard_normal((n, p))))
    (west, east), (south, north) = bdata
    t = 0.3
    got = explicit_rhs(u, t, bdata, prob, mesh, basis)
    alpha = llf_alpha(prob, u, bdata)
    want = np.zeros_like(u)
    # x-direction: each (j, m2) line is a 1D convection problem
    for j in range(m):
        for q2 in range(p):
            line = u[:, j, :, q2]
            want[:, j, :, q2] += convection_oracle(
                line, west[j, q2], east[j, q2], prob.fluxes[0][0],
                alpha, mesh.x, basis)
    for i in range(n):
        for q1 in range(p):
            line = u[i, :, q1, :]
            want[i, :, q1, :] += convection_oracle(
                line, south[i, q1], north[i, q1], prob.fluxes[1][0],
                alpha, mesh.y, basis)
    want += u                               # p = 2 D - 1 = 1
    np.testing.assert_allclose(got, want, atol=1e-11, rtol=0)


# -- explicit RHS and boundary vector against the code they replaced ----------

def einsum_convection_lines(u, flux, alpha, bw, be, mats):
    """The convective RHS on (n, p, B) cell lines by three einsums, as
    explicit_rhs computed it before its lines became (n, B, p) rows."""
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


def einsum_explicit_rhs(u, t, bdata, problem, mesh, basis):
    """-div F(u) + h, one einsum_convection_lines call per axis."""
    dim = len(mesh.axes)
    alpha = llf_alpha(problem, u, bdata)
    out = problem.h(u, *mesh.node_coords(basis), t)
    for a, (ax, (f, _, _), (low, high)) in enumerate(
            zip(mesh.axes, problem.fluxes, bdata)):
        own = (a, a + dim)
        front = own + tuple(i for i in range(2 * dim) if i not in own)
        lines = u.transpose(front)
        conv = einsum_convection_lines(
            lines.reshape(ax.n, basis.p, -1), f, alpha, np.ravel(low),
            np.ravel(high), LineMatrices(basis, ax.dx))
        out = out + conv.reshape(lines.shape).transpose(np.argsort(front))
    return out


def _burgers_2d():
    prob = copy.copy(builtin_problem('heat2d'))
    burgers = (lambda u: 0.5 * u * u, lambda u: u, lambda u: 1.0 + 0.0 * u)
    prob.fluxes = (burgers, burgers)
    return prob


@pytest.mark.parametrize("make,cells", [
    (lambda: builtin_problem('heat1d'), 9),
    (lambda: builtin_problem('burgers1d'), 7),
    (lambda: builtin_problem('heat2d'), (5, 3)),
    (_burgers_2d, (3, 6)),
], ids=['linear-1d', 'burgers-1d', 'linear-2d', 'burgers-2d'])
def test_explicit_rhs_matches_the_einsum_kernel(make, cells):
    prob = make()
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, cells)
    rng = np.random.default_rng(31)
    diff = Diffusion(mesh, basis, prob.d_coef)
    u = rng.standard_normal(diff.shape)
    if mesh.dim == 1:
        bdata = (tuple(rng.standard_normal(2)),)
    else:
        bdata = ((rng.standard_normal((mesh.m, basis.p)),
                  rng.standard_normal((mesh.m, basis.p))),
                 (rng.standard_normal((mesh.n, basis.p)),
                  rng.standard_normal((mesh.n, basis.p))))
    want = einsum_explicit_rhs(u, 0.4, bdata, prob, mesh, basis)
    for axes in (None, diff.axes):
        got = explicit_rhs(u, 0.4, bdata, prob, mesh, basis, axes=axes)
        assert got.shape == want.shape
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-14, err


def _dense_gb(diff, bdata, part=np.asarray):
    """Each axis's whole part(Gb) @ part([low; high]) along every grid
    line, summed (part=np.abs gives the magnitude of the terms)."""
    grid = tuple(ax.n * diff.basis.p for ax in diff.mesh.axes)
    g = 0.0
    for a, (op, pair) in enumerate(zip(diff.axes, bdata)):
        front = (a,) + tuple(b for b in range(len(grid)) if b != a)
        term = part(op.Gb) @ part(np.array(pair)).reshape(2, -1)
        term = term.reshape([grid[b] for b in front])
        g = g + term.transpose(np.argsort(front))
    return np.reshape(g, -1)


@pytest.mark.parametrize("cells", [(1,), (2,), (3,), (8,), (4, 3), (3, 5),
                                   (2, 4), (1, 3)])
def test_boundary_vector_matches_the_dense_map(cells):
    rng = np.random.default_rng(41)
    mesh = build_mesh(((-1.0, 1.0),) * len(cells), cells)
    for k in (2, 3):
        basis = build_basis(k)
        diff = Diffusion(mesh, basis, 0.7)
        for _ in range(5):
            if mesh.dim == 1:
                bdata = (tuple(rng.standard_normal(2)),)
            else:
                bdata = tuple((rng.standard_normal((m, k + 1)),
                               rng.standard_normal((m, k + 1)))
                              for m in (mesh.m, mesh.n))
            got, want = diff.gb(bdata), _dense_gb(diff, bdata)
            if min(ax.n for ax in mesh.axes) >= 3:
                assert np.array_equal(got, want)
            else:
                # a cell block that both columns of Gb reach sums two
                # products in another order: a few ulps of the terms
                terms = _dense_gb(diff, bdata, part=np.abs)
                assert np.all(np.abs(got - want) <= 4 * np.spacing(terms))


# -- norms --------------------------------------------------------------------

def test_norms_against_hand_integrals():
    # u - exact = x^2 + 1 (positive, degree 4 products still integrate
    # exactly): L1 = 8/3, L2 = sqrt(56/15), Linf = max over the nodes
    basis = build_basis(2)
    mesh = build_mesh((-1.0, 1.0), 7)
    u = interpolate(lambda x: x * x + 1.0, mesh, basis)
    e1, e2, einf = norms(u, lambda x, t: np.zeros_like(x), mesh, basis, 0.0)
    assert abs(e1 - 8.0 / 3.0) < 1e-12
    assert abs(e2 - np.sqrt(56.0 / 15.0)) < 1e-12
    xs, = mesh.node_coords(basis)
    assert abs(einf - np.max(xs * xs + 1.0)) < 1e-14


def test_norms_2d_against_hand_integrals():
    # u - exact = (x^2 + 1)(y^2 + 1) over [-1,1]^2:
    # L1 = (8/3)^2, L2 = sqrt((56/15)^2)
    basis = build_basis(2)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (3, 4))
    u = interpolate(lambda x, y: (x * x + 1) * (y * y + 1), mesh, basis)
    zero = lambda x, y, t: np.zeros_like(x)
    e1, e2, einf = norms(u, zero, mesh, basis, 0.0)
    assert abs(e1 - (8.0 / 3.0) ** 2) < 1e-12
    assert abs(e2 - 56.0 / 15.0) < 1e-12
    x, y = mesh.node_coords(basis)
    assert abs(einf - np.max((x * x + 1) * (y * y + 1))) < 1e-14
