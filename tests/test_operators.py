"""LDG operators against the independent reference and energy/exactness laws.

The reference (tests/reference.py) rebuilds every weak integral per cell
with a 20-point Gauss rule and explicit trace bookkeeping, and each axis's
K, Kb, L and Gb by a cell-by-cell lil assembly (cell_loop_operator), so it
shares nothing with the kernels it checks.  Each axis operator's L and Gb
are held bitwise to the cell loop, which no BLAS call sums on either side;
the explicit RHS, 1D and 2D, to the oracles run along every grid line, and
the boundary vector to the dense product with each axis's whole Gb, both
within a few ulps of the magnitudes of the terms summed, so on any BLAS
core; the boundary vector also bitwise to those whole columns added
elementwise in its one order.  Two live kernels are held to each other
too: the block-tridiagonal kernel of a linear flux to the general one run
on the same flux as callables, and the one-line 1D kernels bitwise to the
batch kernels on one line.  The solver holds L only in the basis of its
stage solves (Diffusion.shifted) and never forms q, so the tests take the
global L from the reference (global_L) and apply it (diffusion_apply,
diffusion_gradient); they build explicit_rhs's coordinates and line
matrices from the mesh (mesh_explicit_rhs), and check the reference's LLF
face flux (reference.lax_friedrichs), which the kernels inline.
"""

import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from ldgimex import imex
from ldgimex.imex import ImexIntegrator
from ldgimex.mesh import build_mesh
from ldgimex.operators import (Diffusion, LineMatrices, _convection_lines,
                               _flux_line, _linear_line, _linear_lines,
                               build_diffusion, explicit_rhs, llf_alpha,
                               norms)
from ldgimex.problems import ProblemSpec, _linear_flux, builtin_problem
from ldgimex.quadrature import build_basis, interpolate

EPS = np.finfo(float).eps


# -- numerical flux ----------------------------------------------------------

def test_lax_friedrichs_consistency():
    # the reference's face flux (tests/reference.py), which the kernels are
    # held to, is f(u) between equal states
    f = lambda u: 0.5 * u * u
    for u in (-1.3, 0.0, 0.7):
        assert abs(ref.lax_friedrichs(u, u, f, 2.0) - f(u)) < 1e-15


@given(ul=st.floats(-2, 2), ur=st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_lax_friedrichs_monotone_for_large_alpha(ul, ur):
    # with alpha >= sup|f'| the flux rises in the left state and falls in
    # the right one
    f = lambda u: 0.5 * u * u
    alpha = 2.0
    eps = 1e-6
    base = ref.lax_friedrichs(ul, ur, f, alpha)
    assert ref.lax_friedrichs(ul + eps, ur, f, alpha) >= base - 1e-12
    assert ref.lax_friedrichs(ul, ur + eps, f, alpha) <= base + 1e-12


def test_llf_alpha_includes_boundary_states():
    prob = builtin_problem('burgers1d')      # f' = u
    u = np.zeros((4, 3))
    bdata = ((0.5, -3.0),)
    assert abs(llf_alpha(prob, u, bdata) - 3.0) < 1e-15


# -- gradient / diffusion vs brute force -------------------------------------

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
@pytest.mark.parametrize("n", [1, 2, 3, 17, 160])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_axis_operators_equal_the_cell_loop_bitwise(k, n, d):
    # 1D: penalty 1/dx; 2D on an n x 5 mesh: 1/dy along x, 1/dx along y
    basis = build_basis(k)
    one = Diffusion(build_mesh((-1.0, 1.5), n), basis, d)
    two = Diffusion(build_mesh(((-1.0, 1.5), (0.0, 0.7)), (n, 5)), basis, d)
    for diff in (one, two):
        for op, want in zip(diff.axes, ref.axis_operators(diff.mesh, basis,
                                                          d), strict=True):
            assert_same_csr(op.L, want['L'])
            assert np.array_equal(op.Gb, want['Gb'])
    assert_same_csr(one.shifted, ref.global_L(one.mesh, basis, d))
    # two.axes hold bitwise the cell loop's Lx and Ly: so are their
    # eigenvalues, and 2D shifted is the diagonal of their sum, x slowest
    lx, ly = (op.eigenbasis()[0] for op in two.axes)
    assert_same_csr(two.shifted,
                    sp.diags((lx[:, None] + ly).ravel(), format='csr'))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_diffusion_matrix_has_no_stored_zeros_and_sorted_indices(k):
    # SuperLU orders by structure: a stored zero from a block would move
    # the pivots, and at heat1d_o4's roundoff floor the errors with them
    basis = build_basis(k)
    for mesh in (build_mesh((-1.0, 1.0), 9),
                 build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (4, 3))):
        diff = Diffusion(mesh, basis, 1.3)
        assert_canonical(diff.shifted)
        for op in diff.axes:
            assert_canonical(op.L)


def diffusion_apply(diff, u, bdata):
    """The full diffusive RHS L u + g_b of a Diffusion, as a field."""
    L = ref.global_L(diff.mesh, diff.basis, diff.d_coef)
    return (L @ np.reshape(u, -1) + diff.gb(bdata)).reshape(diff.shape)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_matvec_is_the_global_product(k):
    # through the eigenbases of Lx and Ly in 2D, on a non-square mesh
    # with dx != dy; in 1D the maps are the identity and the product is L's
    # own, bitwise, in CSR or CSC
    basis = build_basis(k)
    rng = np.random.default_rng(k)
    for mesh in (build_mesh((0.0, 1.0), 5),
                 build_mesh(((0.0, 1.0), (-1.0, 2.0)), (5, 7))):
        diff = Diffusion(mesh, basis, 0.3)
        L = ref.global_L(mesh, basis, 0.3)
        v = rng.standard_normal(L.shape[0])
        got = diff.matvec(v)
        if mesh.dim == 1:
            assert diff.to_basis(v) is v and diff.from_basis(v) is v
            assert np.array_equal(got, L @ v)
            assert np.array_equal(got, L.tocsc() @ v)
        else:
            want = L @ v
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_2d_basis_maps_invert_each_other_and_diagonalize_L(k):
    # on a non-square mesh with dx != dy: the two maps undo each other, in
    # the basis every dof is an eigenvector of L (shifted stores one entry
    # a row, on the diagonal), and from_basis carries each to its own
    # eigenvector of the global L
    basis = build_basis(k)
    rng = np.random.default_rng(k)
    mesh = build_mesh(((0.0, 1.0), (-1.0, 2.0)), (5, 7))
    assert mesh.dx != mesh.dy
    diff = Diffusion(mesh, basis, 0.3)
    L = ref.global_L(mesh, basis, 0.3)
    ndof = L.shape[0]
    v = rng.standard_normal(ndof)
    back = diff.from_basis(diff.to_basis(v))
    assert np.linalg.norm(back - v) <= 1e-13 * np.linalg.norm(v)
    shifted = diff.shifted
    assert shifted.shape == (ndof, ndof)
    assert np.array_equal(shifted.indptr, np.arange(ndof + 1))
    assert np.array_equal(shifted.indices, np.arange(ndof))
    w = rng.standard_normal(ndof)
    want = diff.from_basis(shifted @ w)
    got = L @ diff.from_basis(w)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("cells,calls", [((6, 6), 1), ((8, 6), 2)],
                         ids=['square', '8x6'])
def test_equal_axes_share_one_eigenbasis(monkeypatch, cells, calls):
    # axes of equal (n, dx) have bitwise equal L, so one eigh serves both;
    # shifted is bitwise the diagonal of each axis's own eigenvalues, and
    # each axis keeps its own operator
    eigh = np.linalg.eigh
    shapes = []

    def counted(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, 'eigh', counted)
    mesh = build_mesh(((-1.0, 1.0), (0.0, 2.0)), cells)
    diff = Diffusion(mesh, build_basis(2), 0.7)
    assert len(shapes) == calls
    monkeypatch.undo()
    assert diff.axes[0] is not diff.axes[1]
    lx, ly = (op.eigenbasis()[0] for op in diff.axes)
    want = sp.diags((lx[:, None] + ly).ravel(), format='csr')
    assert_same_csr(diff.shifted, want)
    assert diff.shifted.indices.dtype == want.indices.dtype
    assert diff.shifted.indptr.dtype == want.indptr.dtype


def diffusion_gradient(diff, u, bdata):
    """Auxiliary fields q_a = weak d/dx_a of u with the alternating traces,
    one per axis (a 1-tuple in 1D): each axis's K u + Kb [low; high] on
    every grid line along it, with the axis's K and Kb from the cell loop
    (the solver forms only L and Gb)."""
    dim = len(diff.axes)
    grid = tuple(ax.n * diff.basis.p for ax in diff.mesh.axes)
    field = np.reshape(u, grid)
    out = []
    for a, (op, pair) in enumerate(zip(
            ref.axis_operators(diff.mesh, diff.basis, diff.d_coef), bdata)):
        front = (a,) + tuple(b for b in range(dim) if b != a)
        q = (op['K'] @ field.transpose(front).reshape(grid[a], -1)
             + op['Kb'] @ np.array(pair).reshape(2, -1))
        q = q.reshape([grid[b] for b in front]).transpose(np.argsort(front))
        out.append(q.reshape(diff.shape))
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
    want = ref.gradient_oracle(u, omw, ome, mesh, basis)
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
    want = ref.diffusion_oracle(u, omw, ome, mesh, basis, d)
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
    u = rng.standard_normal((n, p, m, p))       # (cell, node) per axis
    bdata = ((rng.standard_normal((m, p)), rng.standard_normal((m, p))),
             (rng.standard_normal((n, p)), rng.standard_normal((n, p))))
    got = diffusion_apply(Diffusion(mesh, basis, d), u, bdata)
    want = ref.along_lines(u, bdata, mesh, [
        lambda v, low, high, ax=ax, s=s: ref.diffusion_oracle(
            v, low, high, ax, basis, d, penalty=s)
        for ax, s in ((mesh.x, 1.0 / mesh.dy), (mesh.y, 1.0 / mesh.dx))])
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
        rate = float(np.einsum('qr,iqjr,iqjr->', mass, u,
                               diffusion_apply(diff, u, zero)))
        assert rate <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_axis_operators_are_self_adjoint_in_the_mass_product(k):
    # the premise of the 2D stage solve: M L is symmetric, so each L has
    # a real eigenbasis whose conditioning sqrt(w_max / w_min) does not
    # depend on the cell count (the mesh is non-square with dx != dy)
    basis = build_basis(k)
    mesh = build_mesh(((0.0, 1.0), (-1.0, 2.0)), (5, 7))
    w = basis.weights
    for op, ax in zip(Diffusion(mesh, basis, 0.3).axes, mesh.axes):
        L = op.L.toarray()
        ML = np.tile(0.5 * ax.dx * w, ax.n)[:, None] * L
        assert np.linalg.norm(ML - ML.T) <= 1e-13 * np.linalg.norm(ML)
        lam, vec, vinv = op.eigenbasis()
        assert lam.max() < 0.0
        np.testing.assert_allclose(vinv @ vec, np.eye(len(lam)),
                                   rtol=0, atol=1e-13)
        assert (np.linalg.norm(vec * lam @ vinv - L)
                <= 1e-13 * np.linalg.norm(L))
        assert np.linalg.cond(vec) == pytest.approx(
            np.sqrt(w.max() / w.min()), rel=1e-12)


def test_build_diffusion_dispatch():
    basis = build_basis(2)
    prob1 = builtin_problem('heat1d')
    prob2 = builtin_problem('heat2d')
    assert isinstance(build_diffusion(build_mesh(prob1.bounds, 4),
                                      basis, prob1), Diffusion)
    assert isinstance(build_diffusion(build_mesh(prob2.bounds, (4, 4)),
                                      basis, prob2), Diffusion)


# -- convective RHS vs brute force -------------------------------------------

def mesh_explicit_rhs(u, t, bdata, problem, mesh, basis, axes=None):
    """explicit_rhs with the node coordinates, and unless given the line
    matrices (one LineMatrices per axis), built from the mesh."""
    if axes is None:
        axes = [LineMatrices(basis, ax.dx) for ax in mesh.axes]
    return explicit_rhs(u, t, bdata, problem, mesh, mesh.node_coords(basis),
                        axes)


def test_explicit_rhs_constant_state_is_silent():
    # constant field + matching data: fluxes telescope and the volume term
    # cancels the face term exactly, for nonlinear f too
    prob = builtin_problem('burgers1d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 5)
    c = 0.37
    u = np.full((5, basis.p), c)
    bdata = ((c, c),)
    got = mesh_explicit_rhs(u, 0.5, bdata, prob, mesh, basis)
    want = prob.p(*mesh.node_coords(basis), 0.5) * c   # only the source acts
    np.testing.assert_allclose(got, want, atol=1e-13, rtol=0)


@pytest.mark.parametrize("bounds,cells", [((-1.0, 1.0), 5),
                                          (((-1.0, 1.0), (0.0, 1.0)), (4, 3))],
                         ids=['1d', '2d'])
def test_explicit_rhs_without_a_flux_is_the_source(bounds, cells):
    # no axis has a flux: the output is the source itself, a new C-ordered
    # field of u's shape
    def h(u, *xt):
        return np.cos(xt[0]) * u + xt[-1]

    prob = ProblemSpec('source', bounds, 1.0, 1.0, 0.25, 2, h=h)
    basis = build_basis(2)
    mesh = build_mesh(bounds, cells)
    u = interpolate(lambda *x: np.sin(sum(x)), mesh, basis)
    bdata = ((0.0, 0.0),) * mesh.dim
    got = mesh_explicit_rhs(u, 0.3, bdata, prob, mesh, basis)
    assert got is not u and got.shape == u.shape and got.flags.c_contiguous
    assert np.array_equal(got, h(u, *mesh.node_coords(basis), 0.3))


# -- explicit RHS and boundary vector against the reference -------------------

_BURGERS = (lambda u: 0.5 * u * u, lambda u: u, lambda u: 1.0 + 0.0 * u)


def _burgers_2d():
    prob = copy.copy(builtin_problem('heat2d'))
    prob.fluxes = (_BURGERS, _BURGERS)
    return prob


def _random_state(mesh, basis, diff, rng):
    u = rng.standard_normal(diff.shape)
    if mesh.dim == 1:
        return u, (tuple(rng.standard_normal(2)),)
    return u, tuple((rng.standard_normal((m, basis.p)),
                     rng.standard_normal((m, basis.p)))
                    for m in (mesh.m, mesh.n))


def _float_faces(bdata):
    """A 1D mesh's face data as Python floats, as the naive sampler and
    the stage corrector pass them."""
    (low, high), = bdata
    return ((float(low), float(high)),)


@pytest.mark.parametrize("name", ['heat1d', 'burgers1d', 'heat1d_o4',
                                  'heat2d', 'burgers2d', 'two-speeds-2d'])
def test_explicit_rhs_matches_the_reference(name):
    # every kernel, through LineMatrices and AxisOperator, on random states
    # and the exact solution, within 128 ulps of the magnitudes of the
    # terms summed: the oracles sum 20 quadrature terms an entry, the
    # solver p, and 53 ulps is the most seen, on the SkylakeX and Haswell
    # cores alike.  two-speeds-2d's speeds (0.3, -1.2) set alpha = 1.2 >
    # 0.3 along x, where both neighbour blocks and both outside rows apply
    if name == 'two-speeds-2d':
        prob = _linear_and_callable(name)[0]
    elif name == 'burgers2d':
        prob = _burgers_2d()
    else:
        prob = builtin_problem(name)
    basis = build_basis(prob.degree)
    rng = np.random.default_rng(71)
    for cells in (3, 40, 160) if prob.dim == 1 else ((5, 3), (3, 6)):
        mesh = build_mesh(prob.bounds, cells)
        diff = Diffusion(mesh, basis, prob.d_coef)
        states = [_random_state(mesh, basis, diff, rng) for _ in range(3)]
        smooth = interpolate(lambda *x: prob.exact(*x, 0.3), mesh, basis)
        for u, bdata in states + [(smooth, states[0][1])]:
            want = ref.explicit_rhs(u, 0.3, bdata, prob, mesh, basis)
            terms = ref.explicit_rhs(u, 0.3, bdata, prob, mesh, basis,
                                     part=np.abs)
            for axes in (None, diff.axes):
                got = mesh_explicit_rhs(u, 0.3, bdata, prob, mesh, basis,
                                        axes=axes)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 128 * EPS * terms), cells


@pytest.mark.parametrize("name", ['heat1d', 'burgers1d', 'heat1d_o4'])
def test_explicit_rhs_1d_reads_float_faces_as_float64(name):
    # the naive sampler and the stage corrector pass a 1D mesh's face data
    # as Python floats, the treated controllers as np.float64: the same
    # bytes, at the reference test's cells, states and exact solution
    prob = builtin_problem(name)
    basis = build_basis(prob.degree)
    rng = np.random.default_rng(71)
    for cells in (3, 40, 160):
        mesh = build_mesh(prob.bounds, cells)
        diff = Diffusion(mesh, basis, prob.d_coef)
        states = [_random_state(mesh, basis, diff, rng) for _ in range(3)]
        smooth = interpolate(lambda x: prob.exact(x, 0.3), mesh, basis)
        for u, bdata in states + [(smooth, states[0][1])]:
            for axes in (None, diff.axes):
                got = mesh_explicit_rhs(u, 0.3, bdata, prob, mesh, basis,
                                        axes=axes)
                floats = mesh_explicit_rhs(u, 0.3, _float_faces(bdata), prob,
                                           mesh, basis, axes=axes)
                assert floats.tobytes() == got.tobytes(), cells


@pytest.mark.parametrize("make,cells", [
    (lambda: builtin_problem('heat1d'), 9),
    (lambda: builtin_problem('burgers1d'), 7),
    (lambda: builtin_problem('heat2d'), (5, 3)),
    (_burgers_2d, (3, 6)),
], ids=['linear-1d', 'burgers-1d', 'linear-2d', 'burgers-2d'])
def test_explicit_rhs_reads_both_layouts_into_the_flat_buffer(
        monkeypatch, make, cells):
    # the integrator's field, a view of a flat vector, and a copy of it in
    # Fortran order give equal results, each a new C-ordered field; the
    # integrator's flat xi is the very buffer explicit_rhs filled, with no
    # copy in between
    prob = make()
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, cells)
    integ = ImexIntegrator(prob, mesh, basis)
    diff = integ.diffusion
    rng = np.random.default_rng(73)
    view = rng.standard_normal(diff.shifted.shape[0]).reshape(diff.shape)
    _, bdata = _random_state(mesh, basis, diff, rng)
    args = (0.4, bdata, prob, mesh, integ.coords, diff.axes)
    got = explicit_rhs(view, *args)
    assert got.shape == diff.shape and got.flags.c_contiguous
    assert np.array_equal(got, explicit_rhs(np.asfortranarray(view), *args))
    filled = []

    def recording(*call):
        filled.append(explicit_rhs(*call))
        return filled[-1]

    monkeypatch.setattr(imex, 'explicit_rhs', recording)
    xi = integ._xi(view, 0.4, bdata)
    assert np.shares_memory(xi, filled[0])
    assert np.array_equal(xi, got.reshape(-1))


@pytest.mark.parametrize("cells", [(1,), (2,), (3,), (8,), (4, 3), (3, 5),
                                   (2, 4), (1, 3), (40,), (3, 2), (4, 1)])
def test_boundary_vector_matches_the_dense_map(cells):
    # each axis's whole Gb from the cell loop, times its face data: a new
    # C-ordered vector; the end blocks meet along x at (2, 4) and (1, 3),
    # along y at (3, 2) and (4, 1).  Added elementwise in gb's one order,
    # each axis's low column then its high one, x before y, the whole
    # columns give gb's bytes: the zeros off the end blocks add as the
    # identity, and no BLAS call sums
    rng = np.random.default_rng(41)
    mesh = build_mesh(((-1.0, 1.0),) * len(cells), cells)
    for k in (2, 3):
        basis = build_basis(k)
        diff = Diffusion(mesh, basis, 0.7)
        ops = ref.axis_operators(mesh, basis, 0.7)
        for _ in range(5):
            bdata = _random_state(mesh, basis, diff, rng)[1]
            got, want = diff.gb(bdata), ref.boundary_vector(ops, bdata)
            assert got.shape == want.shape and got.flags.c_contiguous
            ordered = np.zeros(diff.shape)
            for a, (op, pair) in enumerate(zip(ops, bdata)):
                across = diff.shape[:2 * a] + diff.shape[2 * a + 2:]
                for column, face in zip(op['Gb'].T, pair):
                    ordered += np.moveaxis(np.multiply.outer(
                        column.reshape(-1, k + 1), np.reshape(face, across)),
                        (0, 1), (2 * a, 2 * a + 1))
            assert got.tobytes() == ordered.tobytes()
            if min(ax.n for ax in mesh.axes) >= 3:
                assert np.array_equal(got, want)
            else:
                # a cell block that both columns of Gb reach sums two
                # products in another order: a few ulps of the terms
                terms = ref.boundary_vector(ops, bdata, part=np.abs)
                assert np.all(np.abs(got - want) <= 4 * np.spacing(terms))


@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_boundary_vector_1d_reads_float_faces_as_float64(n):
    # face data as Python floats (the naive sampler and the stage
    # corrector) and as np.float64 give the same bytes, a new C-ordered
    # vector, where the two end blocks meet (one and two cells) too
    rng = np.random.default_rng(43)
    mesh = build_mesh((-1.0, 1.0), n)
    for k in (2, 3):
        diff = Diffusion(mesh, build_basis(k), 0.7)
        for _ in range(5):
            bdata = _random_state(mesh, diff.basis, diff, rng)[1]
            got = diff.gb(bdata)
            floats = diff.gb(_float_faces(bdata))
            assert floats.flags.c_contiguous and floats is not got
            assert floats.tobytes() == got.tobytes(), (n, k)


# -- the linear-flux kernel against the general one ---------------------------

def _callable_flux(c):
    """The flux c u as callables with no .speed: explicit_rhs takes it
    through _convection_lines and llf_alpha scans the states for it."""
    return (lambda u: c * u, lambda u: c + 0.0 * u, lambda u: 0.0 * u)


# (problem, cells, one speed per axis, None for burgers' flux)
LINEAR_CASES = {
    'heat1d': ('heat1d', 9, (-0.1,)),
    'forward-1d': ('heat1d_o4', 6, (0.7,)),
    'heat2d': ('heat2d', (5, 3), (-0.1, -0.1)),
    'two-speeds-2d': ('heat2d', (4, 6), (0.3, -1.2)),
    'mixed-2d': ('heat2d', (3, 5), (0.4, None)),
}


def _linear_and_callable(case):
    """The case's problem with its linear fluxes as numbers and as
    callables, and its cells."""
    name, cells, speeds = LINEAR_CASES[case]
    specs = []
    for linear in (_linear_flux, _callable_flux):
        prob = copy.copy(builtin_problem(name))
        prob.fluxes = tuple(_BURGERS if c is None else linear(c)
                            for c in speeds)
        specs.append(prob)
    return specs[0], specs[1], cells


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_linear_kernel_matches_the_general_kernel(case):
    # the same fluxes, as numbers (the block-tridiagonal kernel) and as
    # callables without .speed (_convection_lines)
    linear, general, cells = _linear_and_callable(case)
    assert linear.speeds[0] is not None and general.speeds[0] is None
    basis = build_basis(linear.degree)
    mesh = build_mesh(linear.bounds, cells)
    diff = Diffusion(mesh, basis, linear.d_coef)
    rng = np.random.default_rng(53)
    for _ in range(3):
        u, bdata = _random_state(mesh, basis, diff, rng)
        want = mesh_explicit_rhs(u, 0.4, bdata, general, mesh, basis)
        for axes in (None, diff.axes):
            got = mesh_explicit_rhs(u, 0.4, bdata, linear, mesh, basis,
                                    axes=axes)
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-13, err


@pytest.mark.parametrize("c,alpha", [(-0.4, 0.4), (0.4, 0.4), (-0.3, 1.7),
                                     (0.9, 2.5), (0.0, 0.6)])
def test_linear_lines_match_convection_lines(c, alpha):
    # alpha > |c| as a mixed problem's other axis makes it; B = 4 lines,
    # laid out as (B, n, p) rows and as (n, p, B) columns, written into a
    # buffer and added into one
    rng = np.random.default_rng(59)
    for k, n in ((2, 1), (2, 7), (3, 5)):
        mats = LineMatrices(build_basis(k), 0.3)
        u = rng.standard_normal((4, n, k + 1))
        low, high = rng.standard_normal((2, 4))
        want = np.empty_like(u)
        _convection_lines(u, _callable_flux(c)[0], alpha, low, high, mats,
                          want, True)
        base = rng.standard_normal(u.shape)
        for nodes_last in (True, False):
            lines = u if nodes_last else np.ascontiguousarray(
                u.transpose(1, 2, 0))
            for first, start in ((True, np.empty_like(lines)),
                                 (False, base if nodes_last else
                                  np.ascontiguousarray(
                                      base.transpose(1, 2, 0)))):
                out = start.copy()
                _linear_lines(lines, c, alpha, low, high, mats, out, first,
                              nodes_last)
                if not first:
                    out -= start
                if not nodes_last:
                    out = out.transpose(2, 0, 1)
                err = np.max(np.abs(out - want)) / np.max(np.abs(want))
                assert err <= 1e-13, (k, n, nodes_last, first, err)


def _kernel_cases(rng):
    """(mats, lines, low, high, base, nodes_last) for n = 1, 2 and 7 cells
    of B = 5 lines at k = 2 and 3, in both layouts: (B, n, p) with
    nodes_last and (n, p, B) without; base is a random start for the
    added-into mode."""
    for k, n in ((2, 1), (2, 2), (2, 7), (3, 1), (3, 2), (3, 7)):
        mats = LineMatrices(build_basis(k), 0.3)
        u = rng.standard_normal((5, n, k + 1))
        base = rng.standard_normal(u.shape)
        low, high = rng.standard_normal((2, 5))
        for nodes_last in (True, False):
            lay = ((lambda a: a) if nodes_last else
                   (lambda a: np.ascontiguousarray(a.transpose(1, 2, 0))))
            yield mats, lay(u), low, high, lay(base), nodes_last


@pytest.mark.parametrize("c,alpha", [(-0.4, 0.4), (0.4, 0.4), (-0.3, 1.7),
                                     (0.0, 0.0)])
def test_one_line_kernels_are_bitwise_the_lines_kernels(c, alpha):
    # a 1D mesh's one line with float outside states, through the
    # one-line kernels and through the batch kernels on one line; alpha
    # > |c| (both neighbours) does not arise in 1D but is handled alike
    flux = _callable_flux(c)[0]
    for mats, lines, low, high, _, nodes_last in _kernel_cases(
            np.random.default_rng(97)):
        if not nodes_last:
            continue
        line, ends = lines[0], (float(low[0]), float(high[0]))
        want = np.empty(lines[:1].shape)
        _linear_lines(lines[:1], c, alpha, low[:1], high[:1], mats, want,
                      True, True)
        assert np.array_equal(_linear_line(line, c, alpha, *ends, mats),
                              want[0]), line.shape
        _convection_lines(lines[:1], flux, alpha, low[:1], high[:1], mats,
                          want, True)
        assert np.array_equal(_flux_line(line, flux, alpha, *ends, mats),
                              want[0]), line.shape


@pytest.mark.parametrize("c", [-0.4, 0.4])
def test_linear_lines_skip_the_upwind_zero_blocks(monkeypatch, c):
    # at alpha = |c| the block and outside-state row of the downwind
    # neighbour are zero; poisoned with NaN they must not be read
    for mats, lines, low, high, base, nodes_last in _kernel_cases(
            np.random.default_rng(89)):
        blocks = list(LineMatrices.llf_blocks(mats, c, abs(c)))
        # m_low and b_low against the flow when c < 0, else m_high, b_high
        zero = (1, 3) if c < 0 else (2, 4)
        for i in zero:
            assert not np.any(blocks[i])
            blocks[i] = np.full_like(blocks[i], np.nan)
        monkeypatch.setattr(mats, 'llf_blocks', lambda *_: tuple(blocks))
        for first in (True, False):
            out = base.copy()
            _linear_lines(lines, c, abs(c), low, high, mats, out, first,
                          nodes_last)
            assert np.all(np.isfinite(out)), (lines.shape, nodes_last, first)


@pytest.mark.parametrize("case", ['heat1d', 'heat2d', 'two-speeds-2d'])
def test_constant_speed_alpha_reads_no_state(case):
    # bitwise the scanned bound of the same fluxes as callables, and never
    # reads u or the face data
    linear, general, cells = _linear_and_callable(case)
    basis = build_basis(linear.degree)
    mesh = build_mesh(linear.bounds, cells)
    u, bdata = _random_state(mesh, basis, Diffusion(mesh, basis, 1.0),
                             np.random.default_rng(61))
    scanned = llf_alpha(general, u, bdata)
    assert llf_alpha(linear, u, bdata) == scanned
    assert scanned == max(abs(c) for c in linear.speeds)
    nan = np.full_like(u, np.nan)
    assert llf_alpha(linear, nan, [(np.nan, np.nan)] * mesh.dim) == scanned


@pytest.mark.parametrize("case", ['burgers1d', 'burgers2d', 'flux-free-y'])
def test_scanned_alpha_is_bitwise_the_concatenated_scan(case):
    # the field and each face pair scanned apart give the one scan's
    # bound bit for bit: 1D float faces, 2D face arrays, and a 2D problem
    # with an axis without a flux; a NaN in any state gives NaN
    if case == 'burgers1d':
        prob, cells = builtin_problem('burgers1d'), 7
    else:
        prob, cells = _burgers_2d(), (4, 5)
        if case == 'flux-free-y':
            prob.fluxes = (_BURGERS, (None, None, None))
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, cells)
    diff = Diffusion(mesh, basis, prob.d_coef)
    rng = np.random.default_rng(71)
    for scale in (1.0, 4.0):     # the larger faces hold the peak
        u, bdata = _random_state(mesh, basis, diff, rng)
        bdata = tuple(tuple(scale * np.asarray(v) if mesh.dim == 2
                            else float(scale * v) for v in pair)
                      for pair in bdata)
        want = ref.llf_bound(prob, u, bdata)
        got = llf_alpha(prob, u, bdata)
        assert type(got) is float and got.hex() == want.hex(), scale
    assert np.isnan(llf_alpha(prob, np.full_like(u, np.nan), bdata))
    low, high = bdata[-1]
    if mesh.dim == 1:
        faces = ((low, np.nan),)
    else:
        faces = bdata[:-1] + ((low, np.where(high > 0, np.nan, high)),)
    assert np.isnan(llf_alpha(prob, u, faces))


def test_linear_blocks_are_memoized_for_one_bound_only():
    linear, _, cells = _linear_and_callable('mixed-2d')
    basis = build_basis(linear.degree)
    mesh = build_mesh(linear.bounds, cells)
    diff = Diffusion(mesh, basis, linear.d_coef)
    mats = diff.axes[0]
    rng = np.random.default_rng(67)
    # a callable flux on the other axis moves alpha at every call
    alphas = set()
    for _ in range(40):
        u, bdata = _random_state(mesh, basis, diff, rng)
        mesh_explicit_rhs(u, 0.1, bdata, linear, mesh, basis, axes=diff.axes)
        alpha = llf_alpha(linear, u, bdata)
        alphas.add(alpha)
        key, blocks = mats._llf_memo
        assert key == (0.4, alpha) and len(blocks) == 5
    assert len(alphas) == 40
    assert diff.axes[1]._llf_memo == (None, None)     # its flux is callable
    # a fixed bound builds the blocks once
    heat = builtin_problem('heat2d')
    heat_diff = Diffusion(mesh, basis, heat.d_coef)
    built = []
    for _ in range(3):
        u, bdata = _random_state(mesh, basis, heat_diff, rng)
        mesh_explicit_rhs(u, 0.1, bdata, heat, mesh, basis,
                          axes=heat_diff.axes)
        built.append([op._llf_memo[1] for op in heat_diff.axes])
    assert all(b is first for later in built[1:]
               for b, first in zip(later, built[0]))


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
