"""Tableau identities, IMEX stepping mechanics, degenerate limits, and whole
steps against the dense reference step (tests/reference.py)."""

import copy
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ldgimex import imex
from ldgimex.imex import (ImexIntegrator, ImexTableau, NaiveBoundary,
                          builtin_tableau, validate_tableau)
from ldgimex.mesh import build_mesh
from ldgimex.operators import explicit_rhs
from ldgimex.problems import ProblemSpec, builtin_problem
from ldgimex.quadrature import build_basis, interpolate
from ldgimex.treatment import treated_boundary
from reference import global_L, imex_step
from test_operators import mesh_explicit_rhs

TOL = 1e-12
SPLU = spla.splu        # the real factorization, kept from monkeypatching


# -- tableau data --------------------------------------------------------------

@pytest.mark.parametrize("name", ["ark3", "ark4"])
def test_tableau_structure_and_row_sums(name):
    tab = builtin_tableau(name)
    s = tab.stages
    assert tab.c[0] == 0.0
    assert np.max(np.abs(np.triu(tab.a_ex))) == 0.0
    assert np.max(np.abs(np.triu(tab.a_im, 1))) == 0.0
    assert tab.a_im[0, 0] == 0.0
    assert np.all(np.abs(np.diag(tab.a_im)[1:] - tab.a_im[1, 1]) < TOL)
    for A in (tab.a_ex, tab.a_im):
        np.testing.assert_allclose(A.sum(axis=1), tab.c, atol=TOL, rtol=0)
    assert s == (4 if name == 'ark3' else 6)


@pytest.mark.parametrize("name", ["ark3", "ark4"])
def test_tableau_order_three_conditions(name):
    tab = builtin_tableau(name)
    c = tab.c
    for b in (tab.b_ex, tab.b_im):
        assert abs(b.sum() - 1.0) < TOL
        assert abs(b @ c - 0.5) < TOL
        assert abs(b @ c ** 2 - 1.0 / 3.0) < TOL
        for W in (tab.a_ex, tab.a_im):
            assert abs(b @ W @ c - 1.0 / 6.0) < TOL


def test_ark4_order_four_conditions_including_coupling():
    tab = builtin_tableau('ark4')
    c = tab.c
    parts = (tab.a_ex, tab.a_im)
    for b in (tab.b_ex, tab.b_im):
        assert abs(b @ c ** 3 - 0.25) < TOL
        for W in parts:
            assert abs((b * c) @ (W @ c) - 1.0 / 8.0) < TOL
            assert abs(b @ W @ c ** 2 - 1.0 / 12.0) < TOL
            for V in parts:
                assert abs(b @ W @ V @ c - 1.0 / 24.0) < TOL


def test_tableau_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown tableau"):
        builtin_tableau('rk7')


def test_validate_accepts_builtins_and_empty():
    assert validate_tableau(builtin_tableau('ark3'))
    assert validate_tableau(builtin_tableau('ark4'))
    empty = ImexTableau('empty', [], np.zeros((0, 0)), np.zeros((0, 0)),
                        [], [])
    assert validate_tableau(empty)


def test_validate_rejects_broken_tableaus():
    tab = builtin_tableau('ark3')

    def clone(**patch):
        kw = dict(c=tab.c.copy(), a_ex=tab.a_ex.copy(),
                  a_im=tab.a_im.copy(), b_ex=tab.b_ex.copy(),
                  b_im=tab.b_im.copy())
        kw.update(patch)
        return ImexTableau('bad', kw['c'], kw['a_ex'], kw['a_im'],
                           kw['b_ex'], kw['b_im'])

    bad = tab.a_ex.copy()
    bad[0, 1] = 0.1
    with pytest.raises(ValueError, match="strictly lower"):
        validate_tableau(clone(a_ex=bad))

    bad = tab.a_im.copy()
    bad[0, 0] = 0.1
    with pytest.raises(ValueError, match="first implicit stage"):
        validate_tableau(clone(a_im=bad))

    bad = tab.a_ex.copy()
    bad[2, 0] += 1e-3
    with pytest.raises(ValueError, match="row 2 sums"):
        validate_tableau(clone(a_ex=bad))

    bad = tab.b_im.copy()
    bad[1] += 1e-3
    with pytest.raises(ValueError, match="b_im fails"):
        validate_tableau(clone(b_im=bad))

    with pytest.raises(ValueError, match="has shape"):
        validate_tableau(clone(b_ex=tab.b_ex[:-1].copy()))


# -- scheme order on a split scalar ODE ----------------------------------------

def _imex_scalar(tab, lam, mu, T, n):
    """Reference additive RK loop for u' = lam u (implicit) + mu u (explicit)."""
    tau = T / n
    u = 1.0
    s = tab.stages
    for _ in range(n):
        xi = np.zeros(s)
        psi = np.zeros(s)
        for i in range(s):
            acc = u
            for j in range(i):
                acc += tau * (tab.a_ex[i, j] * xi[j] + tab.a_im[i, j] * psi[j])
            aii = tab.a_im[i, i]
            ui = acc / (1.0 - tau * aii * lam) if aii else acc
            xi[i] = mu * ui
            psi[i] = lam * ui
        u = u + tau * float(tab.b_ex @ xi + tab.b_im @ psi)
    return u


@pytest.mark.parametrize("name,lam,mu,T,floor",
                         [("ark3", -2.0, 0.7, 1.0, 2.8),
                          ("ark4", -1.0, 0.5, 2.0, 3.7)])
def test_scalar_ode_convergence_order(name, lam, mu, T, floor):
    tab = builtin_tableau(name)
    exact = np.exp((lam + mu) * T)
    errs = [abs(_imex_scalar(tab, lam, mu, T, n) - exact)
            for n in (8, 16, 32)]
    orders = [np.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
    assert min(orders) >= floor, (errs, orders)


# -- the PDE integrator ---------------------------------------------------------

def _heat_setup(n=8, tableau=None, name='heat1d'):
    prob = builtin_problem(name)
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, n)
    integ = ImexIntegrator(prob, mesh, basis, tableau=tableau)
    u0 = interpolate(lambda *x: prob.exact(*x, 0.0), mesh, basis)
    return prob, mesh, basis, integ, u0


def test_constant_state_is_a_fixed_point():
    c = 0.73
    prob = ProblemSpec('const', (-1.0, 1.0), 1.5, 1.0, 0.25, 2,
                       fluxes=[-0.4],
                       exact=lambda x, t: c * np.ones_like(
                           np.asarray(x, dtype=float)))
    basis = build_basis(2)
    mesh = build_mesh(prob.bounds, 6)
    integ = ImexIntegrator(prob, mesh, basis)
    u0 = np.full((6, basis.p), c)
    u, info = integ.integrate(u0, 0.0, 1.0, 0.05)
    assert info['steps'] == 20
    np.testing.assert_allclose(u, c, atol=1e-12, rtol=0)


class _Residuals:
    """A factor of the matrix a whose solves record their relative
    residual |r - a u| / |r|, r and u the right-hand side and solution
    mapped by back (the identity unless given)."""

    def __init__(self, a, lu, residuals, back=lambda v: v):
        self._a, self._lu, self._residuals = a, lu, residuals
        self._back = back

    def solve(self, rhs):
        x = self._lu.solve(rhs)
        r, u = self._back(rhs), self._back(x)
        self._residuals.append(np.linalg.norm(r - self._a @ u)
                               / np.linalg.norm(r))
        return x


def _record_splu(monkeypatch, keywords=True):
    """Route the integrator's splu through a recorder.

    Returns the list that collects (matrix, keywords, factor) per call
    and the list that collects the relative residual of every solve with
    those factors: in 2D against the diagonal matrix handed to splu, not
    the stage matrix (see _record_stage_residuals).  With keywords=False
    every keyword argument is dropped, so the factor is SuperLU's default
    one.
    """
    made = []
    residuals = []

    def splu(a, **kw):
        lu = SPLU(a, **kw) if keywords else SPLU(a)
        made.append((a, kw, lu))
        return _Residuals(a, lu, residuals)

    monkeypatch.setattr(imex.spla, 'splu', splu)
    return made, residuals


def _record_stage_residuals(monkeypatch):
    """Route every stage factor through a recorder of its solves'
    relative residuals against the true stage matrix I - c L: a factor
    solves in the basis of Diffusion.shifted, and the recorder maps its
    right-hand side and solution back (Diffusion.from_basis)."""
    residuals = []
    solver = ImexIntegrator._solver

    def recording(self, coef):
        L = global_L(self.mesh, self.basis, self.problem.d_coef)
        stage = sp.identity(L.shape[0]) - coef * L
        return _Residuals(stage, solver(self, coef), residuals,
                          self.diffusion.from_basis)

    monkeypatch.setattr(ImexIntegrator, '_solver', recording)
    return residuals


def test_implicit_stage_residual_is_small(monkeypatch):
    _, residuals = _record_splu(monkeypatch)
    prob, mesh, basis, integ, u0 = _heat_setup(8)
    u, info = integ.integrate(u0, 0.0, 0.5, prob.cfl * mesh.dx)
    # one solve per implicit stage of every step
    assert len(residuals) == 3 * info['steps']
    assert 0.0 < max(residuals) <= 1e-10


def test_a_reused_integrator_solves_like_a_fresh_one(monkeypatch):
    # a coarse call leaves other factors behind; the next call must solve
    # with its own step size's factors, as a fresh integrator does
    residuals = _record_stage_residuals(monkeypatch)
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, (6, 6))
    u0 = interpolate(lambda x, y: prob.exact(x, y, 0.0), mesh, basis)
    integ = ImexIntegrator(prob, mesh, basis)
    integ.integrate(u0, 0.0, 0.5, 0.25)
    residuals.clear()
    got, _ = integ.integrate(u0, 0.0, 0.01, 0.001)
    reused = residuals[:]
    residuals.clear()
    want, _ = ImexIntegrator(prob, mesh, basis).integrate(u0, 0.0, 0.01, 0.001)
    assert reused == residuals and 0.0 < max(reused) <= 1e-12
    assert np.array_equal(got, want)


def test_single_lu_factorization_per_coefficient(monkeypatch):
    made, _ = _record_splu(monkeypatch)
    for name, n in (('ark3', 8), ('ark4', 6)):
        prob, mesh, basis, integ, u0 = _heat_setup(
            n, tableau=builtin_tableau(name))
        aii = integ.tableau.a_im[1, 1]
        made.clear()
        _, info = integ.integrate(u0, 0.0, 1.0, 0.25)   # exact multiple
        assert info['steps'] == 4
        assert info['factorizations'] == len(made) == 1
        # the full steps reuse their factors; the shortened one factors
        _, info = integ.integrate(u0, 0.0, 1.1, 0.25)
        assert info['steps'] == 5
        assert info['factorizations'] == 1 and len(made) == 2
        # ... and then only the shortened step's factors are kept
        short = 1.1 - 4 * 0.25
        assert list(integ._lu) == [short * aii]
        _, info = integ.integrate(u0, 0.0, 1.1, 0.25)
        assert info['factorizations'] == 2 and len(made) == 4


def test_2d_factors_are_diagonal(monkeypatch):
    # in the eigenbasis of both axes every 2D stage matrix is diagonal:
    # its factor stores one L and one U entry per dof at any N, where the
    # global 2D LU grows with N (71 -> 106 per dof from N = 6 to 12 with
    # a symmetric minimum-degree ordering, 146 at N = 20 with the
    # defaults) and one banded Lx block per y-eigenvalue kept about 10.
    # The matrix handed to splu is the diagonal 1 - coef lam, lam the
    # diagonal of shifted, is factored in its own order, and solves as the
    # division by that diagonal, bitwise
    made, _ = _record_splu(monkeypatch)
    residuals = _record_stage_residuals(monkeypatch)
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    rng = np.random.default_rng(3)
    for n in (6, 12):
        made.clear()
        residuals.clear()
        mesh = build_mesh(prob.bounds, (n, n))
        u0 = interpolate(lambda x, y: prob.exact(x, y, 0.0), mesh, basis)
        integ = ImexIntegrator(prob, mesh, basis)
        tau = prob.cfl * mesh.dx
        _, info = integ.integrate(u0, 0.0, 3.5 * tau, tau)
        assert info['factorizations'] == len(made) == 2
        ndof = (n * basis.p) ** 2
        lam = integ.diffusion.shifted.diagonal()
        # the full steps' coefficient, then the shortened step's (kept)
        coefs = [tau * integ.tableau.im_diag[1], *integ._lu]
        for (a, kw, lu), coef in zip(made, coefs, strict=True):
            assert kw == {'permc_spec': 'NATURAL', 'relax': 1,
                          'panel_size': 1}
            assert lu.L.nnz + lu.U.nnz == 2 * ndof
            assert np.array_equal(lu.perm_c, np.arange(ndof))
            assert np.array_equal(lu.perm_r, np.arange(ndof))
            d = 1.0 - coef * lam
            assert a.format == 'csc' and a.shape == (ndof, ndof)
            assert np.array_equal(a.indptr, np.arange(ndof + 1))
            assert np.array_equal(a.indices, np.arange(ndof))
            assert np.array_equal(a.data, d)
            rhs = rng.standard_normal(ndof)
            assert np.array_equal(lu.solve(rhs), rhs / d)
        # every stage solve satisfies the true stage equation
        assert len(residuals) == 3 * info['steps']
        assert 0.0 < max(residuals) <= 1e-12


def test_2d_factor_allocates_little_per_dof():
    # the diagonal 2D stage matrix is built straight from its diagonal:
    # 12 bytes a dof at N = 40, where (I - coef shifted).tocsc() allocated
    # 76 through its sparse temporaries
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, (40, 40))
    integ = ImexIntegrator(prob, mesh, basis)
    coef = prob.cfl * mesh.dx * integ.tableau.im_diag[1]
    tracemalloc.start()
    try:
        integ._solver(coef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * (40 * basis.p) ** 2, peak


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stage_solve_matches_a_direct_sparse_solve(k):
    # a factor solves in the basis of Diffusion.shifted; mapped in and
    # out it solves the stage equation.  In 2D on a non-square mesh with
    # dx != dy: mixing up nx and ny, or a transpose, breaks the solve
    basis = build_basis(k)
    rng = np.random.default_rng(k)
    for prob, cells in (
            (ProblemSpec('line', (0.0, 1.0), 0.3, 1.0, 0.2, k,
                         exact=lambda x, t: np.sin(x) + t), 5),
            (ProblemSpec('rect', ((0.0, 1.0), (-1.0, 2.0)), 0.3, 1.0, 0.2,
                         k, exact=lambda x, y, t: np.sin(x) * np.cos(y) + t),
             (5, 7))):
        mesh = build_mesh(prob.bounds, cells)
        assert mesh.dim == 1 or mesh.dx != mesh.dy
        integ = ImexIntegrator(prob, mesh, basis)
        diff = integ.diffusion
        L = global_L(mesh, basis, prob.d_coef)
        r = rng.standard_normal(L.shape[0])
        for coef in (1e-3, 0.05):
            got = diff.from_basis(integ._solver(coef).solve(
                diff.to_basis(r)))
            stage = (sp.identity(L.shape[0]) - coef * L).tocsc()
            want = spla.spsolve(stage, r)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["heat1d", "burgers1d", "heat1d_o4",
                                  "heat2d"])
def test_factors_are_superlu_defaults(monkeypatch, name):
    # bitwise equal with and without splu's keywords: 1D passes none, so
    # its factors are SuperLU's defaults; 2D's diagonal factors take the
    # natural order without supernodes or panels, which changes no bit
    prob = builtin_problem(name)
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 20 if prob.dim == 1 else (6, 6))
    u0 = interpolate(lambda *x: prob.exact(*x, 0.0), mesh, basis)
    tau = prob.cfl * mesh.dx
    runs = []
    for keywords in (True, False):
        made, _ = _record_splu(monkeypatch, keywords)
        integ = ImexIntegrator(prob, mesh, basis,
                               controller=treated_boundary(
                                   prob, mesh, basis,
                                   builtin_tableau(prob.tableau)))
        u, info = integ.integrate(u0, 0.0, 10.5 * tau, tau)
        assert info['factorizations'] == len(made) == 2
        if prob.dim == 1:
            assert all(kw == {} for _, kw, _ in made)
        runs.append(u)
    assert np.array_equal(runs[0], runs[1])


def test_final_step_lands_exactly_on_t_end():
    prob, mesh, basis, integ, u0 = _heat_setup(8)
    u, info = integ.integrate(u0, 0.0, 1.05, 0.25)
    assert info['steps'] == 5
    assert info['t'] == 1.05
    u2, info2 = integ.integrate(u0, 0.0, 1.0, 0.25)
    assert info2['steps'] == 4
    assert info2['t'] == 1.0


def test_no_spurious_partial_step_from_roundoff():
    prob, mesh, basis, integ, u0 = _heat_setup(6)
    u, info = integ.integrate(u0, 0.0, 0.9, 0.3)  # 3*0.3 != 0.9 in floats
    assert info['steps'] == 3


def test_prepared_boundary_schedule_matches_per_step_sampling(monkeypatch):
    # t_end is off the step grid, so the shortened last step samples
    # per step in both runs.  At the default block cap the 10 full steps
    # are one block; patched to 2 or 3 steps' samples, they span several
    # (the last one partial at 3), and each block is one omega call.
    # t0 = 0.1 puts block starts where t0 + tau*first + tau*j rounds
    # differently from t0 + tau*(first + j), the grid integrate() steps
    # along
    t0 = 0.1
    default = imex._BLOCK_SAMPLES
    for name, cells in (('heat1d', 6), ('heat2d', (4, 3))):
        prob = builtin_problem(name)
        basis = build_basis(prob.degree)
        mesh = build_mesh(prob.bounds, cells)
        tab = builtin_tableau(prob.tableau)
        u0 = interpolate(lambda *x: prob.exact(*x, t0), mesh, basis)
        points = sum(np.size(pt[0])
                     for pt in mesh.boundary_points(basis).values())
        omega, calls = prob.omega, []

        def counted(*args):
            calls.append(args[-1])
            return omega(*args)

        prob.omega = counted
        for block_steps, blocks in ((None, 1), (2, 5), (3, 4)):
            monkeypatch.setattr(imex, '_BLOCK_SAMPLES', default if
                                block_steps is None else
                                block_steps * tab.stages * points)
            for build in (NaiveBoundary, treated_boundary):
                out, ncalls = [], []
                for prepared in (True, False):
                    ctrl = build(prob, mesh, basis, tab)
                    if not prepared:
                        # a no-op prepare leaves every step to sample itself
                        ctrl.prepare = lambda t0, tau, nsteps: None
                    integ = ImexIntegrator(prob, mesh, basis, tableau=tab,
                                           controller=ctrl)
                    calls.clear()
                    u, info = integ.integrate(u0, t0, t0 + 0.53, 0.05)
                    assert info['steps'] == 11
                    out.append(u)
                    ncalls.append(len(calls))
                case = (name, block_steps, build)
                assert np.array_equal(out[0], out[1]), case
                assert ncalls == [blocks + 1, 11], case


def test_boundary_sampler_memory_does_not_grow_with_the_schedule():
    # a 5000-step schedule, stepped at its start, middle and end: only
    # the current block of samples is held (sampling the whole schedule
    # at once peaked at 23 MB naive and 54 MB treated, in 32768-sample
    # blocks at 1.0 and 2.1 MB, in 8192-sample ones at 0.31 and 0.53 MB)
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, (4, 4))
    tab = builtin_tableau(prob.tableau)
    tau = 1e-3
    for build in (NaiveBoundary, treated_boundary):
        ctrl = build(prob, mesh, basis, tab)
        tracemalloc.start()
        try:
            ctrl.prepare(0.0, tau, 5000)
            for m in [*range(50), 2500, 4999]:
                ctrl.sampler.step(m * tau, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (build, peak)


def test_stage_data_is_one_low_high_pair_per_axis():
    # ((west, east),) of floats in 1D, ((west, east), (south, north)) of
    # face arrays in 2D, in the order of mesh.boundary_points, from both
    # controllers; stage 0 is omega at the step start for either
    for name, cells in (('heat1d', 6), ('heat2d', (4, 3))):
        prob = builtin_problem(name)
        basis = build_basis(prob.degree)
        mesh = build_mesh(prob.bounds, cells)
        tab = builtin_tableau(prob.tableau)
        u0 = interpolate(prob.u0, mesh, basis)
        points = list(mesh.boundary_points(basis).values())
        for build in (NaiveBoundary, treated_boundary):
            ctrl = build(prob, mesh, basis, tab)
            ctrl.begin_step(u0, 0.3, 0.05)
            bdata = ctrl.stage_data(0)
            assert len(bdata) == len(mesh.axes)
            assert all(len(pair) == 2 for pair in bdata)
            sides = [v for pair in bdata for v in pair]
            for value, point in zip(sides, points, strict=True):
                if mesh.dim == 1:
                    assert isinstance(value, float)
                np.testing.assert_allclose(value, prob.omega(*point, 0.3),
                                           atol=1e-15, rtol=0)


def test_rejects_nonpositive_step():
    prob, mesh, basis, integ, u0 = _heat_setup(4)
    with pytest.raises(ValueError, match="positive"):
        integ.integrate(u0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        integ.integrate(u0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError, match="t_end=0.5 lies before t0=1.0"):
        integ.integrate(u0, 1.0, 0.5, 0.1)
    for args, name in (((np.nan, 1.0, 0.1), 't0'),
                       ((0.0, np.nan, 0.1), 't_end'),
                       ((0.0, np.inf, 0.1), 't_end'),
                       ((0.0, 1.0, np.nan), 'tau'),
                       ((0.0, 1.0, np.inf), 'tau')):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            integ.integrate(u0, *args)


def test_nonfinite_solution_raises():
    prob, mesh, basis, integ, u0 = _heat_setup(4)
    # an infinite field makes inf - inf on purpose
    with np.errstate(invalid='ignore'), \
            pytest.raises(FloatingPointError,
                          match=r"non-finite solution after step 1 at t=0\.1"):
        integ.integrate(np.full_like(u0, np.inf), 0.0, 0.1, 0.1)


def test_divergence_stops_at_the_failing_step():
    # boundary data turns NaN from t = 0.22 on: the step starting at 0.2
    # is the first to see it, and the run must stop right there
    prob = builtin_problem('heat1d')
    exact = prob.omega
    prob.omega = lambda x, t: np.where(t > 0.22, np.nan, exact(x, t))
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 6)
    begun = []

    class Counting(NaiveBoundary):
        def begin_step(self, u, t, tau):
            begun.append(t)
            super().begin_step(u, t, tau)

    integ = ImexIntegrator(prob, mesh, basis, controller=Counting(
        prob, mesh, basis, builtin_tableau(prob.tableau)))
    u0 = interpolate(prob.u0, mesh, basis)
    with pytest.raises(FloatingPointError,
                       match=r"non-finite solution after step 5 at t=0\.25"):
        integ.integrate(u0, 0.0, 1.0, 0.05)
    assert len(begun) == 5


def test_growth_is_the_largest_step_ratio():
    # decaying heat1d shrinks max|u| at every step, the shortened last
    # one included, and growth is the largest of the ratios stepped by hand
    prob, mesh, basis, integ, u0 = _heat_setup(8)
    tau = prob.cfl * mesh.dx
    _, info = integ.integrate(u0, 0.0, 0.53, tau)
    assert info['factorizations'] == 2       # a shortened last step
    u, t, ratios = u0, 0.0, []
    for m in range(info['steps']):
        new = integ.step(u, t, min(tau, 0.53 - t))
        ratios.append(np.abs(new).max() / np.abs(u).max())
        u, t = new, (m + 1) * tau
    assert info['growth'] == max(ratios) < 1.0
    # u = -e^t sin x solves u_t = D u_xx + (1 + D) u: each step multiplies
    # max|u|, here -min u, by about e^tau
    d = 0.1
    prob = ProblemSpec('grow', (0.0, np.pi), d, 1.0, 0.2, 2, p=1.0 + d,
                       exact=lambda x, t: -np.exp(t) * np.sin(x))
    basis = build_basis(2)
    mesh = build_mesh(prob.bounds, 16)
    u0 = interpolate(prob.u0, mesh, basis)
    tau = 0.05
    _, info = ImexIntegrator(prob, mesh, basis).integrate(u0, 0.0, 1.0, tau)
    assert info['steps'] == 20
    assert abs(info['growth'] - np.exp(tau)) <= 1e-5
    # no ratio is taken from a zero field: a run that stays zero has none
    prob = ProblemSpec('rest', (0.0, 1.0), d, 1.0, 0.2, 2,
                       exact=lambda x, t: 0.0 * x)
    mesh = build_mesh(prob.bounds, 4)
    _, info = ImexIntegrator(prob, mesh, basis).integrate(
        np.zeros((4, basis.p)), 0.0, 0.3, 0.1)
    assert info['steps'] == 3 and info['growth'] is None


def _observed_step(monkeypatch, integ, u0, t, tau):
    """One step of integ, seen from outside the integrator.

    Returns the new field, the solved stage fields by stage (stages 1 on,
    seen by the controller's observe_stage) and the (field, boundary
    data, rate) of every explicit_rhs call, in stage order.
    """
    stages = {}
    calls = []
    observe = integ.controller.observe_stage

    def observe_stage(i, u_stage):
        stages[i] = np.array(u_stage)
        observe(i, u_stage)

    def rates(u, t, bdata, *args, **kwargs):
        out = explicit_rhs(u, t, bdata, *args, **kwargs)
        calls.append((np.array(u), bdata, out))
        return out

    integ.controller.observe_stage = observe_stage
    monkeypatch.setattr(imex, 'explicit_rhs', rates)
    return integ.step(u0, t, tau), stages, calls


def test_zero_diffusion_reduces_to_explicit_tableau(monkeypatch):
    # with d = 0 the implicit tendencies vanish and one step must equal the
    # bare explicit RK combination of the stage rates xi
    prob = ProblemSpec('advect', (-1.0, 1.0), 0.0, 1.0, 0.1, 2,
                       fluxes=[(lambda u: 0.5 * u * u,
                                lambda u: np.asarray(u, dtype=float), None)],
                       exact=lambda x, t: 0.3 * np.cos(x - t))
    basis = build_basis(2)
    mesh = build_mesh(prob.bounds, 6)
    integ = ImexIntegrator(prob, mesh, basis)
    u0 = interpolate(lambda x: prob.exact(x, 0.0), mesh, basis)
    tau = 0.02
    out, stages, calls = _observed_step(monkeypatch, integ, u0, 0.0, tau)
    tab = integ.tableau
    xi = [rate for _, _, rate in calls]
    # the implicit tendencies L u + g_b are exactly zero
    diff = integ.diffusion
    assert abs(global_L(mesh, basis, prob.d_coef)).max() == 0.0
    for _, bdata, _ in calls:
        assert np.max(np.abs(diff.gb(bdata))) == 0.0
    # each rate was taken at its stage field
    assert np.array_equal(calls[0][0], u0)
    for i in range(1, tab.stages):
        assert np.array_equal(calls[i][0], stages[i])
    # recompute each stage and the update from the observed rates
    for i in range(1, tab.stages):
        want = u0.copy()
        for j in range(i):
            if tab.a_ex[i, j] != 0.0:
                want += (tau * tab.a_ex[i, j]) * xi[j]
        np.testing.assert_allclose(stages[i], want, atol=1e-13, rtol=0)
    want = u0.copy()
    for i in range(tab.stages):
        if tab.b_ex[i] != 0.0:
            want += (tau * tab.b_ex[i]) * xi[i]
    np.testing.assert_allclose(out, want, atol=1e-13, rtol=0)
    # and the first rate is the plain convective RHS
    rhs0 = mesh_explicit_rhs(u0, 0.0, calls[0][1], prob, mesh, basis)
    np.testing.assert_allclose(xi[0], rhs0, atol=0, rtol=0)


def test_recorded_stage_count_matches_tableau(monkeypatch):
    for name in ('ark3', 'ark4'):
        prob, mesh, basis, integ, u0 = _heat_setup(
            6, tableau=builtin_tableau(name))
        _, stages, calls = _observed_step(monkeypatch, integ, u0, 0.0, 0.01)
        s = integ.tableau.stages
        assert sorted(stages) == list(range(1, s))
        assert len(calls) == s


def _ark3_first_stage_twice():
    """ARK3 with its first stage repeated: c = (0, 0, g, (1+g)/2, 1), the
    new stage 1 with all-zero rows (a_11 = 0, an explicit internal stage)
    and zero weights, so it reproduces the step-start field."""
    tab = builtin_tableau('ark3')

    def widen(a):
        return np.insert(np.insert(a, 1, 0.0, axis=0), 1, 0.0, axis=1)

    return ImexTableau('ark3-twice', np.insert(tab.c, 1, 0.0),
                       widen(tab.a_ex), widen(tab.a_im),
                       np.insert(tab.b_ex, 1, 0.0), np.insert(tab.b_im, 1, 0.0))


@pytest.mark.parametrize("name,cells", [('heat1d', 10), ('burgers1d', 10),
                                        ('heat2d', (5, 5))])
@pytest.mark.parametrize("bc", ['naive', 'treated'])
def test_an_explicit_internal_stage_is_the_accumulated_field(monkeypatch,
                                                             name, cells, bc):
    # a stage with a_ii = 0 past the first takes its accumulated right-hand
    # side as its field: a repeated first stage changes no bit of ARK3's
    # final field, naive or treated.  Its xi enters no later row and no
    # weight, so a step forms none: explicit_rhs runs at ARK3's four
    # stages a step, not at all five
    twice = _ark3_first_stage_twice()
    assert twice.im_diag[1] == 0.0 and not twice.needs_psi[1]
    assert twice.needs_xi == [True, False, True, True, True]
    for tab in map(builtin_tableau, ('ark3', 'ark4')):
        assert all(tab.needs_xi)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return explicit_rhs(*args)

    monkeypatch.setattr(imex, 'explicit_rhs', counted)
    prob = builtin_problem(name)
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, cells)
    u0 = interpolate(prob.u0, mesh, basis)
    fields, ncalls = [], []
    for tab in (builtin_tableau('ark3'), twice):
        ctrl = (NaiveBoundary(prob, mesh, basis, tab) if bc == 'naive'
                else treated_boundary(prob, mesh, basis, tab))
        integ = ImexIntegrator(prob, mesh, basis, tableau=tab,
                               controller=ctrl)
        calls.clear()
        u, info = integ.integrate(u0, 0.0, 0.13, 0.02)
        fields.append(u)
        ncalls.append(len(calls))
    assert fields[0].tobytes() == fields[1].tobytes()
    assert ncalls == [4 * info['steps']] * 2


@pytest.mark.parametrize("name,products", [('ark3', 0), ('ark4', 1)])
def test_psi_comes_from_the_stage_equation(monkeypatch, name, products):
    # a stage with a_ii != 0 reads psi^i from its solve; only ARK4's first
    # stage (a_00 = 0, its psi used later) forms L u + g_b, in 2D through
    # the eigenbases of Lx and Ly
    for cells, problem in ((10, 'heat1d'), ((6, 6), 'heat2d')):
        prob, mesh, basis, integ, u0 = _heat_setup(
            cells, builtin_tableau(name), problem)
        diff = integ.diffusion
        made = []
        matvec = diff.matvec

        def recording(v):
            made.append(matvec(v))
            return made[-1]

        monkeypatch.setattr(diff, 'matvec', recording)
        tau = prob.cfl * mesh.dx
        out, stages, calls = _observed_step(monkeypatch, integ, u0, 0.3, tau)
        assert len(made) == products, prob.name
        tab, L = integ.tableau, global_L(mesh, basis, prob.d_coef)
        fields = [u.reshape(-1) for u, _, _ in calls]
        xi = [rate.reshape(-1) for _, _, rate in calls]
        direct = [L @ u + diff.gb(bdata)
                  for u, (_, bdata, _) in zip(fields, calls)]
        psi = [direct[0]]
        if made:
            psi[0] = made[0] + diff.gb(calls[0][1])
            err = (np.max(np.abs(psi[0] - direct[0]))
                   / np.max(np.abs(direct[0])))
            assert err <= 1e-12, (prob.name, err)
        # the tendencies that the observed stage fields imply
        for i in range(1, tab.stages):
            acc = fields[0] + tau * sum(tab.a_ex[i, j] * xi[j]
                                        + tab.a_im[i, j] * psi[j]
                                        for j in range(i))
            psi.append((fields[i] - acc) / (tau * tab.a_im[i, i]))
            err = (np.max(np.abs(psi[i] - direct[i]))
                   / np.max(np.abs(direct[i])))
            assert err <= 1e-12, (prob.name, i, err)
        want = fields[0] + tau * sum(tab.b_ex[i] * xi[i]
                                     + tab.b_im[i] * psi[i]
                                     for i in range(tab.stages))
        np.testing.assert_allclose(out.reshape(-1), want, atol=1e-14,
                                   rtol=0)


# -- the step against the reference ---------------------------------------------

@pytest.mark.parametrize("name,cells,bc", [
    ('heat1d', 1, 'naive'), ('heat1d', 2, 'naive'), ('heat1d', 3, 'naive'),
    ('heat1d', 40, 'naive'), ('heat1d', 3, 'treated'),
    ('heat1d', 40, 'treated'), ('burgers1d', 40, 'naive'),
    ('burgers1d', 40, 'treated'), ('heat1d_o4', 40, 'naive'),
    ('heat1d_o4', 40, 'treated'), ('heat2d', (4, 3), 'naive'),
    ('heat2d', (4, 3), 'treated'), ('heat2d', (6, 6), 'naive'),
    ('heat2d', (6, 6), 'treated')])
def test_steps_match_the_reference_step(name, cells, bc):
    # each step from the same field as the dense reference step, on the
    # prepared schedule and off it (the last, shortened step); heat1d_o4
    # runs ARK4, whose first psi forms L u.  The stage solves and L u
    # round within eps |L| |u|, so the bound is 4 eps (1 + tau |L|_inf)
    # of the field: 0.77 of that is the most seen, on the SkylakeX and
    # Haswell cores alike
    prob = builtin_problem(name)
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, cells)
    tab = builtin_tableau(prob.tableau)
    build = NaiveBoundary if bc == 'naive' else treated_boundary
    ctrl = build(prob, mesh, basis, tab)
    integ = ImexIntegrator(prob, mesh, basis, tableau=tab, controller=ctrl)
    tau = prob.cfl * mesh.min_width
    ctrl.prepare(0.0, tau, 3)
    # naive: omega sampled by the reference; treated: a controller of its own
    ref_ctrl = None if bc == 'naive' else treated_boundary(prob, mesh,
                                                           basis, tab)
    norm_L = abs(global_L(mesh, basis, prob.d_coef)).sum(axis=1).max()
    u = u0 = interpolate(prob.u0, mesh, basis)
    for t, dt in ((0.0, tau), (tau, tau), (2 * tau, tau), (3 * tau, tau / 3)):
        want = imex_step(u, t, dt, prob, mesh, basis, tab, ref_ctrl)
        u = integ.step(u, t, dt)
        bound = 4 * np.finfo(float).eps * (1 + dt * norm_L)
        assert np.max(np.abs(u - want)) <= bound * np.max(np.abs(want)), t
    assert np.all(np.isfinite(u)) and not np.array_equal(u, u0)


def _flat_view(field, shape):
    """A field of the given shape that is a view of a flat vector."""
    return (field.shape == shape and field.flags.c_contiguous
            and np.shares_memory(field.reshape(-1), field))


def test_fields_are_the_flat_vectors_reshaped(monkeypatch):
    # one field layout, (cell, node) per axis: interpolate gives a
    # C-ordered field of Diffusion.shape, every field a step hands the
    # controller and explicit_rhs is a view of a flat vector with no copy
    # into another order, and so is the field the step returns
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, (5, 7))
    assert mesh.dx != mesh.dy
    tab = builtin_tableau(prob.tableau)
    integ = ImexIntegrator(prob, mesh, basis, tableau=tab,
                           controller=treated_boundary(prob, mesh, basis,
                                                       tab))
    shape = integ.diffusion.shape
    assert shape == (5, basis.p, 7, basis.p)
    u0 = interpolate(lambda x, y: prob.exact(x, y, 0.0), mesh, basis)
    assert _flat_view(u0, shape)
    x, y = mesh.node_coords(basis)
    assert np.array_equal(u0, prob.exact(x, y, 0.0))
    ctrl = integ.controller
    begun, observed = [], []
    begin, observe = ctrl.begin_step, ctrl.observe_stage

    def begin_step(u, t, tau):
        begun.append(u)
        begin(u, t, tau)

    def observe_stage(i, u_stage):
        observed.append(u_stage)
        observe(i, u_stage)

    monkeypatch.setattr(ctrl, 'begin_step', begin_step)
    monkeypatch.setattr(ctrl, 'observe_stage', observe_stage)
    read, filled = [], []

    def rates(u, *args):
        read.append(u)
        filled.append(explicit_rhs(u, *args))
        return filled[-1]

    monkeypatch.setattr(imex, 'explicit_rhs', rates)
    tau = prob.cfl * mesh.min_width
    u1 = integ.step(u0, 0.0, tau)
    u2 = integ.step(u1, tau, tau)
    assert _flat_view(u1, shape) and _flat_view(u2, shape)
    assert len(read) == 2 * tab.stages
    # each step's stage 0 is its own input, the later stages the solves'
    # flat vectors reshaped, read by explicit_rhs as the controller saw them
    assert begun[0] is read[0] is u0 and begun[1] is read[tab.stages] is u1
    later = [u for k, u in enumerate(read) if k % tab.stages]
    assert len(observed) == len(later)
    assert all(a is b for a, b in zip(observed, later))
    for u in read + filled:
        assert _flat_view(u, shape)


@pytest.mark.parametrize("name,cells", [('heat1d', 8), ('heat2d', (4, 3))],
                         ids=['1d', '2d'])
def test_one_step_from_a_constant_u0(name, cells):
    # interpolate broadcasts a u0 that returns a scalar to the field shape,
    # so the step runs as from the same constant given as a field
    prob = copy.copy(builtin_problem(name))
    prob.u0 = lambda *x: 0.5
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, cells)
    integ = ImexIntegrator(prob, mesh, basis)
    shape = integ.diffusion.shape
    u0 = interpolate(prob.u0, mesh, basis)
    assert _flat_view(u0, shape) and u0.flags.writeable
    assert np.all(u0 == 0.5)
    tau = prob.cfl * mesh.min_width
    u1 = integ.step(u0, 0.0, tau)
    assert np.all(np.isfinite(u1))
    assert np.array_equal(u1, integ.step(np.full(shape, 0.5), 0.0, tau))


# -- the two axes of a 2D mesh -------------------------------------------------

def _exchange_problem(swap):
    """u = e^-t sin(x + 0.1t) cos(y + 0.2t) with the fluxes -0.1 u along x
    and -0.2 u along y, D = 1 and h = u, on 8 x 6 cells of [-1, 1] x [0, 1];
    with swap, the same problem with x and y exchanged, on 6 x 8 cells of
    [0, 1] x [-1, 1]."""
    def exact(x, y, t):
        a, b = (y, x) if swap else (x, y)
        return np.exp(-t) * np.sin(a + 0.1 * t) * np.cos(b + 0.2 * t)

    def omega_t(x, y, t):
        a, b = (y, x) if swap else (x, y)
        sa, ca = np.sin(a + 0.1 * t), np.cos(a + 0.1 * t)
        sb, cb = np.sin(b + 0.2 * t), np.cos(b + 0.2 * t)
        return np.exp(-t) * (-sa * cb + 0.1 * ca * cb - 0.2 * sa * sb)

    bounds, fluxes, cells = ((-1.0, 1.0), (0.0, 1.0)), [-0.1, -0.2], (8, 6)
    if swap:
        bounds, fluxes, cells = bounds[::-1], fluxes[::-1], cells[::-1]
    prob = ProblemSpec('exchange', bounds, 1.0, 0.3, 0.1, 2, tableau='ark3',
                       fluxes=fluxes, p=1.0, exact=exact, omega_t=omega_t)
    return prob, build_mesh(bounds, cells)


@pytest.mark.parametrize("bc", ['naive', 'treated'])
def test_exchanging_the_axes_transposes_the_solution(bc):
    # x and y run different code: the convective kernel applies its blocks
    # from the left along x and from the right along y, the boundary
    # vector reshapes face data along y only, each axis has its own L and
    # Gb (penalty 1/width of the other axis), and the face map relabels
    # the y-normal rows.  The mirrored run must give the transposed field:
    # they agreed to 9.4e-16 (naive) and 1.2e-15 (treated) of max |u|
    basis, tab = build_basis(2), builtin_tableau('ark3')
    fields = []
    for swap in (False, True):
        prob, mesh = _exchange_problem(swap)
        ctrl = (NaiveBoundary if bc == 'naive' else treated_boundary)(
            prob, mesh, basis, tab)
        integ = ImexIntegrator(prob, mesh, basis, tableau=tab, controller=ctrl)
        u, _ = integ.integrate(interpolate(prob.u0, mesh, basis), 0.0,
                               prob.T, 0.01)
        fields.append(u)
    plain, mirrored = fields
    assert mirrored.shape == (6, 3, 8, 3)
    scale = np.max(np.abs(plain))
    assert np.max(np.abs(plain.transpose(2, 3, 0, 1) - mirrored)) <= (
        1e-13 * scale)
