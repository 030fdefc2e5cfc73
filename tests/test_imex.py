"""Tableau identities, IMEX stepping mechanics, and degenerate limits."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ldgimex import imex
from ldgimex.imex import (ImexIntegrator, ImexTableau, NaiveBoundary,
                          builtin_tableau, validate_tableau)
from ldgimex.mesh import build_mesh
from ldgimex.operators import explicit_rhs
from ldgimex.problems import ProblemSpec, builtin_problem
from ldgimex.quadrature import build_basis, interpolate
from ldgimex.treatment import treated_boundary

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

def _heat_setup(n=8, tableau=None):
    prob = builtin_problem('heat1d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, n)
    integ = ImexIntegrator(prob, mesh, basis, tableau=tableau)
    u0 = interpolate(lambda x: prob.exact(x, 0.0), mesh, basis)
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
    residual |rhs - a x| / |rhs|."""

    def __init__(self, a, lu, residuals):
        self._a, self._lu, self._residuals = a, lu, residuals

    def solve(self, rhs):
        x = self._lu.solve(rhs)
        self._residuals.append(np.linalg.norm(rhs - self._a @ x)
                               / np.linalg.norm(rhs))
        return x


def _record_splu(monkeypatch, keywords=True):
    """Route the integrator's splu through a recorder.

    Returns the list that collects (matrix, factor) per call and the list
    that collects the relative residual of every solve with those
    factors.  With keywords=False every keyword argument is dropped, so
    the factor is SuperLU's default one.
    """
    made = []
    residuals = []

    def splu(a, **kw):
        lu = SPLU(a, **kw) if keywords else SPLU(a)
        made.append((a, lu))
        return _Residuals(a, lu, residuals)

    monkeypatch.setattr(imex.spla, 'splu', splu)
    return made, residuals


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
    _, residuals = _record_splu(monkeypatch)
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


def test_2d_factors_fill_less_than_superlu_defaults(monkeypatch):
    made, residuals = _record_splu(monkeypatch)
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, (6, 6))
    u0 = interpolate(lambda x, y: prob.exact(x, y, 0.0), mesh, basis)
    integ = ImexIntegrator(prob, mesh, basis)
    tau = prob.cfl * mesh.x.dx
    _, info = integ.integrate(u0, 0.0, 3.5 * tau, tau)
    assert info['factorizations'] == len(made) == 2
    assert len(residuals) == 3 * info['steps']
    assert 0.0 < max(residuals) <= 1e-12
    for a, lu in made:
        default = SPLU(a)
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz


@pytest.mark.parametrize("name", ["heat1d", "burgers1d", "heat1d_o4"])
def test_1d_factors_are_superlu_defaults(monkeypatch, name):
    prob = builtin_problem(name)
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 20)
    u0 = interpolate(lambda x: prob.exact(x, 0.0), mesh, basis)
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


def test_prepared_boundary_schedule_matches_per_step_sampling():
    # t_end is off the step grid, so the shortened last step samples
    # per step in both runs
    for name, cells in (('heat1d', 6), ('heat2d', (4, 3))):
        prob = builtin_problem(name)
        basis = build_basis(prob.degree)
        mesh = build_mesh(prob.bounds, cells)
        tab = builtin_tableau(prob.tableau)
        u0 = interpolate(prob.u0, mesh, basis)
        for build in (NaiveBoundary, treated_boundary):
            out = []
            for prepared in (True, False):
                ctrl = build(prob, mesh, basis, tab)
                if not prepared:
                    # a no-op prepare leaves every step to sample itself
                    ctrl.prepare = lambda t0, tau, nsteps: None
                integ = ImexIntegrator(prob, mesh, basis, tableau=tab,
                                       controller=ctrl)
                out.append(integ.integrate(u0, 0.0, 0.53, 0.05)[0])
            assert np.array_equal(out[0], out[1]), (name, build)


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
    assert abs(diff.L).max() == 0.0
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
    rhs0 = explicit_rhs(u0, 0.0, calls[0][1], prob, mesh, basis)
    np.testing.assert_allclose(xi[0], rhs0, atol=0, rtol=0)


def test_recorded_stage_count_matches_tableau(monkeypatch):
    for name in ('ark3', 'ark4'):
        prob, mesh, basis, integ, u0 = _heat_setup(
            6, tableau=builtin_tableau(name))
        _, stages, calls = _observed_step(monkeypatch, integ, u0, 0.0, 0.01)
        s = integ.tableau.stages
        assert sorted(stages) == list(range(1, s))
        assert len(calls) == s


class _CountingMatrix:
    """A sparse matrix that counts its products with vectors."""

    def __init__(self, mat):
        self.mat, self.products = mat, 0

    def __matmul__(self, v):
        self.products += 1
        return self.mat @ v

    def __rmul__(self, c):
        return c * self.mat


@pytest.mark.parametrize("name,products", [('ark3', 0), ('ark4', 1)])
def test_psi_comes_from_the_stage_equation(monkeypatch, name, products):
    # a stage with a_ii != 0 reads psi^i from its solve; only ARK4's first
    # stage (a_00 = 0, its psi used later) forms L u + g_b
    prob, mesh, basis, integ, u0 = _heat_setup(
        10, tableau=builtin_tableau(name))
    integ._lcsc = counting = _CountingMatrix(integ._lcsc)
    tau = prob.cfl * mesh.dx
    out, stages, calls = _observed_step(monkeypatch, integ, u0, 0.3, tau)
    assert counting.products == products
    tab, diff = integ.tableau, integ.diffusion
    fields = [diff.flatten(u) for u, _, _ in calls]
    xi = [diff.flatten(rate) for _, _, rate in calls]
    direct = [diff.L @ u + diff.gb(bdata)
              for u, (_, bdata, _) in zip(fields, calls)]
    # the tendencies that the observed stage fields imply
    psi = [direct[0]]
    for i in range(1, tab.stages):
        acc = fields[0] + tau * sum(tab.a_ex[i, j] * xi[j]
                                    + tab.a_im[i, j] * psi[j]
                                    for j in range(i))
        psi.append((fields[i] - acc) / (tau * tab.a_im[i, i]))
        err = np.max(np.abs(psi[i] - direct[i])) / np.max(np.abs(direct[i]))
        assert err <= 1e-12, (i, err)
    want = fields[0] + tau * sum(tab.b_ex[i] * xi[i] + tab.b_im[i] * psi[i]
                                 for i in range(tab.stages))
    np.testing.assert_allclose(diff.flatten(out), want, atol=1e-14, rtol=0)
