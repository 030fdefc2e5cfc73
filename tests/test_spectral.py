"""One-step amplification matrices: the treated boundary against the naive one.

With zero Dirichlet data, a linear flux f(u) = -C u and no source, one
IMEX step is a linear map u^n -> u^{n+1}: its amplification matrix M,
built here column by column from ImexIntegrator.step (ARK3, k = 2,
tau = CFL * cell width).  Well below the treated boundary's step-size
limit the spectral radius rho(M) is the naive one to 4 digits; above
it the treatment adds a mode with rho > 1, and runs diverge without
raising (ROADMAP item 1).  The xfails are that known defect, strict, so
a fix of the closure turns them into failures to be promoted.  A 1D
pair at N = 40 costs about 0.1 s, a 2D pair at N = 6 about 1.1 s (one
Xeon core); N = 10 in 2D would take about 5 s.  At production size the
matrix-free witness step_radius takes rho from ARPACK, one step per
matvec: heat2d's point at N = 80 costs 0.4-0.9 s a mode.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ldgimex.imex import ImexIntegrator, builtin_tableau
from ldgimex.mesh import build_mesh
from ldgimex.problems import ProblemSpec
from ldgimex.quadrature import build_basis
from ldgimex.treatment import treated_boundary

ARK3 = builtin_tableau('ark3')


def _zero(*coords_t):
    return 0.0 * coords_t[0]


def linear_stepper(dim, C, D, n, mode):
    """The integrator on [-1, 1]^dim with n cells per axis for the flux
    -C u, diffusion D and zero Dirichlet data; mode is 'naive' or the
    treatment algorithm, 'alg1' or 'alg2'."""
    prob = ProblemSpec('amplification', [(-1.0, 1.0)] * dim, D, 1.0, 1.0, 2,
                       fluxes=[-C] * dim, omega=_zero, omega_t=_zero)
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, n)
    ctrl = (None if mode == 'naive' else
            treated_boundary(prob, mesh, basis, ARK3, variant=mode))
    return ImexIntegrator(prob, mesh, basis, tableau=ARK3, controller=ctrl)


def amplification_matrix(dim, C, D, n, cfl, mode):
    """M of one step of size CFL * cell width (see linear_stepper)."""
    integ = linear_stepper(dim, C, D, n, mode)
    diff = integ.diffusion
    tau = cfl * integ.mesh.min_width
    cols = [integ.step(e.reshape(diff.shape), 0.0, tau).reshape(-1)
            for e in np.eye(diff.shifted.shape[0])]
    return np.array(cols).T


def spectral_radius(mat):
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


@lru_cache(maxsize=None)
def step_radius(dim, C, D, n, cfl, mode):
    """rho(M) without forming M: ARPACK's largest-magnitude eigenvalue of
    the step map (see amplification_matrix), one step a matvec, from a
    fixed start vector.  At tol 1e-6 it reads the dense rho to 1e-9."""
    integ = linear_stepper(dim, C, D, n, mode)
    shape = integ.diffusion.shape
    size = integ.diffusion.shifted.shape[0]
    tau = cfl * integ.mesh.min_width
    step = spla.LinearOperator(
        (size, size), dtype=float,
        matvec=lambda v: integ.step(v.reshape(shape), 0.0, tau).reshape(-1))
    val = spla.eigs(step, k=1, which='LM', ncv=30, tol=1e-6,
                    v0=np.random.default_rng(0).standard_normal(size),
                    return_eigenvectors=False)
    return float(abs(val[0]))


def _unstable(what):
    return pytest.mark.xfail(strict=True, reason="the treated boundary "
                             "adds a growing mode: " + what)


# (dim, C, D, N, CFL) with rho naive / treated as measured
@pytest.mark.parametrize("dim,C,D,n,cfl", [
    # heat1d's own C, D and CFL: 0.9402 / 0.9402
    pytest.param(1, 0.1, 2.0, 40, 0.25, id='1d-heat1d'),
    # strong convection, weak diffusion, just below the limit:
    # 0.9596 / 0.9596
    pytest.param(1, 1.0, 0.1, 40, 0.3, id='1d-convective-cfl0.3'),
    # heat2d's own C, D and CFL: 0.7192 / 0.7192
    pytest.param(2, 0.1, 1.0, 6, 0.2, id='2d-heat2d'),
    # 0.9531 / 1.1113
    pytest.param(1, 1.0, 0.1, 40, 0.35, id='1d-convective-cfl0.35',
                 marks=_unstable("1D, |f'| tau/dx = 0.35")),
    # 0.9038 / 1.0349
    pytest.param(1, 1.0, 2.0, 40, 0.4, id='1d-diffusive-cfl0.4',
                 marks=_unstable("1D, D = 2, CFL 0.4")),
    # 0.5804 / 2.8592
    pytest.param(2, 1.0, 1.0, 6, 0.3, id='2d-convective-cfl0.3',
                 marks=_unstable("2D, C = 1, CFL 0.3")),
])
def test_treated_boundary_adds_no_growing_mode(dim, C, D, n, cfl):
    naive, treated = (
        spectral_radius(amplification_matrix(dim, C, D, n, cfl, mode))
        for mode in ('naive', 'alg2'))
    assert treated <= naive + 1e-3, (naive, treated)


@pytest.mark.parametrize("dim,C,D,n,cfl,mode", [
    pytest.param(2, 0.1, 1.0, 6, 0.2, 'naive', id='2d-heat2d-naive'),
    pytest.param(2, 0.1, 1.0, 6, 0.2, 'alg2', id='2d-heat2d-alg2'),
    pytest.param(1, 1.0, 0.1, 40, 0.35, 'alg2',
                 id='1d-convective-cfl0.35-alg2'),
])
def test_matrix_free_radius_is_the_dense_one(dim, C, D, n, cfl, mode):
    # 0.7192 at heat2d's point, and the treated growing mode 1.1113
    dense = spectral_radius(amplification_matrix(dim, C, D, n, cfl, mode))
    assert abs(step_radius(dim, C, D, n, cfl, mode) - dense) < 1e-6


# (dim, C, D, N, CFL, mode) with rho naive / mode as measured.  heat2d's
# C, D and CFL, without its source, at the sizes where its treated alg2
# run holds (N = 60, L2 1.33e-7) and diverges (N = 80, L2 0.328, growth
# 1.235 a step); and the anchored variant (alg1) at the two 1D points
# where stagewise (alg2) adds a growing mode above.  alg1 does not hold
# at every such point: 0.896 / 3.130 at CFL 0.8 (ROADMAP item 1)
@pytest.mark.parametrize("dim,C,D,n,cfl,mode", [
    # 0.9676 / 0.9676 for all three modes
    pytest.param(2, 0.1, 1.0, 60, 0.2, 'naive', id='heat2d-60-naive'),
    pytest.param(2, 0.1, 1.0, 60, 0.2, 'alg1', id='heat2d-60-alg1'),
    pytest.param(2, 0.1, 1.0, 60, 0.2, 'alg2', id='heat2d-60-alg2'),
    # 0.9756 / 0.9756
    pytest.param(2, 0.1, 1.0, 80, 0.2, 'naive', id='heat2d-80-naive'),
    pytest.param(2, 0.1, 1.0, 80, 0.2, 'alg1', id='heat2d-80-alg1'),
    # 0.9756 / 1.2382
    pytest.param(2, 0.1, 1.0, 80, 0.2, 'alg2', id='heat2d-80-alg2',
                 marks=_unstable("heat2d at N = 80, alg2")),
    # 0.9531 / 0.9531 and 0.9038 / 0.9038
    pytest.param(1, 1.0, 0.1, 40, 0.35, 'alg1',
                 id='1d-convective-cfl0.35-alg1'),
    pytest.param(1, 1.0, 2.0, 40, 0.4, 'alg1', id='1d-diffusive-cfl0.4-alg1'),
])
def test_no_growing_mode_matrix_free(dim, C, D, n, cfl, mode):
    # no mode adds a growing mode to the naive rho, and naive is below 1
    naive, rho = (step_radius(dim, C, D, n, cfl, m) for m in ('naive', mode))
    assert rho < 1.0 and rho <= naive + 1e-3, (naive, rho)


def test_amplification_matrix_is_the_step_map():
    # with zero data the step is linear, treated boundary included: M
    # applied to a field is one step from it
    mat = amplification_matrix(1, 1.0, 0.1, 8, 0.3, 'alg2')
    integ = linear_stepper(1, 1.0, 0.1, 8, 'alg2')
    u = np.random.default_rng(7).standard_normal((8, integ.basis.p))
    want = integ.step(u, 0.0, 0.3 * integ.mesh.dx).reshape(-1)
    np.testing.assert_allclose(mat @ u.reshape(-1), want,
                               rtol=0, atol=1e-12 * np.max(np.abs(want)))
