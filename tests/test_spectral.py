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
Xeon core); N = 10 in 2D would take about 5 s.
"""

import numpy as np
import pytest

from ldgimex.imex import ImexIntegrator, builtin_tableau
from ldgimex.mesh import build_mesh
from ldgimex.problems import ProblemSpec
from ldgimex.quadrature import build_basis
from ldgimex.treatment import treated_boundary

ARK3 = builtin_tableau('ark3')


def _zero(*coords_t):
    return 0.0 * coords_t[0]


def linear_stepper(dim, C, D, n, bc):
    """The integrator on [-1, 1]^dim with n cells per axis for the flux
    -C u, diffusion D and zero Dirichlet data, naive or treated (bc)."""
    prob = ProblemSpec('amplification', [(-1.0, 1.0)] * dim, D, 1.0, 1.0, 2,
                       fluxes=[-C] * dim, omega=_zero, omega_t=_zero)
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, n)
    ctrl = (treated_boundary(prob, mesh, basis, ARK3)
            if bc == 'treated' else None)
    return ImexIntegrator(prob, mesh, basis, tableau=ARK3, controller=ctrl)


def amplification_matrix(dim, C, D, n, cfl, bc):
    """M of one step of size CFL * cell width (see linear_stepper)."""
    integ = linear_stepper(dim, C, D, n, bc)
    diff = integ.diffusion
    tau = cfl * integ.mesh.min_width
    cols = [diff.flatten(integ.step(diff.unflatten(e), 0.0, tau))
            for e in np.eye(diff.L.shape[0])]
    return np.array(cols).T


def spectral_radius(mat):
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


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
        spectral_radius(amplification_matrix(dim, C, D, n, cfl, bc))
        for bc in ('naive', 'treated'))
    assert treated <= naive + 1e-3, (naive, treated)


def test_amplification_matrix_is_the_step_map():
    # with zero data the step is linear, treated boundary included: M
    # applied to a field is one step from it
    mat = amplification_matrix(1, 1.0, 0.1, 8, 0.3, 'treated')
    integ = linear_stepper(1, 1.0, 0.1, 8, 'treated')
    u = np.random.default_rng(7).standard_normal((8, integ.basis.p))
    want = integ.diffusion.flatten(integ.step(u, 0.0, 0.3 * integ.mesh.dx))
    np.testing.assert_allclose(mat @ integ.diffusion.flatten(u), want,
                               rtol=0, atol=1e-12 * np.max(np.abs(want)))
