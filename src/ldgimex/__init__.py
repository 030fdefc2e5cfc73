"""LDG space discretization + IMEX-RK time stepping on Cartesian meshes.

Solves u_t + sum_a f_a(u)_a = D lap(u) + h(u, x, t) in 1D and 2D with
time-dependent Dirichlet data, either sampling the boundary trace naively
at stage times or running the high-order stage-boundary treatment that
removes the resulting order reduction.  Problem data (ProblemSpec), meshes,
operators and boundary data hold one entry per axis, in axis order.

Typical use::

    from ldgimex import (builtin_problem, build_basis, build_mesh,
                         builtin_tableau, ImexIntegrator, treated_boundary,
                         interpolate, norms)

    prob = builtin_problem('heat1d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 40)
    tab = builtin_tableau(prob.tableau)
    ctrl = treated_boundary(prob, mesh, basis, tab)
    integ = ImexIntegrator(prob, mesh, basis, tableau=tab, controller=ctrl)
    u0 = interpolate(lambda x: prob.exact(x, 0.0), mesh, basis)
    u, info = integ.integrate(u0, 0.0, prob.T, 0.25 * mesh.dx)
    print(norms(u, prob.exact, mesh, basis, prob.T))

The harness module adds convergence/efficiency drivers behind the
``artifact`` command line.
"""

from .quadrature import NodalBasis, build_basis, gauss_legendre, interpolate
from .mesh import Mesh1D, Mesh2D, build_mesh
from .problems import (ProblemSpec, boundary_data_check, builtin_problem,
                       residual_check)
from .operators import (build_diffusion, explicit_rhs, lax_friedrichs,
                        llf_alpha, norms)
from .imex import (ImexIntegrator, ImexTableau, NaiveBoundary,
                   builtin_tableau, validate_tableau)
from .treatment import treated_boundary
from .harness import (ConvergenceReport, NumericFailure, RunConfig,
                      error_localization, run_convergence, run_efficiency,
                      run_single)

__version__ = '0.1.0'

__all__ = [
    'ConvergenceReport', 'ImexIntegrator', 'ImexTableau', 'Mesh1D', 'Mesh2D',
    'NaiveBoundary', 'NodalBasis', 'NumericFailure', 'ProblemSpec',
    'RunConfig', 'boundary_data_check', 'build_basis', 'build_diffusion',
    'build_mesh', 'builtin_problem', 'builtin_tableau', 'error_localization',
    'explicit_rhs', 'gauss_legendre', 'interpolate', 'lax_friedrichs',
    'llf_alpha', 'norms', 'residual_check', 'run_convergence',
    'run_efficiency', 'run_single', 'treated_boundary', 'validate_tableau',
]
