"""Problem registry: manufactured solutions really solve their PDEs."""

import copy

import numpy as np
import pytest

from ldgimex.imex import builtin_tableau
from ldgimex.mesh import build_mesh
from ldgimex.problems import (ProblemSpec, boundary_data_check,
                              builtin_problem, residual_check)
from ldgimex.quadrature import build_basis
from ldgimex.treatment import treated_boundary

ALL = ['heat1d', 'burgers1d', 'heat2d', 'heat1d_o4']


@pytest.mark.parametrize("name", ALL)
def test_exact_solution_satisfies_the_pde(name):
    # central differences with step h leave an O(h^2) truncation footprint
    # plus an O(eps/h^2) roundoff floor; h = 1e-4 balances both near 1e-7,
    # while a wrong flux, source, or diffusion coefficient scores O(1)
    assert residual_check(builtin_problem(name), samples=40, step=1e-4) < 1e-6


@pytest.mark.parametrize("name", ALL)
def test_boundary_trace_matches_exact_solution(name):
    prob = builtin_problem(name)
    ts = np.linspace(0.0, prob.T, 7)
    if prob.dim == 1:
        a, b = prob.bounds
        for t in ts:
            assert abs(prob.omega(a, t) - prob.exact(a, t)) < 1e-14
            assert abs(prob.omega(b, t) - prob.exact(b, t)) < 1e-14
    else:
        (a1, b1), (a2, b2) = prob.bounds
        for t in ts:
            for x, y in ((a1, 0.3), (b1, -0.2), (0.1, a2), (-0.4, b2)):
                assert abs(prob.omega(x, y, t) - prob.exact(x, y, t)) < 1e-14


@pytest.mark.parametrize("name", ALL)
def test_omega_time_derivatives_match_finite_differences(name):
    prob = builtin_problem(name)
    h = 1e-5
    pts_t = np.linspace(0.17, 1.9, 5)
    if prob.dim == 1:
        spots = [(prob.bounds[0],), (prob.bounds[1],)]
    else:
        spots = [(prob.bounds[0][0], 0.25), (0.4, prob.bounds[1][1])]
    for xy in spots:
        for t in pts_t:
            fd1 = (prob.omega(*xy, t + h) - prob.omega(*xy, t - h)) / (2 * h)
            assert abs(prob.omega_t(*xy, t) - fd1) < 1e-8
            if prob.omega_tt is not None:
                fd2 = (prob.omega(*xy, t + h) - 2 * prob.omega(*xy, t)
                       + prob.omega(*xy, t - h)) / h ** 2
                assert abs(prob.omega_tt(*xy, t) - fd2) < 1e-5


@pytest.mark.parametrize("name", ALL)
def test_flux_derivatives_match_finite_differences(name):
    prob = builtin_problem(name)
    us = np.linspace(-1.5, 1.5, 9)
    h = 1e-6
    pairs = []
    if prob.dim == 1:
        pairs.append((prob.f, prob.fprime, prob.fsecond))
    else:
        pairs.append((prob.f1, prob.f1prime, prob.f1second))
        pairs.append((prob.f2, prob.f2prime, prob.f2second))
    for f, fp, fpp in pairs:
        fd = (f(us + h) - f(us - h)) / (2 * h)
        np.testing.assert_allclose(fp(us), fd, atol=1e-8, rtol=0)
        if fpp is not None:
            fd2 = (f(us + h) - 2 * f(us) + f(us - h)) / h ** 2
            np.testing.assert_allclose(fpp(us), fd2, atol=1e-3, rtol=0)


@pytest.mark.parametrize("name", ALL)
def test_constant_shortcuts_agree_with_callables(name):
    prob = builtin_problem(name)
    us = np.linspace(-2.0, 2.0, 7)
    if prob.fprime_const is not None:
        fp = prob.fprime if prob.dim == 1 else prob.f1prime
        np.testing.assert_allclose(fp(us), prob.fprime_const,
                                   atol=1e-14, rtol=0)
    if prob.p_const is not None and prob.p is not None:
        if prob.dim == 1:
            vals = prob.p(np.linspace(*prob.bounds, 5), 0.8)
        else:
            vals = prob.p(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), 0.8)
        np.testing.assert_allclose(vals, prob.p_const, atol=1e-14, rtol=0)


def test_p_const_is_none_when_p_varies():
    prob = builtin_problem('burgers1d')   # p depends on x and t
    assert prob.p_const is None
    assert prob.fprime_const is None      # f' = u is not constant either


def test_source_derives_from_p():
    prob = builtin_problem('heat1d')
    x = np.linspace(-1, 1, 5)
    u = np.sin(x)
    np.testing.assert_allclose(prob.h(u, x, 0.3), prob.p(x, 0.3) * u,
                               atol=0, rtol=0)


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown problem"):
        builtin_problem('kdv')


def test_spec_rejects_unknown_fields():
    with pytest.raises(TypeError, match="unknown fields"):
        ProblemSpec('x', 1, (0.0, 1.0), 1.0, 1.0, 0.1, 2, banana=1)
    with pytest.raises(TypeError, match="unknown fields"):
        ProblemSpec('x', 1, (0.0, 1.0), 1.0, 1.0, 0.1, 2, h_x=None)


def test_residual_check_flags_a_wrong_definition():
    prob = builtin_problem('heat1d')
    broken = ProblemSpec('broken', 1, prob.bounds, 2.0 * prob.d_coef,
                         prob.T, prob.cfl, prob.degree,
                         f=prob.f, fprime=prob.fprime, p=prob.p,
                         exact=prob.exact)
    assert residual_check(broken) > 1e-2


def test_residual_check_flags_a_wrong_definition_2d():
    prob = builtin_problem('heat2d')
    broken = ProblemSpec('broken2d', 2, prob.bounds, 2.0 * prob.d_coef,
                         prob.T, prob.cfl, prob.degree,
                         f1=prob.f1, f1prime=prob.f1prime,
                         f2=prob.f2, f2prime=prob.f2prime, p=prob.p,
                         exact=prob.exact)
    assert residual_check(prob) < 1e-4
    assert residual_check(broken) > 1e-2


def _boundary_setup(prob, n=6):
    """Mesh, basis and all boundary points (one flat array per axis)."""
    mesh = build_mesh(prob.bounds, n if prob.dim == 1 else (n, n))
    basis = build_basis(prob.degree)
    points = list(mesh.boundary_points(basis).values())
    coords = [np.concatenate([np.ravel(pt[a]) for pt in points])
              for a in range(prob.dim)]
    return mesh, basis, coords


@pytest.mark.parametrize("name", ALL)
def test_boundary_data_check_passes_the_builtins(name):
    prob = builtin_problem(name)
    _, _, coords = _boundary_setup(prob)
    got = boundary_data_check(prob, coords)
    fields = ['omega_t', 'omega_tt', 'p_x', 'p_y'][:2 + prob.dim]
    assert sorted(got) == sorted(f for f in fields
                                 if getattr(prob, f) is not None)
    assert max(got.values()) < 1e-7


def _varying_p_2d():
    # heat2d with p = 1 + x y e^{-t}, so that the treatment samples p_y
    prob = copy.copy(builtin_problem('heat2d'))
    prob.p = lambda x, y, t: 1.0 + x * y * np.exp(-t)
    prob.p_x = lambda x, y, t: y * np.exp(-t)
    prob.p_y = lambda x, y, t: x * np.exp(-t)
    prob.p_const = None
    return prob


WRONG_FIELDS = {
    # heat1d's omega_t without the C cos term
    'omega_t': ('heat1d', lambda x, t: -np.exp(-t) * np.sin(x + 0.1 * t)),
    # heat1d_o4's omega_tt without its C terms
    'omega_tt': ('heat1d_o4', lambda x, t: np.exp(-t) * np.sin(x + 0.1 * t)),
    # burgers1d's p_x with the sign flipped
    'p_x': ('burgers1d', lambda x, t: np.exp(-t) * np.sin(x)),
    # p_x in place of p_y
    'p_y': (_varying_p_2d, lambda x, y, t: y * np.exp(-t)),
}


@pytest.mark.parametrize("field", sorted(WRONG_FIELDS))
def test_a_wrong_derivative_field_is_refused(field):
    source, wrong = WRONG_FIELDS[field]
    prob = builtin_problem(source) if isinstance(source, str) else source()
    mesh, basis, coords = _boundary_setup(prob)
    tableau = builtin_tableau(prob.tableau)
    treated_boundary(prob, mesh, basis, tableau)   # the right one passes
    setattr(prob, field, wrong)
    with pytest.raises(ValueError, match="^%s disagrees" % field):
        boundary_data_check(prob, coords)
    with pytest.raises(ValueError, match="^%s disagrees" % field):
        treated_boundary(prob, mesh, basis, tableau)


def test_stated_parameters():
    heat = builtin_problem('heat1d')
    assert (heat.dim, heat.d_coef, heat.T, heat.cfl, heat.degree,
            heat.tableau) == (1, 2.0, 5.0, 0.25, 2, 'ark3')
    burg = builtin_problem('burgers1d')
    assert (burg.dim, burg.d_coef, burg.cfl, burg.tableau) == \
        (1, 2.0, 0.4, 'ark3')
    h2 = builtin_problem('heat2d')
    assert (h2.dim, h2.d_coef, h2.cfl) == (2, 1.0, 0.2)
    o4 = builtin_problem('heat1d_o4')
    assert (o4.dim, o4.d_coef, o4.cfl, o4.degree, o4.tableau) == \
        (1, 1.0, 0.25, 3, 'ark4')
