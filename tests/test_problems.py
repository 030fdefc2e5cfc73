"""Problem registry: manufactured solutions really solve their PDEs."""

import copy
import re

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


def _side_points(prob):
    """One point on each side: per axis, its low and its high end, with
    the other coordinates inside the domain."""
    for a, ends in enumerate(prob.bounds):
        for end, inside in zip(ends, (0.3, -0.2)):
            point = [inside] * prob.dim
            point[a] = end
            yield tuple(point)


@pytest.mark.parametrize("name", ALL)
def test_boundary_trace_matches_exact_solution(name):
    prob = builtin_problem(name)
    for t in np.linspace(0.0, prob.T, 7):
        for xy in _side_points(prob):
            assert abs(prob.omega(*xy, t) - prob.exact(*xy, t)) < 1e-14


@pytest.mark.parametrize("name", ALL)
def test_omega_time_derivatives_match_finite_differences(name):
    prob = builtin_problem(name)
    h = 1e-5
    pts_t = np.linspace(0.17, 1.9, 5)
    for xy in _side_points(prob):
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
    assert any(f is not None for f, _, _ in prob.fluxes)
    for f, fp, fpp in prob.fluxes:
        if f is None:
            continue
        fd = (f(us + h) - f(us - h)) / (2 * h)
        np.testing.assert_allclose(fp(us), fd, atol=1e-8, rtol=0)
        if fpp is not None:
            fd2 = (f(us + h) - 2 * f(us) + f(us - h)) / h ** 2
            np.testing.assert_allclose(fpp(us), fd2, atol=1e-3, rtol=0)


@pytest.mark.parametrize("name", ALL)
def test_constant_shortcuts_agree_with_callables(name):
    # the speeds stand in for f' and f'' in the boundary treatment
    prob = builtin_problem(name)
    us = np.linspace(-2.0, 2.0, 7)
    for (f, fp, fpp), speed in zip(prob.fluxes, prob.speeds):
        if speed is not None and f is not None:
            np.testing.assert_array_equal(fp(us), speed)
            np.testing.assert_array_equal(fpp(us), 0.0)
            np.testing.assert_array_equal(f(us), speed * us)


def test_speeds_are_none_for_a_callable_flux():
    burg = builtin_problem('burgers1d')     # f' = u, p varies with x, t
    assert burg.speeds == (None,) and callable(burg.p)
    assert builtin_problem('heat1d').speeds == (-0.1,)
    assert builtin_problem('heat2d').speeds == (-0.1, -0.1)
    x_only = ProblemSpec('x_only', ((-1, 1), (-1, 1)), 1.0, 1.0, 0.2, 2,
                         fluxes=[-0.1, (None, None, None)])
    assert x_only.speeds == (-0.1, 0.0)


def test_replacing_the_fluxes_leaves_no_stale_speeds():
    # speeds are read off the fluxes, not stored beside them
    heat = copy.copy(builtin_problem('heat1d'))
    heat.fluxes = ((lambda u: -0.1 * u, lambda u: -0.1 + 0.0 * u,
                    lambda u: 0.0 * u),)
    assert heat.speeds == (None,)


def test_source_derives_from_p():
    x = np.linspace(-1, 1, 5)
    u = np.sin(x)
    heat = builtin_problem('heat1d')        # p = D - 1, a number
    assert heat.p == 1.0 and heat.p_grad == (None,)
    np.testing.assert_array_equal(heat.h(u, x, 0.3), heat.p * u)
    burg = builtin_problem('burgers1d')     # p varies with x and t
    np.testing.assert_array_equal(burg.h(u, x, 0.3), burg.p(x, 0.3) * u)


def test_a_source_given_as_both_p_and_h_is_refused():
    # explicit_rhs reads h while the treatment reads p: given both, they
    # could disagree without a sign (burgers1d with h = 2 p u ran, naive
    # and treated alike)
    burg = builtin_problem('burgers1d')
    with pytest.raises(ValueError, match="as p .* or as h, not both"):
        ProblemSpec('twice', burg.bounds, burg.d_coef, burg.T, burg.cfl,
                    burg.degree, fluxes=burg.fluxes, p=burg.p,
                    p_grad=burg.p_grad,
                    h=lambda u, x, t: 2.0 * burg.p(x, t) * u,
                    exact=burg.exact, omega_t=burg.omega_t)
    with pytest.raises(ValueError, match="a number p takes no p_grad"):
        ProblemSpec('grad', (-1.0, 1.0), 1.0, 1.0, 0.25, 2, p=1.0,
                    p_grad=[lambda x, t: 0.0 * x])


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown problem"):
        builtin_problem('kdv')


def test_spec_rejects_unknown_fields():
    with pytest.raises(TypeError, match="unknown fields"):
        ProblemSpec('x', (0.0, 1.0), 1.0, 1.0, 0.1, 2, banana=1)
    with pytest.raises(TypeError, match="unknown fields"):
        ProblemSpec('x', (0.0, 1.0), 1.0, 1.0, 0.1, 2, h_x=None)
    # per-axis data has one field each: fluxes and p_grad
    for old in ('f', 'fprime', 'f1', 'f2prime', 'p_x', 'p_y', 'dim'):
        with pytest.raises(TypeError, match="unknown fields"):
            ProblemSpec('x', (0.0, 1.0), 1.0, 1.0, 0.1, 2, **{old: None})


def test_spec_reads_the_dimension_from_bounds():
    line = ProblemSpec('x', (0.0, 1.0), 1.0, 1.0, 0.1, 2)
    assert line.bounds == ((0.0, 1.0),) and line.dim == 1
    assert line.fluxes == ((None, None, None),)
    assert line.p_grad == (None,)
    square = ProblemSpec('y', ((0, 1), (-1, 2)), 1.0, 1.0, 0.1, 2)
    assert square.bounds == ((0.0, 1.0), (-1.0, 2.0)) and square.dim == 2
    assert square.fluxes == ((None, None, None),) * 2
    assert square.p_grad == (None, None)
    heat = builtin_problem('heat2d')
    assert heat.fluxes is heat.fluxes   # stored, not rebuilt per read
    # the settable fields; speeds and dim are derived
    assert len(vars(heat)) == 16


@pytest.mark.parametrize("name", ['heat1d', 'heat2d'])
def test_a_flux_without_its_derivative_is_refused(name):
    # the last axis has f but no f' (it used to fail late, as a call of
    # None inside llf_alpha)
    heat = builtin_problem(name)
    fluxes = list(heat.fluxes)
    fluxes[-1] = (fluxes[-1][0], None, None)
    with pytest.raises(ValueError, match="axis %d has a flux f but no "
                                         "derivative f'" % (heat.dim - 1)):
        ProblemSpec('nofp', heat.bounds, heat.d_coef, heat.T, heat.cfl,
                    heat.degree, fluxes=fluxes, p=heat.p, p_grad=heat.p_grad,
                    exact=heat.exact, omega_t=heat.omega_t)


def test_per_axis_fields_need_one_entry_per_axis():
    heat = builtin_problem('heat2d')
    for field in ({'fluxes': heat.fluxes[:1]}, {'p_grad': heat.p_grad[:1]}):
        with pytest.raises(ValueError, match="one entry per axis"):
            ProblemSpec('short', heat.bounds, 1.0, 1.0, 0.2, 2, **field)


def _doubled_diffusion(prob):
    return ProblemSpec('broken', prob.bounds, 2.0 * prob.d_coef, prob.T,
                       prob.cfl, prob.degree, fluxes=prob.fluxes, p=prob.p,
                       exact=prob.exact)


def test_residual_check_flags_a_wrong_definition():
    broken = _doubled_diffusion(builtin_problem('heat1d'))
    assert residual_check(broken) > 1e-2


def test_residual_check_flags_a_wrong_definition_2d():
    prob = builtin_problem('heat2d')
    assert residual_check(prob) < 1e-4
    assert residual_check(_doubled_diffusion(prob)) > 1e-2


def _boundary_setup(prob, n=6):
    """Mesh, basis and all boundary points (one flat array per axis)."""
    mesh = build_mesh(prob.bounds, n)
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
    want = [n for n in ('omega_t', 'omega_tt')
            if getattr(prob, n) is not None]
    if callable(prob.p):
        want += ['p_grad[%d]' % a for a in range(prob.dim)]
    assert sorted(got) == sorted(want)
    assert max(got.values()) < 1e-7


def _varying_p_2d():
    # heat2d with p = 1 + x y e^{-t}, so that the treatment samples the
    # gradient of p on both axes
    heat = builtin_problem('heat2d')
    return ProblemSpec(
        'varying_p_2d', heat.bounds, heat.d_coef, heat.T, heat.cfl,
        heat.degree, fluxes=heat.fluxes,
        p=lambda x, y, t: 1.0 + x * y * np.exp(-t),
        p_grad=[lambda x, y, t: y * np.exp(-t),
                lambda x, y, t: x * np.exp(-t)],
        exact=heat.exact, omega_t=heat.omega_t)


# field, the axis of a p_grad entry, and a wrong definition
WRONG_FIELDS = {
    # heat1d's omega_t without the C cos term
    'omega_t': ('heat1d', None,
                lambda x, t: -np.exp(-t) * np.sin(x + 0.1 * t)),
    # heat1d_o4's omega_tt without its C terms
    'omega_tt': ('heat1d_o4', None,
                 lambda x, t: np.exp(-t) * np.sin(x + 0.1 * t)),
    # burgers1d's p gradient with the sign flipped
    'p_x': ('burgers1d', 0, lambda x, t: np.exp(-t) * np.sin(x)),
    # the x derivative of p in place of the y derivative
    'p_y': (_varying_p_2d, 1, lambda x, y, t: y * np.exp(-t)),
}


@pytest.mark.parametrize("field", sorted(WRONG_FIELDS))
def test_a_wrong_derivative_field_is_refused(field):
    source, axis, wrong = WRONG_FIELDS[field]
    prob = builtin_problem(source) if isinstance(source, str) else source()
    mesh, basis, coords = _boundary_setup(prob)
    tableau = builtin_tableau(prob.tableau)
    treated_boundary(prob, mesh, basis, tableau)   # the right one passes
    if axis is None:
        label = field
        setattr(prob, field, wrong)
    else:
        label = 'p_grad[%d]' % axis
        grads = list(prob.p_grad)
        grads[axis] = wrong
        prob.p_grad = tuple(grads)
    match = "^%s disagrees" % re.escape(label)
    with pytest.raises(ValueError, match=match):
        boundary_data_check(prob, coords)
    with pytest.raises(ValueError, match=match):
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
