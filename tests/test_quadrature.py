"""Quadrature rule and nodal basis: exactness and trace properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldgimex.quadrature import (NodalBasis, build_basis, gauss_legendre,
                                interpolate)
from ldgimex.mesh import build_mesh


@pytest.mark.parametrize("n", range(1, 17))
def test_nodes_weights_match_reference_rule(n):
    # numpy's leggauss is the oracle; our rule must agree to roundoff
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, xr, atol=1e-13, rtol=0)
    np.testing.assert_allclose(w, wr, atol=1e-13, rtol=0)


@pytest.mark.parametrize("n", range(1, 17))
def test_rule_basics(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) < 1e-14
    # symmetric rule
    np.testing.assert_allclose(x, -x[::-1], atol=1e-15, rtol=0)
    np.testing.assert_allclose(w, w[::-1], atol=1e-15, rtol=0)


@given(n=st.integers(1, 10), d=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_rule_exact_up_to_degree_2n_minus_1(n, d):
    x, w = gauss_legendre(n)
    approx = float(w @ x ** d)
    exact = 0.0 if d % 2 else 2.0 / (d + 1)
    if d <= 2 * n - 1:
        assert abs(approx - exact) < 1e-13
    elif d % 2 == 0 and d <= 2 * n:
        # first even degree beyond exactness must show a real error
        assert abs(approx - exact) > 1e-8


def test_rule_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(17)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_diff_matrix_exact_on_basis_degree(k):
    basis = build_basis(k)
    rng = np.random.default_rng(k)
    coeffs = rng.standard_normal(k + 1)
    poly = np.polynomial.Polynomial(coeffs)
    vals = poly(basis.nodes)
    dvals = poly.deriv()(basis.nodes)
    np.testing.assert_allclose(basis.diff_matrix @ vals, dvals,
                               atol=1e-12, rtol=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_vectors_evaluate_endpoints(k):
    basis = build_basis(k)
    rng = np.random.default_rng(10 + k)
    poly = np.polynomial.Polynomial(rng.standard_normal(k + 1))
    vals = poly(basis.nodes)
    assert abs(basis.phi_left @ vals - poly(-1.0)) < 1e-12
    assert abs(basis.phi_right @ vals - poly(1.0)) < 1e-12


def test_build_basis_is_one_object_per_degree():
    # every level of a study shares its degree's basis
    assert build_basis(2) is build_basis(2)
    assert build_basis(3) is not build_basis(2)
    assert build_basis(3).k == 3
    with pytest.raises(ValueError, match="read-only"):
        build_basis(2).weights[0] = 0.0


@given(k=st.integers(1, 4), order=st.integers(0, 4),
       xi=st.floats(-1, 1), seed=st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_derivative_values_match_polynomial_calculus(k, order, xi, seed):
    basis = NodalBasis(k)
    rng = np.random.default_rng(seed)
    poly = np.polynomial.Polynomial(rng.standard_normal(k + 1))
    vals = poly(basis.nodes)
    if order > k:
        with pytest.raises(ValueError):
            basis.derivative_values(vals, xi, order)
        return
    want = poly.deriv(order)(xi) if order else poly(xi)
    got = basis.derivative_values(vals, xi, order) if order \
        else basis.values(vals, xi)
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_collocation_mass_matrix_is_diagonal_rule():
    # integrating phi_a * phi_b by the node rule gives w_a delta_ab
    basis = build_basis(3)
    eye = np.eye(basis.p)
    mass = np.einsum('q,aq,bq->ab', basis.weights, eye, eye)
    np.testing.assert_allclose(mass, np.diag(basis.weights),
                               atol=1e-15, rtol=0)


def test_basis_values_off_the_nodes():
    basis = build_basis(2)
    vals = basis.nodes ** 2
    assert abs(basis.values(vals, 0.3) - 0.09) < 1e-13
    assert abs(basis.derivative_values(vals, 0.3, 1) - 0.6) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_edge_rows_are_the_left_edge_derivatives(k):
    # built once per degree from the same polynomial calculus, and shared
    # read-only like the basis's other arrays
    basis = build_basis(k)
    eye = np.eye(basis.p)
    want = [basis.values(eye, -1.0)] + [
        basis.derivative_values(eye, -1.0, order) for order in range(1, k + 1)]
    assert basis.edge_rows.shape == (k + 1, basis.p)
    for row, w in zip(basis.edge_rows, want):
        assert np.array_equal(row, w)
    assert not basis.edge_rows.flags.writeable


def test_basis_rejects_degree_zero():
    with pytest.raises(ValueError):
        build_basis(0)


def test_interpolate_1d_hits_nodes():
    basis = build_basis(2)
    mesh = build_mesh((-1.0, 1.0), 4)
    u = interpolate(np.sin, mesh, basis)
    assert u.shape == (4, 3)
    np.testing.assert_allclose(u, np.sin(*mesh.node_coords(basis)),
                               atol=0, rtol=0)


def test_interpolate_2d_hits_nodes():
    basis = build_basis(2)
    mesh = build_mesh(((-1.0, 1.0), (0.0, 2.0)), (3, 5))
    u = interpolate(lambda x, y: x * y, mesh, basis)
    x, y = mesh.node_coords(basis)
    assert u.shape == (3, 3, 5, 3)
    np.testing.assert_allclose(u, x * y, atol=0, rtol=0)
