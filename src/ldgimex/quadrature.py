"""Gauss-Legendre quadrature and nodal Lagrange bases on the reference cell [-1, 1]."""

from functools import lru_cache

import numpy as np


def _legendre(n, x):
    """Evaluate the Legendre polynomial P_n and its derivative at x.

    Uses the three-term recurrence for P_n and the standard identity
    (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x)).

    Args:
        n: polynomial degree (>= 1).
        x: scalar or array of evaluation points with |x| < 1.

    Returns:
        (P_n(x), P_n'(x)) pair.
    """
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = n * (p_prev - x * p) / (1.0 - x * x)
    return p, dp


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Roots of P_n are found by Newton iteration started from the Chebyshev
    approximations cos(pi (4i + 3) / (4n + 2)); the iteration reaches machine
    precision in a handful of steps.  Weights are w = 2 / ((1 - x^2) P_n'^2).

    Args:
        n: number of quadrature points, 1 <= n <= 16.

    Returns:
        (nodes, weights) as float arrays, nodes ascending.  The rule
        integrates polynomials of degree <= 2n - 1 exactly.
    """
    if not 1 <= n <= 16:
        raise ValueError("gauss_legendre: n must be in [1, 16], got %r" % (n,))
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    i = np.arange(n)
    x = np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce exact symmetry about the origin
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return x[order], w[order]


class NodalBasis:
    """Degree-k Lagrange basis on the (k + 1)-point Gauss-Legendre nodes.

    The nodal values of a polynomial double as its quadrature samples, so all
    volume and face integrals collocate and the element mass matrix is
    diagonal.  Conversion between nodal values and monomial coefficients uses
    the (tiny, well-conditioned) Vandermonde matrix of the nodes.

    Attributes:
        k: polynomial degree.
        p: number of nodes, k + 1.
        nodes, weights: the underlying quadrature rule.
        diff_matrix: (p, p) matrix; row a holds phi_b'(node_a), so it maps
            nodal values to nodal values of the derivative on [-1, 1].
        phi_left, phi_right: basis values at -1 and +1 (trace vectors).
        edge_rows: (k + 1, p) array; row m holds the m-th derivatives of
            the basis functions at -1 on [-1, 1] (row 0 their values), so
            it maps nodal values to the derivatives at the left edge.
    """

    def __init__(self, k):
        if k < 1:
            raise ValueError("NodalBasis: degree k must be >= 1, got %r" % (k,))
        self.k = k
        self.p = k + 1
        self.nodes, self.weights = gauss_legendre(self.p)
        vander = np.vander(self.nodes, self.p, increasing=True)
        self._to_coeffs = np.linalg.inv(vander)  # nodal values -> monomial coeffs
        self.diff_matrix = self.derivative_values(np.eye(self.p), self.nodes, 1).T
        self.phi_left = self.values(np.eye(self.p), -1.0).T
        self.phi_right = self.values(np.eye(self.p), 1.0).T
        self.edge_rows = np.array(
            [self.values(np.eye(self.p), -1.0)]
            + [self.derivative_values(np.eye(self.p), -1.0, order)
               for order in range(1, k + 1)])

    def _coeffs(self, nodal_values):
        """Monomial coefficients, axis -1 of nodal_values being the node axis."""
        return np.tensordot(np.asarray(nodal_values, dtype=float),
                            self._to_coeffs, axes=([-1], [1]))

    def values(self, nodal_values, xi):
        """Evaluate the interpolating polynomial at xi (scalar or array)."""
        c = np.moveaxis(self._coeffs(nodal_values), -1, 0)
        return np.polynomial.polynomial.polyval(xi, c)

    def derivative_values(self, nodal_values, xi, order=1):
        """Evaluate the order-th derivative of the interpolant at xi."""
        if order > self.k:
            raise ValueError(
                "derivative order %d exceeds basis degree %d" % (order, self.k))
        c = np.moveaxis(self._coeffs(nodal_values), -1, 0)
        c = np.polynomial.polynomial.polyder(c, m=order, axis=0)
        return np.polynomial.polynomial.polyval(xi, c)


@lru_cache(maxsize=None)
def build_basis(k):
    """Nodal basis of degree k on the (k + 1)-point Gauss-Legendre nodes.

    One basis per degree is built and shared by every caller, so its
    arrays are made read-only."""
    basis = NodalBasis(k)
    for value in vars(basis).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return basis


def interpolate(f, mesh, basis):
    """Interpolate a function onto the mesh at the mapped quadrature nodes.

    Args:
        f: callable of one coordinate array per axis, (x,) in 1D or (x, y)
            in 2D, vectorized over arrays.
        mesh: a mesh from ldgimex.mesh.
        basis: NodalBasis shared by both directions.

    Returns:
        Nodal coefficient array of shape (n, p) in 1D or (n, p, m, p) in
        2D, (cell, node) per axis: the flat dof vector reshaped.  A value
        that does not vary with every coordinate, a constant say, is
        broadcast to that shape.
    """
    coords = mesh.node_coords(basis)
    values = np.asarray(f(*coords), dtype=float)
    if values.shape != coords[0].shape:
        values = np.broadcast_to(values, coords[0].shape).copy()
    return values
