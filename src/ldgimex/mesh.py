"""Uniform Cartesian meshes in 1D and 2D with node and boundary coordinates."""

import numpy as np


class Mesh1D:
    """N equal cells tiling [a, b]; its only axis is itself: axes = (self,)."""

    dim = 1

    def __init__(self, a, b, n):
        if n < 1:
            raise ValueError("Mesh1D: need at least one cell, got n=%r" % (n,))
        if not b > a:
            raise ValueError("Mesh1D: bounds must be ordered, got [%r, %r]" % (a, b))
        self.a = float(a)
        self.b = float(b)
        self.n = int(n)
        self.dx = (self.b - self.a) / self.n
        self.min_width = self.dx
        self.axes = (self,)

    def centers(self):
        return self.a + self.dx * (np.arange(self.n) + 0.5)

    def node_coords(self, basis):
        """Physical quadrature-node coordinates, one array per axis.

        Returns the 1-tuple (x,) with x of shape (n, p), so 1D and 2D
        callers alike call problem functions as fn(*coords, t).
        """
        x = self.centers()[:, None] + 0.5 * self.dx * basis.nodes[None, :]
        return (x,)

    def boundary_points(self, basis=None):
        """Boundary point coordinates per side: the endpoints, as (x,)."""
        return {'west': (self.a,), 'east': (self.b,)}


class Mesh2D:
    """N x M equal rectangles tiling [a1, b1] x [a2, b2]."""

    dim = 2

    def __init__(self, a1, b1, a2, b2, n, m):
        if n < 1 or m < 1:
            raise ValueError("Mesh2D: need at least one cell per direction")
        if not (b1 > a1 and b2 > a2):
            raise ValueError("Mesh2D: bounds must be ordered")
        self.x = Mesh1D(a1, b1, n)
        self.y = Mesh1D(a2, b2, m)
        self.n = self.x.n
        self.m = self.y.n
        self.dx = self.x.dx
        self.dy = self.y.dx
        self.min_width = min(self.dx, self.dy)
        self.axes = (self.x, self.y)

    def node_coords(self, basis):
        """Physical node coordinates (X, Y), each shaped (n, p, m, p) like
        a field: (cell, node) along x, then along y."""
        xn, = self.x.node_coords(basis)  # (n, p)
        yn, = self.y.node_coords(basis)  # (m, p)
        shape = (self.n, basis.p, self.m, basis.p)
        x = np.broadcast_to(xn[:, :, None, None], shape).copy()
        y = np.broadcast_to(yn[None, None], shape).copy()
        return x, y

    def boundary_points(self, basis):
        """Boundary node coordinates per side as (x, y) array pairs.

        West/east faces hold the (m, p) nodes along y, south/north the
        (n, p) nodes along x, matching the boundary data layout (see imex).
        """
        xc, = self.x.node_coords(basis)
        yc, = self.y.node_coords(basis)
        return {'west': (np.full_like(yc, self.x.a), yc),
                'east': (np.full_like(yc, self.x.b), yc),
                'south': (xc, np.full_like(xc, self.y.a)),
                'north': (xc, np.full_like(xc, self.y.b))}


def axis_bounds(bounds):
    """One (a, b) float pair per axis; a 1D (a, b) is read as one pair."""
    if np.ndim(bounds[0]) == 0:
        bounds = (bounds,)
    return tuple((float(a), float(b)) for a, b in bounds)


_MESHES = {1: Mesh1D, 2: Mesh2D}


def build_mesh(bounds, counts):
    """Mesh1D or Mesh2D over bounds, one (a, b) pair per axis (see
    axis_bounds), with counts cells per axis, one int for every axis."""
    pairs = axis_bounds(bounds)
    if np.ndim(counts) == 0:
        counts = (counts,) * len(pairs)
    if len(counts) != len(pairs) or len(pairs) not in _MESHES:
        raise ValueError("build_mesh: need one cell count per axis for 1 "
                         "or 2 axes, got %r and %r" % (bounds, counts))
    return _MESHES[len(pairs)](*(v for pair in pairs for v in pair), *counts)
