"""Uniform mesh geometry: widths, node coordinates, boundary points."""

import numpy as np
import pytest

from ldgimex.mesh import Mesh1D, Mesh2D, build_mesh
from ldgimex.quadrature import build_basis


def breaks(mesh):
    """The n + 1 cell boundaries of a Mesh1D."""
    return mesh.a + mesh.dx * np.arange(mesh.n + 1)


def test_mesh1d_geometry():
    mesh = Mesh1D(-1.0, 3.0, 8)
    assert mesh.dx == 0.5
    assert mesh.min_width == 0.5
    np.testing.assert_allclose(breaks(mesh), -1.0 + 0.5 * np.arange(9))
    np.testing.assert_allclose(mesh.centers(), -0.75 + 0.5 * np.arange(8))


def test_mesh1d_node_coords_cover_cells():
    mesh = Mesh1D(-1.0, 1.0, 5)
    basis = build_basis(2)
    xs, = mesh.node_coords(basis)
    assert xs.shape == (5, 3)
    edges = breaks(mesh)
    for i in range(5):
        assert np.all(xs[i] > edges[i]) and np.all(xs[i] < edges[i + 1])


def test_mesh1d_validation():
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Mesh1D(1.0, 0.0, 4)


def test_mesh2d_geometry():
    mesh = Mesh2D(0.0, 1.0, -2.0, 2.0, 4, 8)
    assert mesh.dx == 0.25
    assert mesh.dy == 0.5
    assert mesh.min_width == 0.25
    assert (mesh.n, mesh.m) == (4, 8)


def test_mesh2d_node_coords_shapes():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 3, 2)
    basis = build_basis(2)
    x, y = mesh.node_coords(basis)
    assert x.shape == y.shape == (3, 3, 2, 3)
    # (cell, node) along x, then along y: x varies along axes 0 and 1 only,
    # y along axes 2 and 3 only
    for axis in (2, 3):
        assert np.allclose(np.diff(x, axis=axis), 0)
    for axis in (0, 1):
        assert np.allclose(np.diff(y, axis=axis), 0)
    np.testing.assert_array_equal(x[:, :, 0, 0], mesh.x.node_coords(basis)[0])
    np.testing.assert_array_equal(y[0, 0], mesh.y.node_coords(basis)[0])


@pytest.mark.parametrize("mesh", [Mesh1D(-1.0, 1.0, 5),
                                  Mesh2D(-1.0, 1.0, 0.0, 2.0, 3, 2)],
                         ids=['1d', '2d'])
def test_node_coords_give_one_field_shaped_array_per_axis(mesh):
    basis = build_basis(2)
    coords = mesh.node_coords(basis)
    assert isinstance(coords, tuple) and len(coords) == mesh.dim
    shape = tuple(s for ax in mesh.axes for s in (ax.n, basis.p))
    assert all(c.shape == shape for c in coords)


def test_boundary_faces_1d():
    mesh = Mesh1D(-1.0, 1.0, 6)
    assert mesh.boundary_points() == {'west': (-1.0,), 'east': (1.0,)}


def test_boundary_faces_2d_counts_and_coords():
    mesh = Mesh2D(-1.0, 1.0, -1.0, 1.0, 3, 4)
    basis = build_basis(2)
    points = mesh.boundary_points(basis)
    assert list(points) == ['west', 'east', 'south', 'north']
    for side, (x, y) in points.items():
        cells = 4 if side in ('west', 'east') else 3
        assert x.shape == y.shape == (cells, basis.p)
    assert np.all(points['west'][0] == -1.0)
    assert np.all(points['east'][0] == 1.0)
    assert np.all(points['south'][1] == -1.0)
    assert np.all(points['north'][1] == 1.0)
    np.testing.assert_array_equal(points['west'][1],
                                  mesh.y.node_coords(basis)[0])
    np.testing.assert_array_equal(points['north'][0],
                                  mesh.x.node_coords(basis)[0])


def test_build_mesh_dispatch():
    m1 = build_mesh((-1.0, 1.0), 4)
    assert isinstance(m1, Mesh1D) and m1.n == 4
    m2 = build_mesh(((-1.0, 1.0), (0.0, 1.0)), (4, 6))
    assert isinstance(m2, Mesh2D) and (m2.n, m2.m) == (4, 6)


def test_build_mesh_reads_one_pair_and_count_per_axis():
    # one (a, b) pair per axis; a 1D (a, b) is one pair, an int count
    # applies to every axis
    m1 = build_mesh(((-1.0, 1.0),), (4,))
    assert isinstance(m1, Mesh1D) and (m1.a, m1.b, m1.n) == (-1.0, 1.0, 4)
    m2 = build_mesh(((-1.0, 1.0), (0.0, 1.0)), 5)
    assert isinstance(m2, Mesh2D) and (m2.n, m2.m) == (5, 5)
    with pytest.raises(ValueError, match="one cell count per axis"):
        build_mesh(((-1.0, 1.0), (0.0, 1.0)), (4,))
    with pytest.raises(ValueError, match="one cell count per axis"):
        build_mesh(((0, 1),) * 3, 4)
