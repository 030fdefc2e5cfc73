"""The 2D treated controller as it ran before its recovery became one map.

Each of the four faces had its own recovery, PerFaceDerivatives2D, which
oriented the field so that the face's inward normal came first and ran
the 1D one-sided rules along it and centered / one-sided differences of
per-cell samples along the tangent, and its own StageCorrector fed that
face's traces (PerFaceTreatedBoundary).  The tests hold the one linear
map over all face points (treatment.FaceDerivatives2D) and the one
corrector over all of them to this path, as test_operators keeps
cell_loop_operator for the block assembly.  PointMajorFaceDerivatives2D
keeps the one map as it was before its rows were grouped by quantity.
"""

import numpy as np
import scipy.sparse as sp

from ldgimex.imex import axis_pairs
from ldgimex.treatment import (_QUANTITIES, FaceDerivatives2D,
                               StageCorrector, _tangential_weights,
                               treated_boundary)


def _basis_row(basis, xi, order):
    """Row vector turning a cell's nodal values into d^order/dx^order at xi."""
    eye = np.eye(basis.p)
    if order == 0:
        row = basis.values(eye, xi)
    else:
        row = basis.derivative_values(eye, xi, order)
    return np.asarray(row, dtype=float).reshape(basis.p)


def _tang_first(z, dt):
    """d/dt along axis 0 of per-cell samples one cell width apart.

    Centered where a neighbor exists on both sides, one-sided 3-point at
    the first and last cells (second-order either way).
    """
    out = np.empty_like(z)
    out[1:-1] = (z[2:] - z[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * z[0] + 4.0 * z[1] - z[2]) / (2.0 * dt)
    out[-1] = (3.0 * z[-1] - 4.0 * z[-2] + z[-3]) / (2.0 * dt)
    return out


def _tang_second(z, dt):
    """d2/dt2 along axis 0; one-sided second difference at the ends."""
    out = np.empty_like(z)
    out[1:-1] = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dt ** 2
    out[0] = (z[0] - 2.0 * z[1] + z[2]) / dt ** 2
    out[-1] = (z[-1] - 2.0 * z[-2] + z[-3]) / dt ** 2
    return out


class PerFaceDerivatives2D:
    """Derivative recovery at every quadrature point of one 2D face.

    recover(field) returns grad = [u_x, u_y], hess = [[u_xx, u_xy], [u_xy,
    u_yy]] and grad_lap = [u_xxx + u_yyx, u_xxy + u_yyy], each entry of
    shape (cells along the face, p), for a field shaped (cells x, nodes x,
    cells y, nodes y).  They are built in face-local (normal, tangent)
    order, with a sign sg = -1 on odd normal-derivative counts on
    east/north faces, where the normal axis was reversed.
    """

    def __init__(self, mesh, basis, face):
        self.normal_axis = 'x' if face in ('west', 'east') else 'y'
        self.flip = face in ('east', 'north')
        dn, dt = mesh.x.dx, mesh.y.dx
        if self.normal_axis == 'y':
            dn, dt = dt, dn
        self.dn, self.dt = dn, dt
        jn = 2.0 / dn
        jt = 2.0 / dt
        e0 = _basis_row(basis, -1.0, 0)
        e1 = _basis_row(basis, -1.0, 1) * jn
        e2 = _basis_row(basis, -1.0, 2) * jn ** 2
        eye = np.eye(basis.p)
        dt1 = np.asarray(basis.derivative_values(eye, basis.nodes, 1),
                         dtype=float) * jt
        dt2 = np.asarray(basis.derivative_values(eye, basis.nodes, 2),
                         dtype=float) * jt ** 2
        # one (p*p, 5p) matrix mapping a cell's (normal, tangent) nodal
        # values to the face-point samples d_n, d_t, d_nn, d_tt, d_nt
        self._maps = np.hstack([np.kron(e[:, None], d) for e, d in
                                ((e1, eye), (e0, dt1), (e2, eye),
                                 (e0, dt2), (e1, dt1))])

    def oriented(self, field):
        """View of the field as (cells n, cells t, nodes n, nodes t), with
        the normal axis n first and the boundary low."""
        f = np.asarray(field, dtype=float).transpose(0, 2, 1, 3)
        if self.normal_axis == 'y':
            f = f.transpose(1, 0, 3, 2)
        if self.flip:
            f = f[::-1, :, ::-1, :]
        return f

    def recover(self, field):
        f = self.oriented(field)
        dn, dt = self.dn, self.dt
        cells, p = f.shape[1], f.shape[2]
        rows = f[:3].reshape(3 * cells, p * p)
        m = self._maps
        xy = (rows @ m[:, :2 * p]).reshape(3, cells, 2 * p)
        x, y = xy[..., :p], xy[..., p:]             # u_n, u_t per layer
        second = rows[:cells] @ m[:, 2 * p:]        # boundary layer only
        u_nn, u_tt, u_nt = second[:, :p], second[:, p:2 * p], second[:, 2 * p:]
        u_nnn = (x[0] - 2.0 * x[1] + x[2]) / dn ** 2
        u_ttt = _tang_second(y[0], dt)
        mixed = _tang_first((-3.0 * xy[0] + 4.0 * xy[1] - xy[2])
                            / (2.0 * dn), dt)
        u_nnt, u_ttn = mixed[:, :p], mixed[:, p:]
        sg = -1.0 if self.flip else 1.0
        u_nt = sg * u_nt
        grad = np.array([sg * x[0], y[0]])
        hess = np.array([[u_nn, u_nt], [u_nt, u_tt]])
        grad_lap = np.array([sg * (u_nnn + u_ttn), u_nnt + u_ttt])
        if self.normal_axis == 'y':
            return grad[::-1], hess[::-1, ::-1], grad_lap[::-1]
        return grad, hess, grad_lap


class PerFaceTreatedBoundary:
    """The 2D treated controller with one StageCorrector and one
    PerFaceDerivatives2D per face, each fed that face's traces."""

    def __init__(self, problem, mesh, basis, tableau):
        # the sampler of treatment's controller, whose one point set the
        # faces split
        self.sampler = treated_boundary(problem, mesh, basis,
                                        tableau).sampler
        self.stages = tableau.stages
        self.correctors = [StageCorrector(problem, tableau, 3, 'stagewise')
                           for _ in self.sampler.sides]
        self.recovery = [PerFaceDerivatives2D(mesh, basis, face)
                         for face in self.sampler.sides]

    def prepare(self, t0, tau, nsteps):
        self.sampler.prepare(t0, tau, nsteps)

    def begin_step(self, u, t, tau):
        traces, = self.sampler.step(t, tau)
        faces = [{} for _ in self.sampler.sides]
        for key, samples in traces.items():
            by_stage = [self.sampler.split([v]) for v in samples]
            for k, face in enumerate(faces):
                face[key] = np.array([split[k] for split in by_stage])
        for rec, corr, face in zip(self.recovery, self.correctors, faces):
            corr.begin(rec.recover(u), tau, face)

    def stage_data(self, i):
        return axis_pairs([corr.stage_value(i) for corr in self.correctors])

    def observe_stage(self, i, u_stage):
        if i < 1 or i >= self.stages - 1:
            return
        for rec, corr in zip(self.recovery, self.correctors):
            corr.observe(i, rec.recover(u_stage))


class PointMajorFaceDerivatives2D(FaceDerivatives2D):
    """FaceDerivatives2D with its tangential map in point-major rows.

    One row per (face point, quantity), the seven quantities u_x, u_y,
    u_xx, u_xy, u_yy and grad(lap u) of each point together, built cell
    class by cell class as the map was before its rows were grouped by
    quantity; recover returns strided row views of the (points, 7)
    product, and the Hessian as a fancy-index copy of it.
    """

    def __init__(self, mesh, basis):
        super().__init__(mesh, basis)
        p = basis.p
        cells = (mesh.x.n, mesh.y.n)
        # (normal axis, class, point node, quantity, normal row, window
        # cell, tangential node)
        weights = _tangential_weights(
            basis, (mesh.x.dx, mesh.y.dx)).transpose(0, 1, 3, 2, 4, 5, 6)
        entries = np.nonzero(weights)
        axes, classes, q, row, normal_row, window, node = entries
        vals = weights[entries]
        segment = axes * 3 + classes
        bounds = np.searchsorted(segment, np.arange(7)).tolist()
        row_lengths = np.bincount(
            segment * (p * _QUANTITIES) + q * _QUANTITIES + row,
            minlength=6 * p * _QUANTITIES).reshape(6, -1)
        starts = [(np.array([0]), np.arange(m - 2), np.array([m - 3]))
                  for m in cells[::-1]]
        data, indices, lengths = [], [], []
        for face, (lo_col, _) in enumerate(self._spans):
            axis = face // 2
            tangent_dofs = self._shape[1 - axis]
            cols = lo_col + normal_row * tangent_dofs + window * p + node
            for i, start in enumerate(starts[axis]):
                lo, hi = bounds[3 * axis + i], bounds[3 * axis + i + 1]
                data.append(np.tile(vals[lo:hi], len(start)))
                indices.append(((start * p)[:, None] + cols[lo:hi]).ravel())
                lengths.append(np.tile(row_lengths[3 * axis + i],
                                       len(start)))
        lengths = np.concatenate(lengths)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
        np.cumsum(lengths, out=indptr[1:])
        self._tangential = sp.csr_matrix(
            (np.concatenate(data), np.concatenate(indices).astype(np.int32),
             indptr), shape=(len(lengths), self._spans[-1][1]))

    def recover(self, field):
        v = field.reshape(self._shape)
        k = self._normal[0].shape[1]
        layers = (v[:k], v[-k:], v[:, :k].T, v[:, -k:].T)
        nv = np.empty(self._spans[-1][1])
        for normal, layer, (lo, hi) in zip(self._normal, layers, self._spans):
            np.matmul(normal, layer, out=nv[lo:hi].reshape(len(normal), -1))
        y = (self._tangential @ nv).reshape(-1, _QUANTITIES).T
        return [(y[:2], y[[[2, 3], [3, 4]]], y[5:])]
