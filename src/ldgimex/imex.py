"""IMEX Runge-Kutta time integration for the LDG semidiscretization.

The stiff diffusive part L u + g_b enters through a diagonally implicit
tableau, the convective/source part xi through the paired explicit tableau:

    (I - a_ii tau L) u^{n,i} = u^n + tau sum_{j<i} (at_ij xi^j + a_ij psi^j)
                                    + a_ii tau g_b(omega^i)
    u^{n+1} = u^n + tau sum_i (bt_i xi^i + b_i psi^i)

with psi^j = L u^j + g_b(omega^j), which a stage with a_jj != 0 reads off
its own equation as (u^j - acc^j) / (a_jj tau), acc^j the rest of its
right-hand side: exact for the solved u^j, without the eps ||L|| ~ eps/dx^2
roundoff of a sparse matvec.  A stage with a_jj = 0 whose psi is used
later (ARK4's first) forms L u^j + g_b.  Boundary values omega^i come from
a pluggable controller so the intermediate-stage treatment can replace the
naive pointwise samples.  A controller has four methods:

    prepare(t0, tau, nsteps)  before nsteps fixed steps of size tau from t0
    begin_step(u, t, tau)     at the start of every step, with its field
    stage_data(i)             stage i's boundary data, i = 0, 1, ... in order
    observe_stage(i, u_i)     every solved stage field u_i, i >= 1

Boundary data is one (low, high) pair of face values per mesh axis:
((west, east),) in 1D, with Python floats, and ((west, east), (south,
north)) in 2D, with west/east arrays of shape (m, p) indexed by (cell j,
node along y) and south/north arrays of shape (n, p) indexed by (cell i,
node along x).  NaiveBoundary samples omega at the stage times; the
treatment module's controller serves the corrected stage values.

Sparse LU factors of (I - a_ii tau L) are cached per diagonal entry for
the current step size only: a fixed step size factors each distinct a_ii
once, and a new step size (the shortened final step) drops the old
factors before factoring its own.  On a 1D mesh the banded matrix is
factored with SuperLU's defaults; on a 2D mesh, whose Kronecker-sum
matrix is structurally symmetric, with a minimum-degree ordering of
A^T + A and threshold pivoting that prefers the diagonal (see _solver).
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import build_diffusion, explicit_rhs


def _nonzero(weights):
    return [(j, w) for j, w in enumerate(weights) if w != 0.0]


class ImexTableau:
    """Paired explicit/implicit Butcher tableaus sharing abscissae c.

    The stage loops read the nonzero entries, as Python floats, from the
    lists worked out here once: ex_rows[i] and im_rows[i] hold the
    (j, a_ij), j < i, of stage i's explicit and implicit rows, im_diag
    the diagonal a_ii, ex_weights and im_weights the (i, b_i) of the
    update, and needs_psi[i] tells whether stage i's implicit tendency
    psi^i enters any later stage or the update.
    """

    def __init__(self, name, c, a_ex, a_im, b_ex, b_im):
        self.name = name
        self.c = np.asarray(c, dtype=float)
        self.a_ex = np.asarray(a_ex, dtype=float)
        self.a_im = np.asarray(a_im, dtype=float)
        self.b_ex = np.asarray(b_ex, dtype=float)
        self.b_im = np.asarray(b_im, dtype=float)
        self.stages = len(self.c)
        self.ex_rows = [_nonzero(row[:i])
                        for i, row in enumerate(self.a_ex.tolist())]
        self.im_rows = [_nonzero(row[:i])
                        for i, row in enumerate(self.a_im.tolist())]
        self.im_diag = np.diagonal(self.a_im).tolist()
        self.ex_weights = _nonzero(self.b_ex.tolist())
        self.im_weights = _nonzero(self.b_im.tolist())
        used = {j for row in self.im_rows for j, _ in row}
        used.update(i for i, _ in self.im_weights)
        self.needs_psi = [i in used or a != 0.0
                          for i, a in enumerate(self.im_diag)]


def _ark3():
    # Third-order, four-stage pair with ESDIRK implicit part (gamma is the
    # middle root of 6 x^3 - 18 x^2 + 9 x - 1).
    g = 1767732205903.0 / 4055673282236.0
    beta1 = -1.5 * g * g + 4.0 * g - 0.25
    beta2 = 1.5 * g * g - 5.0 * g + 1.25
    alpha1 = -0.35
    alpha2 = (1.0 / 3.0 - 2.0 * g * g - 2.0 * beta2 * alpha1 * g) / (g * (1.0 - g))
    c = [0.0, g, (1.0 + g) / 2.0, 1.0]
    a_ex = [[0.0, 0.0, 0.0, 0.0],
            [g, 0.0, 0.0, 0.0],
            [(1.0 + g) / 2.0 - alpha1, alpha1, 0.0, 0.0],
            [0.0, 1.0 - alpha2, alpha2, 0.0]]
    a_im = [[0.0, 0.0, 0.0, 0.0],
            [0.0, g, 0.0, 0.0],
            [0.0, (1.0 - g) / 2.0, g, 0.0],
            [0.0, beta1, beta2, g]]
    b = [0.0, beta1, beta2, g]
    return ImexTableau('ark3', c, a_ex, a_im, b, b)


def _ark4():
    # Fourth-order, six-stage additive pair with ESDIRK diagonal 1/4.
    c = [0.0, 0.5, 83.0 / 250.0, 31.0 / 50.0, 17.0 / 20.0, 1.0]
    a_ex = [[0.0] * 6,
            [0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
            [13861.0 / 62500.0, 6889.0 / 62500.0, 0.0, 0.0, 0.0, 0.0],
            [-116923316275.0 / 2393684061468.0,
             -2731218467317.0 / 15368042101831.0,
             9408046702089.0 / 11113171139209.0, 0.0, 0.0, 0.0],
            [-451086348788.0 / 2902428689909.0,
             -2682348792572.0 / 7519795681897.0,
             12662868775082.0 / 11960479115383.0,
             3355817975965.0 / 11060851509271.0, 0.0, 0.0],
            [647845179188.0 / 3216320057751.0,
             73281519250.0 / 8382639484533.0,
             552539513391.0 / 3454668386233.0,
             3354512671639.0 / 8306763924573.0, 4040.0 / 17871.0, 0.0]]
    a_im = [[0.0] * 6,
            [0.25, 0.25, 0.0, 0.0, 0.0, 0.0],
            [8611.0 / 62500.0, -1743.0 / 31250.0, 0.25, 0.0, 0.0, 0.0],
            [5012029.0 / 34652500.0, -654441.0 / 2922500.0,
             174375.0 / 388108.0, 0.25, 0.0, 0.0],
            [15267082809.0 / 155376265600.0, -71443401.0 / 120774400.0,
             730878875.0 / 902184768.0, 2285395.0 / 8070912.0, 0.25, 0.0],
            [82889.0 / 524892.0, 0.0, 15625.0 / 83664.0, 69875.0 / 102672.0,
             -2260.0 / 8211.0, 0.25]]
    b = [82889.0 / 524892.0, 0.0, 15625.0 / 83664.0, 69875.0 / 102672.0,
         -2260.0 / 8211.0, 0.25]
    return ImexTableau('ark4', c, a_ex, a_im, b, b)


_BUILTIN = {'ark3': _ark3, 'ark4': _ark4}


def builtin_tableau(name):
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise ValueError("unknown tableau %r (choose from %s)"
                         % (name, sorted(_BUILTIN)))


def validate_tableau(tab, tol=1e-10):
    """Check structure and basic order conditions; raise ValueError on failure."""
    s = tab.stages
    if s == 0:
        return True
    for arr, shape, label in ((tab.a_ex, (s, s), 'a_ex'),
                              (tab.a_im, (s, s), 'a_im'),
                              (tab.b_ex, (s,), 'b_ex'),
                              (tab.b_im, (s,), 'b_im')):
        if arr.shape != shape:
            raise ValueError("%s has shape %s, expected %s"
                             % (label, arr.shape, shape))
    if np.max(np.abs(np.triu(tab.a_ex))) > tol:
        raise ValueError("explicit tableau must be strictly lower triangular")
    if np.max(np.abs(np.triu(tab.a_im, 1))) > tol:
        raise ValueError("implicit tableau must be lower triangular")
    if abs(tab.a_im[0, 0]) > tol:
        raise ValueError("first implicit stage must be explicit (a_im[0,0]=0)")
    for label, a in (('a_ex', tab.a_ex), ('a_im', tab.a_im)):
        rs = a.sum(axis=1)
        bad = np.nonzero(np.abs(rs - tab.c) > tol)[0]
        if bad.size:
            raise ValueError("%s row %d sums to %.3e but c=%.3e"
                             % (label, bad[0], rs[bad[0]], tab.c[bad[0]]))
    for label, b in (('b_ex', tab.b_ex), ('b_im', tab.b_im)):
        checks = ((b.sum(), 1.0, 'sum b'),
                  ((b * tab.c).sum(), 0.5, 'sum b c'),
                  ((b * tab.c ** 2).sum(), 1.0 / 3.0, 'sum b c^2'))
        for got, want, what in checks:
            if abs(got - want) > tol:
                raise ValueError("%s fails %s: %.15g != %.15g"
                                 % (label, what, got, want))
    return True


class BoundarySampler:
    """Boundary traces at every side of a mesh, over the stage times.

    fns holds the (key, function) pairs its controller samples, functions
    of (coordinates..., t), at the stage times t + c_i*tau, or at the step
    start only under the key 'omega_tt'.  step(t, tau) returns one dict
    per side mapping each key to its samples indexed by stage (omega_tt:
    index 0): lists of Python floats at 1D endpoints, arrays shaped like
    the face's points in 2D.  sides and points list the side names and
    their coordinates
    (see boundary_points on the meshes); coords holds all sides' points
    in that order, one flat array per axis.
    """

    def __init__(self, mesh, basis, c, fns):
        points = mesh.boundary_points(basis)
        self.sides = tuple(points)
        self.points = tuple(points.values())
        self._floats = mesh.dim == 1
        self._shapes = [np.shape(pt[0]) for pt in self.points]
        self._ends = np.cumsum([int(np.prod(s)) for s in self._shapes])
        self.coords = [np.concatenate([np.ravel(pt[k]) for pt in self.points])
                       for k in range(mesh.dim)]
        self._c = np.asarray(c, dtype=float)
        self._fns = list(fns)
        self._pre = None

    def _sample(self, tm, tau):
        """Samples for step starts tm, per key: a (steps, stages, points)
        array, or in 1D nested float lists (steps, points, stages)."""
        stage_t = tm[:, None] + tau * self._c[None, :]
        coords = [x[None, None, :] for x in self.coords]
        out = {}
        for key, fn in self._fns:
            times = tm[:, None] if key == 'omega_tt' else stage_t
            v = np.asarray(fn(*coords, times[:, :, None]), dtype=float)
            v = np.broadcast_to(v, times.shape + self.coords[0].shape)
            out[key] = v.transpose(0, 2, 1).tolist() if self._floats else v
        return out

    def _split(self, samples, m):
        """One {key: per-stage samples} dict per side for step m."""
        if self._floats:
            return [{key: v[m][k] for key, v in samples.items()}
                    for k in range(len(self.sides))]
        out = [{} for _ in self.sides]
        for key, v in samples.items():
            lo = 0
            for side, hi, shape in zip(out, self._ends, self._shapes):
                side[key] = v[m, :, lo:hi].reshape((-1,) + shape)
                lo = hi
        return out

    def prepare(self, t0, tau, nsteps):
        """Sample every trace for a fixed-step schedule in one pass.

        Steps whose start time falls off this grid (the shortened final
        step, or integrations restarted elsewhere) fall back to per-step
        sampling in step().  The grid arithmetic t0 + m*tau matches
        integrate() exactly, so cached and direct values agree bitwise.
        """
        if nsteps < 1:
            return
        samples = self._sample(t0 + tau * np.arange(nsteps), tau)
        self._pre = (t0, tau, nsteps,
                     [self._split(samples, m) for m in range(nsteps)])

    def step(self, t, tau):
        """Per-side samples for the step of size tau starting at t."""
        pre = self._pre
        if pre is not None and tau == pre[1]:
            m = int(round((t - pre[0]) / tau))
            if 0 <= m < pre[2] and pre[0] + m * tau == t:
                return pre[3][m]
        return self._split(self._sample(np.array([t]), tau), 0)


def axis_pairs(sides):
    """Boundary data from per-side values in BoundarySampler order
    (west, east[, south, north]): one (low, high) pair per mesh axis."""
    return tuple(zip(sides[::2], sides[1::2]))


class NaiveBoundary:
    """Boundary controller sampling omega pointwise at the stage times."""

    def __init__(self, problem, mesh, basis, tableau):
        self.sampler = BoundarySampler(mesh, basis, tableau.c,
                                       [('omega', problem.omega)])
        self._omega = None

    def prepare(self, t0, tau, nsteps):
        self.sampler.prepare(t0, tau, nsteps)

    def begin_step(self, u, t, tau):
        self._omega = [side['omega'] for side in self.sampler.step(t, tau)]

    def stage_data(self, i):
        return axis_pairs([om[i] for om in self._omega])

    def observe_stage(self, i, u_stage):
        pass


# SuperLU options for meshes with more than one axis (see _solver).
_SYMMETRIC_ORDERING = {'permc_spec': 'MMD_AT_PLUS_A',
                       'diag_pivot_thresh': 0.1,
                       'options': {'SymmetricMode': True}}


class ImexIntegrator:
    """Drives the IMEX scheme for one problem/mesh/basis triple."""

    def __init__(self, problem, mesh, basis, tableau=None, controller=None):
        self.problem = problem
        self.mesh = mesh
        self.basis = basis
        self.tableau = tableau or builtin_tableau(problem.tableau)
        validate_tableau(self.tableau)
        self.diffusion = build_diffusion(mesh, basis, problem)
        self.controller = controller or NaiveBoundary(problem, mesh, basis,
                                                      self.tableau)
        self.coords = mesh.node_coords(basis)
        ndof = self.diffusion.L.shape[0]
        self._eye = sp.identity(ndof, format='csc')
        self._lcsc = self.diffusion.L.tocsc()
        self._lu = {}
        self._lu_tau = None
        self.factorizations = 0

    def _solver(self, coef):
        lu = self._lu.get(coef)
        if lu is None:
            # The 2D matrix is a Kronecker sum of 1D operators: a symmetric
            # minimum-degree ordering cuts its L+U fill from 5.18M to 3.00M
            # for heat2d at N = 40 (one thread: factor 0.42 -> 0.24 s,
            # solve 10.4 -> 5.5 ms).  1D keeps SuperLU's defaults: its
            # banded factors barely fill (5274 against nnz(A) = 4302 for
            # heat1d at N = 160), solves take about 95 us either way, and
            # another pivot order moves the errors at the roundoff floor
            # (heat1d_o4 L2 at N = 160 and T = 1 by -14%).
            order = _SYMMETRIC_ORDERING if len(self.mesh.axes) > 1 else {}
            lu = spla.splu((self._eye - coef * self._lcsc).tocsc(), **order)
            self._lu[coef] = lu
            self.factorizations += 1
        return lu

    def _xi(self, u_field, t, bdata):
        return self.diffusion.flatten(explicit_rhs(
            u_field, t, bdata, self.problem, self.mesh, self.basis,
            coords=self.coords, axes=self.diffusion.axes))

    def step(self, u, t, tau):
        """Advance one step of size tau from (u, t); returns the new field."""
        tab = self.tableau
        diff = self.diffusion
        if tau != self._lu_tau:
            # keep one step size's factors: the full-step ones are dead
            # once the shortened final step begins
            self._lu.clear()
            self._lu_tau = tau
        uflat = diff.flatten(u)
        ctrl = self.controller
        ctrl.begin_step(u, t, tau)
        xi = [None] * tab.stages
        psi = [None] * tab.stages
        # stage 0 is the step-start field itself (a_im[0, 0] = 0)
        ui, ufield = uflat, u
        for i in range(tab.stages):
            bd = ctrl.stage_data(i)
            taii = tau * tab.im_diag[i]
            if i:
                acc = uflat.copy()
                for j, cf in tab.ex_rows[i]:
                    acc += (tau * cf) * xi[j]
                for j, cf in tab.im_rows[i]:
                    acc += (tau * cf) * psi[j]
                if taii != 0.0:
                    ui = self._solver(taii).solve(acc + taii * diff.gb(bd))
                    psi[i] = (ui - acc) / taii
                else:
                    ui = acc
                ufield = diff.unflatten(ui)
                ctrl.observe_stage(i, ufield)
            if psi[i] is None and tab.needs_psi[i]:
                psi[i] = self._lcsc @ ui + diff.gb(bd)
            xi[i] = self._xi(ufield, t + tab.c[i] * tau, bd)

        unew = uflat.copy()
        for i, cf in tab.ex_weights:
            unew += (tau * cf) * xi[i]
        for i, cf in tab.im_weights:
            unew += (tau * cf) * psi[i]
        return diff.unflatten(unew)

    def integrate(self, u0, t0, t_end, tau):
        """Step from t0 to t_end, shortening the last step to land exactly.

        Returns (u, info) where info reports the step count, the number
        of sparse LU factorizations made during this call and the final
        time t.
        Raises ValueError for a non-finite t0, t_end or tau, a step size
        tau <= 0 or t_end < t0, and FloatingPointError, naming the step and
        time, as soon as a step leaves a non-finite value.
        """
        for name, value in (('t0', t0), ('t_end', t_end), ('tau', tau)):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if tau <= 0.0:
            raise ValueError("step size must be positive")
        if t_end < t0:
            raise ValueError("t_end=%r lies before t0=%r" % (t_end, t0))
        u = np.array(u0, dtype=float)
        t = t0
        steps = 0
        factorizations = self.factorizations
        remaining = t_end - t0
        nfull = int(math.floor(remaining / tau + 1e-12))
        if nfull > 0:
            self.controller.prepare(t0, tau, nfull)
        for _ in range(nfull):
            u = self.step(u, t, tau)
            steps += 1
            t = t0 + steps * tau
            _check_finite(u, steps, t)
        if t_end - t > 1e-12 * max(1.0, abs(t_end)):
            u = self.step(u, t, t_end - t)
            steps += 1
            t = t_end
            _check_finite(u, steps, t)
        return u, {'steps': steps,
                   'factorizations': self.factorizations - factorizations,
                   't': t}


def _check_finite(u, steps, t):
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("non-finite solution after step %d at t=%.6g"
                                 % (steps, t))
