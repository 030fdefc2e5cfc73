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

    prepare(t0, tau, nsteps)  before nsteps fixed steps of size tau from t0:
                              the builtin controllers' samplers record the
                              schedule and sample its traces in blocks of
                              steps, as the steps reach them
    begin_step(u, t, tau)     at the start of every step, with its field
    stage_data(i)             stage i's boundary data, i = 0, 1, ... in order
    observe_stage(i, u_i)     every solved stage field u_i, i >= 1

A field is its flat dof vector reshaped to Diffusion.shape, (cells,
nodes) per axis: every stage field a controller sees, every step-start
field after the first and every field explicit_rhs returns is a view of
a flat vector, whose reshape(-1) copies nothing.  Boundary data is one
(low, high) pair of face values per mesh axis: ((west, east),) in 1D,
with Python floats, and ((west, east), (south, north)) in 2D, with
west/east arrays of shape (m, p) indexed by (cell j, node along y) and
south/north arrays of shape (n, p) indexed by (cell i, node along x).
Both controllers sample through a BoundarySampler, per point set: each
1D endpoint, or all the 2D faces' points at once, split back into the
per-side arrays as views.  NaiveBoundary samples omega at the stage
times and builds every stage's pairs once per step, in begin_step; the
treatment module's controller serves the corrected stage values, and
declares to its sampler the traces it reads at the step start only
(omega, omega_tt), which are sampled there alone.

Factors of (I - a_ii tau L) are cached per diagonal entry for the current
step size only: a fixed step size factors each distinct a_ii once, and a
new step size (the shortened final step) drops the old factors before
factoring its own.  Every factor is one SuperLU factorization of
I - a_ii tau Diffusion.shifted, L in a basis where the stage matrix is
banded; a stage solve maps its right-hand side into that basis and its
solution back.  In 1D that basis is the dof basis itself, the stage
matrix is formed as the sparse I - a_ii tau L and SuperLU runs with its
defaults.  In 2D it is the eigenbasis of both axes, where the stage
matrix is diagonal: it is built as a CSC matrix straight from the
diagonal 1 - a_ii tau lam, lam that of shifted, and factored in its
natural order with no supernodes or panels.
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
    update.  needs_xi[i] and needs_psi[i] tell whether stage i's
    explicit rate xi^i and implicit tendency psi^i enter any later stage
    or the update: a step forms neither where it is not read.
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
        read = {j for row in self.ex_rows for j, _ in row}
        read.update(i for i, _ in self.ex_weights)
        self.needs_xi = [i in read for i in range(self.stages)]
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


# samples per trace key in one block of a prepared schedule, a bound on
# the sampler's memory that does not grow with the number of steps (with
# the schedule sampled whole, treated heat2d at N = 20 peaked 50 MB higher
# at T = 20 than at T = 0.2).  A trace function makes several temporaries
# of a block's size (heat2d's omega_t about eight): at 64 KiB of float64
# each they stay in a 2 MB L2, where 256 KiB blocks made 2.1 MB of them
# and took 1.3 times as long to sample heat2d's omega_t at N = 40.
# A 1D run of up to 682 full steps (ARK4) still samples in one block
_BLOCK_SAMPLES = 8192


class BoundarySampler:
    """Boundary traces at every side of a mesh, over the stage times.

    fns holds the (key, function) pairs its controller samples, functions
    of (coordinates..., t), at the stage times t + c_i*tau, and start_keys
    the keys of those the controller reads at the step start only, which
    are sampled there alone: the treated controller declares omega and
    omega_tt, the naive one none.  The points are sampled as point sets:
    each 1D endpoint is one, and the points of all four 2D faces form one,
    in the order of coords.  step(t, tau) returns one dict per point set
    mapping each key to its samples indexed by stage (a step-start key:
    index 0 only): lists of Python floats at a 1D endpoint, arrays over
    the points in 2D.  at(fn, t) gives fn at one time t on every side, as
    a one-step sample at the stage time t would hold it.  split(values)
    turns one value per point set into one per side, shaped like that
    side's points (views in 2D; an array keeps its leading axes, such as
    stages, before them).  sides and points list the side names and their
    coordinates (see boundary_points on the meshes); coords holds all
    sides' points in that order, one flat array per axis.

    After prepare(t0, tau, nsteps), the steps of that fixed-step schedule
    are sampled in blocks of max(1, _BLOCK_SAMPLES // (stages * points))
    consecutive steps, one call per key per block, made when a step first
    reaches it; only the current block is kept.  Every other step samples
    itself, one call per key.
    """

    def __init__(self, mesh, basis, c, fns, start_keys=()):
        points = mesh.boundary_points(basis)
        self.sides = tuple(points)
        self.points = tuple(points.values())
        self._floats = mesh.dim == 1
        self.point_sets = len(self.sides) if self._floats else 1
        shapes = [np.shape(pt[0]) for pt in self.points]
        ends = np.cumsum([int(np.prod(s)) for s in shapes]).tolist()
        self._pieces = list(zip([0] + ends[:-1], ends, shapes))
        self.coords = [np.concatenate([np.ravel(pt[k]) for pt in self.points])
                       for k in range(mesh.dim)]
        self._c = np.asarray(c, dtype=float)
        self._fns = list(fns)
        self._start_keys = frozenset(start_keys)
        self._block_steps = max(
            1, _BLOCK_SAMPLES // (self._c.size * self.coords[0].size))
        self._schedule = None

    def _evaluate(self, fn, times):
        """fn at times, a (steps, stages) array, on every point: a (steps,
        stages, points) array, or in 1D nested float lists (steps, points,
        stages)."""
        coords = [x[None, None, :] for x in self.coords]
        v = np.asarray(fn(*coords, times[:, :, None]), dtype=float)
        v = np.broadcast_to(v, times.shape + self.coords[0].shape)
        return v.transpose(0, 2, 1).tolist() if self._floats else v

    def _sample(self, tm, tau):
        """Samples for step starts tm, per key (see _evaluate)."""
        stage_t = tm[:, None] + tau * self._c[None, :]
        start = tm[:, None]
        return {key: self._evaluate(
                    fn, start if key in self._start_keys else stage_t)
                for key, fn in self._fns}

    def at(self, fn, t):
        """fn at the one time t, one value per side, evaluated as step()
        evaluates its samples."""
        v, = self._evaluate(fn, np.array([[t]]))
        if self._floats:
            return [pt[0] for pt in v]
        return self.split([v[0]])

    def _sets(self, samples, m):
        """One {key: per-stage samples} dict per point set for step m."""
        if self._floats:
            return [{key: v[m][k] for key, v in samples.items()}
                    for k in range(self.point_sets)]
        return [{key: v[m] for key, v in samples.items()}]

    def split(self, values):
        """Per-side values from one value per point set."""
        if self._floats:
            return values
        flat, = values
        lead = np.shape(flat)[:-1]
        return [flat[..., lo:hi].reshape(lead + shape)
                for lo, hi, shape in self._pieces]

    def prepare(self, t0, tau, nsteps):
        """Record a schedule of nsteps fixed steps of size tau from t0.

        Nothing is sampled here: step() samples the schedule a block of
        steps at a time as the steps reach it, at most _BLOCK_SAMPLES
        samples per key, and keeps only the current block, so memory does
        not grow with the step count.  Steps whose start time falls off
        this grid (the shortened final step, or integrations restarted
        elsewhere) are sampled one at a time.
        """
        self._schedule = (t0, tau, nsteps)
        self._block = (0, 0, None)

    def step(self, t, tau):
        """Per-point-set samples for the step of size tau starting at t.

        A step m of the prepared schedule reads the block holding it,
        sampled at the grid t0 + tau*m that integrate() steps along, so
        block and per-step samples agree bitwise.
        """
        sched = self._schedule
        if sched is not None and tau == sched[1]:
            t0, _, nsteps = sched
            m = int(round((t - t0) / tau))
            if 0 <= m < nsteps and t0 + m * tau == t:
                first, stop, samples = self._block
                if not first <= m < stop:
                    first = m - m % self._block_steps
                    stop = min(nsteps, first + self._block_steps)
                    samples = self._sample(
                        t0 + tau * np.arange(first, stop), tau)
                    self._block = (first, stop, samples)
                return self._sets(samples, m - first)
        return self._sets(self._sample(np.array([t]), tau), 0)


def axis_pairs(sides):
    """Boundary data from per-side values in BoundarySampler order
    (west, east[, south, north]): one (low, high) pair per mesh axis."""
    return tuple(zip(sides[::2], sides[1::2]))


class NaiveBoundary:
    """Boundary controller sampling omega pointwise at the stage times."""

    def __init__(self, problem, mesh, basis, tableau):
        self.sampler = BoundarySampler(mesh, basis, tableau.c,
                                       [('omega', problem.omega)])
        self._pairs = None

    def prepare(self, t0, tau, nsteps):
        self.sampler.prepare(t0, tau, nsteps)

    def begin_step(self, u, t, tau):
        # every stage's boundary data at once: the samples per side, each
        # indexed by stage first, zipped into one pair per axis and stage
        sides = self.sampler.split([traces['omega'] for traces
                                    in self.sampler.step(t, tau)])
        self._pairs = list(zip(*[zip(low, high)
                                 for low, high in axis_pairs(sides)]))

    def stage_data(self, i):
        return self._pairs[i]

    def observe_stage(self, i, u_stage):
        pass


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
        self._lu = {}
        self._lu_tau = None
        self.factorizations = 0

    def _solver(self, coef):
        """The factor of I - coef Diffusion.shifted, made on first use."""
        lu = self._lu.get(coef)
        if lu is None:
            shifted = self.diffusion.shifted
            if self.mesh.dim == 1:
                # SuperLU's defaults: another pivot order moves the 1D
                # errors at the roundoff floor (heat1d_o4 L2 at N = 160,
                # T = 1 by -14%)
                eye = sp.identity(shifted.shape[0], format='csc')
                lu = spla.splu((eye - coef * shifted).tocsc())
            else:
                # shifted is diagonal: the stage matrix is the CSC of
                # d = 1 - coef lam, lam its diagonal, formed in place
                # (-(coef lam) + 1 is bitwise 1 - coef lam), with one int32
                # array as both indices and indptr.  Building it allocates
                # 12 bytes a dof at N = 40, the sparse chain
                # (I - coef shifted).tocsc() 76.  Factored in its own order
                # without supernodes or panels, 2 L+U entries per dof at
                # any N, it solves as rhs / d; the default COLAMD ordering
                # and 10-column panels only add work and workspace
                d = shifted.diagonal()
                d *= -coef
                d += 1.0
                diag = np.arange(d.size + 1, dtype=np.int32)
                lu = spla.splu(sp.csc_matrix((d, diag[:-1], diag)),
                               permc_spec='NATURAL', relax=1, panel_size=1)
            self._lu[coef] = lu
            self.factorizations += 1
        return lu

    def _xi(self, u_field, t, bdata):
        return explicit_rhs(u_field, t, bdata, self.problem, self.mesh,
                            self.coords, self.diffusion.axes).reshape(-1)

    def step(self, u, t, tau):
        """Advance one step of size tau from (u, t); returns the new field."""
        tab = self.tableau
        diff = self.diffusion
        if tau != self._lu_tau:
            # keep one step size's factors: the full-step ones are dead
            # once the shortened final step begins
            self._lu.clear()
            self._lu_tau = tau
        uflat = u.reshape(-1)
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
                    rhs = diff.to_basis(acc + taii * diff.gb(bd))
                    ui = diff.from_basis(self._solver(taii).solve(rhs))
                    psi[i] = (ui - acc) / taii
                else:
                    ui = acc
                ufield = ui.reshape(diff.shape)
                ctrl.observe_stage(i, ufield)
            if psi[i] is None and tab.needs_psi[i]:
                psi[i] = diff.matvec(ui) + diff.gb(bd)
            if tab.needs_xi[i]:
                xi[i] = self._xi(ufield, t + tab.c[i] * tau, bd)

        unew = uflat.copy()
        for i, cf in tab.ex_weights:
            unew += (tau * cf) * xi[i]
        for i, cf in tab.im_weights:
            unew += (tau * cf) * psi[i]
        return unew.reshape(diff.shape)

    def integrate(self, u0, t0, t_end, tau):
        """Step from t0 to t_end, shortening the last step to land exactly.

        Returns (u, info) where info reports the step count, the number
        of sparse LU factorizations made during this call, the final time
        t and growth, the largest per-step ratio max|u^{n+1}| / max|u^n|
        over the steps from a nonzero field (None if there is none).
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
        size, growth = float(np.abs(u).max()), None
        factorizations = self.factorizations
        remaining = t_end - t0
        nfull = int(math.floor(remaining / tau + 1e-12))
        if nfull > 0:
            self.controller.prepare(t0, tau, nfull)
        for _ in range(nfull):
            u = self.step(u, t, tau)
            steps += 1
            t = t0 + steps * tau
            size, growth = _grown(u, steps, t, size, growth)
        if t_end - t > 1e-12 * max(1.0, abs(t_end)):
            u = self.step(u, t, t_end - t)
            steps += 1
            t = t_end
            size, growth = _grown(u, steps, t, size, growth)
        return u, {'steps': steps,
                   'factorizations': self.factorizations - factorizations,
                   't': t, 'growth': growth}


def _grown(u, steps, t, size, growth):
    """(max|u|, growth) after a step from a field of max|u^n| = size, with
    growth the largest ratio so far (None for none): the ratio is skipped
    where size is 0.  The one max|u| also checks u: a non-finite value
    raises FloatingPointError, naming the step and time.  max|u| is read
    as max(max u, -min u), two reductions with no temporary array; a nan
    propagates through both."""
    new = max(float(u.max()), -float(u.min()))
    if not math.isfinite(new):
        raise FloatingPointError("non-finite solution after step %d at t=%.6g"
                                 % (steps, t))
    if size > 0.0:
        ratio = new / size
        growth = ratio if growth is None else max(growth, ratio)
    return new, growth
