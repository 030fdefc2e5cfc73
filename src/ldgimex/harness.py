"""Convergence studies, efficiency timings, and single-run profiles.

Drivers behind the command line: each one assembles mesh/basis/integrator
for a run description (RunConfig), runs the solver, and writes CSV. All
floats are written in scientific notation so reruns of the same config are
byte-identical apart from the timing columns.
"""

import time

import numpy as np

from .imex import ImexIntegrator, NaiveBoundary, builtin_tableau
from .mesh import build_mesh
from .operators import norms
from .problems import builtin_problem
from .quadrature import build_basis, interpolate
from .treatment import resolve_variant, treated_boundary

CONVERGENCE_HEADER = ("N,l1_error,l1_order,l2_error,l2_order,"
                      "linf_error,linf_order,seconds,steps")
EFFICIENCY_HEADER = "N,mode,seconds,l2_error,linf_error,overhead"

_BC_MODES = ('naive', 'treated')


class NumericFailure(RuntimeError):
    """A run diverged or a linear solve failed; identifies the level."""


class RunConfig:
    """Validated description of one harness run.

    Args:
        problem: builtin problem name (heat1d, burgers1d, heat2d, heat1d_o4)
            or a ProblemSpec instance.
        levels: strictly increasing cell counts N (N x N cells in 2D).
        tableau: time scheme name; defaults to the problem's own.
        bc_mode: 'naive' (omega sampled at stage times) or 'treated'.
        algorithm: treatment variant; 'alg1' (or 'anchored') anchors every
            correction at the step start, 'alg2' (or 'stagewise', the
            default) re-anchors per stage.  'alg3' is not implemented and
            raises ValueError.
        cfl: step-size factor override, tau = cfl * min cell width;
            defaults to the problem's stated value.
        T: final-time override.
        out: CSV output path, or None to skip writing.
        trace: path for the per-stage boundary-value trace (single runs).
        repeats: timed (naive, treated) pairs per level in efficiency runs.
    """

    def __init__(self, problem, levels, tableau=None, bc_mode='treated',
                 algorithm='alg2', cfl=None, T=None, out=None, trace=None,
                 repeats=3):
        self.problem = (builtin_problem(problem)
                        if isinstance(problem, str) else problem)
        self.levels = [int(n) for n in levels]
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing, got %r"
                             % (self.levels,))
        if self.levels[0] < 1:
            raise ValueError("levels must be positive")
        name = tableau or self.problem.tableau
        self.tableau = builtin_tableau(name) if isinstance(name, str) else name
        if bc_mode not in _BC_MODES:
            raise ValueError("bc_mode must be one of %s, got %r"
                             % ('/'.join(_BC_MODES), bc_mode))
        self.bc_mode = bc_mode
        resolve_variant(algorithm)  # raises ValueError for an unknown name
        self.algorithm = algorithm
        self.cfl = self.problem.cfl if cfl is None else float(cfl)
        if not self.cfl > 0.0:
            raise ValueError("cfl must be positive, got %r" % (self.cfl,))
        self.T = self.problem.T if T is None else float(T)
        if not self.T > 0.0:
            raise ValueError("T must be positive, got %r" % (self.T,))
        self.out = out
        self.trace = trace
        self.repeats = int(repeats)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def _controller(config, mesh, basis, bc_mode):
    if bc_mode == 'naive':
        return NaiveBoundary(config.problem, mesh, basis, config.tableau)
    return treated_boundary(config.problem, mesh, basis, config.tableau,
                            variant=config.algorithm)


def solve_level(config, n, bc_mode=None, collect_trace=False):
    """Integrate one level to t = T.

    Returns a dict with the final nodal field plus mesh/basis, wall seconds
    (clock around integrate() only; setup excluded), step count, growth
    (see ImexIntegrator.integrate), errors (None when the problem has no
    exact solution), and the boundary trace rows when requested.
    """
    prob = config.problem
    if prob.u0 is None:
        raise ValueError("problem %r defines neither u0 nor an exact "
                         "solution to start from" % prob.name)
    mode = bc_mode or config.bc_mode
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, n)
    ctrl = _controller(config, mesh, basis, mode)
    trace = None
    if collect_trace and hasattr(ctrl, 'trace'):
        trace = []
        ctrl.trace = trace
    integ = ImexIntegrator(prob, mesh, basis, tableau=config.tableau,
                           controller=ctrl)
    u0 = interpolate(prob.u0, mesh, basis)
    tau = config.cfl * mesh.min_width
    start = time.perf_counter()
    try:
        u, info = integ.integrate(u0, 0.0, config.T, tau)
    except (FloatingPointError, RuntimeError) as exc:
        raise NumericFailure("level N=%d (%s) failed: %s"
                             % (n, mode, exc)) from exc
    seconds = time.perf_counter() - start
    err = (norms(u, prob.exact, mesh, basis, config.T)
           if prob.exact is not None else None)
    return {'n': n, 'mode': mode, 'u': u, 'mesh': mesh, 'basis': basis,
            'errors': err, 'seconds': seconds, 'steps': info['steps'],
            'growth': info['growth'], 'trace': trace}


def _orders(prev_err, err, n_prev, n):
    rate = np.log(n / n_prev)
    return tuple(float(np.log(p / e) / rate) if p > 0 and e > 0 else None
                 for p, e in zip(prev_err, err))


class ConvergenceReport:
    """Rows of (N, errors, orders, seconds, steps) for one mode.

    Orders compare each row against the previous (coarser) one and sit on
    the finer row; the coarsest row has none.
    """

    def __init__(self, config):
        self.config = config
        self.rows = []

    def add(self, n, errors, seconds, steps):
        orders = (None, None, None)
        if self.rows:
            p = self.rows[-1]
            orders = _orders(p['errors'], errors, p['n'], n)
        self.rows.append({'n': n, 'errors': tuple(errors), 'orders': orders,
                          'seconds': seconds, 'steps': steps})

    def orders(self, norm):
        """Computed orders for one norm ('l1', 'l2', 'linf'), finer rows."""
        k = ('l1', 'l2', 'linf').index(norm)
        return [r['orders'][k] for r in self.rows[1:]]

    def errors(self, norm):
        k = ('l1', 'l2', 'linf').index(norm)
        return [r['errors'][k] for r in self.rows]

    def to_csv(self):
        lines = [CONVERGENCE_HEADER]
        for r in self.rows:
            cells = [str(r['n'])]
            for e, o in zip(r['errors'], r['orders']):
                cells.append(_fmt(e))
                cells.append(_fmt(o) if o is not None else '')
            cells.append(_fmt(r['seconds']))
            cells.append(str(r['steps']))
            lines.append(','.join(cells))
        return '\n'.join(lines) + '\n'

    def write(self, path):
        with open(path, 'w', newline='') as fh:
            fh.write(self.to_csv())


def _fmt(x):
    return '%.10e' % float(x)


def run_convergence(config):
    """Errors and orders over config.levels; writes config.out when set."""
    if config.problem.exact is None:
        raise ValueError("convergence study needs an exact solution")
    report = ConvergenceReport(config)
    for n in config.levels:
        res = solve_level(config, n)
        report.add(n, res['errors'], res['seconds'], res['steps'])
    if config.out:
        report.write(config.out)
    return report


def run_efficiency(config):
    """Time naive vs treated over config.levels and report the overhead.

    Both modes run interleaved at each level -- one untimed warmup pair,
    then config.repeats timed pairs keeping the per-mode minimum -- so
    machine-load drift hits both modes alike. Returns a list of row dicts
    (per level, per mode, treated rows carrying overhead = treated/naive
    seconds) and writes them as CSV when config.out is set.
    """
    if config.problem.exact is None:
        raise ValueError("efficiency study needs an exact solution")
    rows = []
    for n in config.levels:
        best = {}
        errs = {}
        steps = {}
        for mode in _BC_MODES:
            res = solve_level(config, n, bc_mode=mode)
            best[mode] = res['seconds']
            errs[mode] = res['errors']
            steps[mode] = res['steps']
        for _ in range(config.repeats):
            for mode in _BC_MODES:
                res = solve_level(config, n, bc_mode=mode)
                best[mode] = min(best[mode], res['seconds'])
        overhead = best['treated'] / best['naive']
        for mode in _BC_MODES:
            rows.append({'n': n, 'mode': mode, 'seconds': best[mode],
                         'l2_error': errs[mode][1],
                         'linf_error': errs[mode][2],
                         'overhead': overhead if mode == 'treated' else None,
                         'steps': steps[mode]})
    if config.out:
        with open(config.out, 'w', newline='') as fh:
            fh.write(efficiency_csv(rows))
    return rows


def efficiency_csv(rows):
    lines = [EFFICIENCY_HEADER]
    for r in rows:
        over = _fmt(r['overhead']) if r['overhead'] is not None else ''
        lines.append(','.join([str(r['n']), r['mode'], _fmt(r['seconds']),
                               _fmt(r['l2_error']), _fmt(r['linf_error']),
                               over]))
    return '\n'.join(lines) + '\n'


def error_localization(u, reference, mesh):
    """Ratio of the global max error to the median over interior cells.

    Interior means cell centers within the middle 80% of the extent per
    direction. Order reduction concentrates error at the boundary, so the
    naive mode shows a large ratio and the treated mode a small one.
    """
    err = np.abs(np.asarray(u) - np.asarray(reference))
    # a field is (cells, nodes) per axis: the node axes are the odd ones
    cell_err = err.max(axis=tuple(range(1, err.ndim, 2)))
    masks = [(ax.centers() >= ax.a + 0.1 * (ax.b - ax.a))
             & (ax.centers() <= ax.b - 0.1 * (ax.b - ax.a))
             for ax in mesh.axes]
    inner = cell_err[np.ix_(*masks)].ravel()
    med = float(np.median(inner))
    if med == 0.0:
        return float('inf') if err.max() > 0 else 1.0
    return float(err.max() / med)


_PROFILE_HEADERS = {1: "cell,node,x,value,error",
                    2: "cell_i,cell_j,node1,node2,x,y,value,error"}


def _profile_csv(u, reference, mesh, basis):
    """One row per node, by (cell per axis..., node per axis...): the
    fields' (cell, node) per axis order is permuted into it here only."""
    dim = len(mesh.axes)
    order = (*range(0, 2 * dim, 2), *range(1, 2 * dim, 2))
    err = np.abs(np.asarray(u) - np.asarray(reference)).transpose(order)
    u = np.asarray(u).transpose(order)
    coords = [c.transpose(order) for c in mesh.node_coords(basis)]
    lines = [_PROFILE_HEADERS[len(coords)]]
    for idx in np.ndindex(u.shape):
        lines.append(','.join([str(i) for i in idx]
                              + [_fmt(c[idx]) for c in coords]
                              + [_fmt(u[idx]), _fmt(err[idx])]))
    return '\n'.join(lines) + '\n'


def _trace_csv(trace, dim):
    lines = ["step,stage,side,%s,naive,treated" % ','.join('xy'[:dim])]
    step = 0
    prev = None
    for stage, side, point, naive, treated in trace:
        if prev is not None and stage < prev:
            step += 1
        prev = stage
        lines.append("%d,%d,%s,%s,%s,%s"
                     % (step, stage, side, ','.join(map(_fmt, point)),
                        _fmt(naive), _fmt(treated)))
    return '\n'.join(lines) + '\n'


def run_single(config, profile=None):
    """One run at config's only level, dumping the per-node error profile.

    When the problem has an exact solution the profile holds |u - exact|
    and the returned dict carries the error norms; otherwise the run is
    compared against a naive-mode reference at the same level and the
    norms are omitted. Returns norms (or None), the error-localization
    ratio, the step count and growth, and the paths written.
    """
    if len(config.levels) != 1:
        raise ValueError("single run needs exactly one level")
    n, = config.levels
    if config.trace is not None and config.bc_mode != 'treated':
        raise ValueError("the stage-value trace needs bc_mode=treated")
    res = solve_level(config, n, collect_trace=config.trace is not None)
    prob = config.problem
    if prob.exact is not None:
        reference = interpolate(lambda *xy: prob.exact(*xy, config.T),
                                res['mesh'], res['basis'])
        errors = res['errors']
    else:
        ref = solve_level(config, n, bc_mode='naive')
        reference = ref['u']
        errors = None
    ratio = error_localization(res['u'], reference, res['mesh'])
    path = profile or config.out
    if path:
        with open(path, 'w', newline='') as fh:
            fh.write(_profile_csv(res['u'], reference, res['mesh'],
                                  res['basis']))
    if config.trace and res['trace'] is not None:
        with open(config.trace, 'w', newline='') as fh:
            fh.write(_trace_csv(res['trace'], res['mesh'].dim))
    return {'n': n, 'errors': errors, 'ratio': ratio, 'seconds':
            res['seconds'], 'steps': res['steps'], 'growth': res['growth'],
            'profile': path}
