"""Workloads, correctness check, tracing and metrics of the ldgimex benchmark.

Every run goes through ``ldgimex.harness.solve_level``, the path behind
``artifact convergence``.  A workload is a fixed list of (problem, N, mode)
runs; a pass runs all of them once, in an order shuffled by the seed, and a
measurement repeats passes until its time is up.  End-to-end timings are
medians over passes of per-pass sums, scaled to a reference machine speed
(see ``Calibration``).

The traced mode records spans by wrapping the public calls into each layer
from outside (see ``instrumented``); ``src/ldgimex`` itself is untouched.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ldgimex import harness, imex, operators
from ldgimex.problems import builtin_problem

from tracing import Tracer, self_time_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / 'out'

# Off the step grid of every level below, so each run ends with a shortened
# step and factors a second LU, as a user-chosen --T does.
T_FINAL = 0.937
LADDER1D = ('heat1d', 'burgers1d', 'heat1d_o4')
WORKLOADS = {
    'ladder1d-treated': [(p, n, 'treated') for p in LADDER1D
                         for n in (40, 80, 160)],
    'ladder1d-naive': [(p, n, 'naive') for p in LADDER1D
                       for n in (40, 80, 160)],
    'heat2d-treated': [('heat2d', n, 'treated') for n in (20, 40)],
}

# A run fails when one of its (L1, L2, Linf) errors exceeds the stored
# reference by more than RTOL relative plus ATOL absolute.  ATOL sits above
# the fourth-order roundoff floor (L2 ~3e-12, Linf ~8e-12 on heat1d_o4), so
# reordered arithmetic passes while a lost order of accuracy does not.
RTOL = 1e-6
ATOL = 2e-11
REFERENCE = HERE / 'reference.json'

END_TO_END = {
    'solve_s': 's', 'setup_s': 's', 'peak_rss_mb': 'MB', 'l2_err': '1',
    'order_ratio': 'ratio',
}

# solve_s and setup_s are given at the machine speed at which the
# calibration kernel takes CALIBRATION_REF_S (see Calibration).
CALIBRATION_REF_S = 0.010

# span name -> per-layer metric holding the summed self time of its spans
LAYER_TIMES = {
    'imex.factor': 'imex.factor_s',
    'imex.solve': 'imex.solve_s',
    'imex.step': 'imex.step.self_s',
    'operators.explicit_rhs': 'operators.explicit_rhs.self_s',
    'operators.llf_alpha': 'operators.llf_alpha_s',
    'treatment.prepare': 'treatment.prepare_s',
    'treatment.begin_step': 'treatment.begin_step_s',
    'treatment.stage_data': 'treatment.stage_data_s',
    'treatment.observe_stage': 'treatment.observe_stage_s',
    'imex.naive_boundary': 'imex.naive_boundary_s',
    'problems.omega': 'problems.omega_s',
    'operators.build_diffusion': 'operators.build_diffusion_s',
    'quadrature.interpolate': 'quadrature.interpolate_s',
    'operators.norms': 'operators.norms_s',
}
# per-layer counter -> span name whose calls it counts
LAYER_COUNTS = {
    'imex.steps': 'imex.step',
    'imex.factor_n': 'imex.factor',
    'imex.solve_n': 'imex.solve',
    'operators.explicit_rhs_n': 'operators.explicit_rhs',
    'operators.llf_alpha_n': 'operators.llf_alpha',
    'problems.omega_n': 'problems.omega',
}
PER_LAYER = dict(
    [(m, 's') for m in LAYER_TIMES.values()]
    + [(m, 'count') for m in LAYER_COUNTS]
    + [('imex.lu_fill_nnz', 'count'), ('trace.overhead', 'ratio'),
       ('trace.coverage', 'ratio'), ('fail_frac', 'ratio')])

TREATED_METHODS = {m: 'treatment.' + m for m in
                   ('prepare', 'begin_step', 'stage_data', 'observe_stage')}
NAIVE_METHODS = {m: 'imex.naive_boundary' for m in TREATED_METHODS}
OMEGA_FAMILY = ('omega', 'omega_t', 'omega_tt')


# -- inputs and correctness -----------------------------------------------------

def run_orders(runs, seed):
    """Endless run orders, one per pass: the runs shuffled by the seed."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(runs, len(runs))


def ref_key(problem, n, mode):
    return '%s/%s/%d' % (problem, mode, n)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)['errors']


def check_errors(errors, ref):
    """None when the (L1, L2, Linf) errors pass, else the reason.

    One-sided: errors smaller than the reference always pass.
    """
    if ref is None:
        return 'no reference errors'
    if len(errors) != 3 or not all(math.isfinite(e) for e in errors):
        return 'non-finite errors %r' % (errors,)
    for norm, e, r in zip(('L1', 'L2', 'Linf'), errors, ref):
        if e > r * (1.0 + RTOL) + ATOL:
            return '%s error %.6e exceeds reference %.6e' % (norm, e, r)
    return None


# -- machine speed --------------------------------------------------------------

class Calibration:
    """A fixed kernel, independent of ldgimex, timed next to every run.

    On a shared VM the speed of a vCPU swings by 1.5x within seconds and
    drifts over minutes, and it slows numpy-bound and SuperLU-bound work
    alike.  Each run's times are scaled by CALIBRATION_REF_S over the
    kernel's time around that run, which takes most of this out.  The
    kernel mixes the same kinds of work as the solver: a sparse LU of a 2D
    Laplacian, its solves, and small numpy operations in a Python loop.
    """

    def __init__(self):
        line = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(40, 40))
        self._a = (sp.kronsum(line, line) + sp.identity(1600)).tocsc()
        self._b = np.ones(1600)
        self._small = np.linspace(0.0, 1.0, 96).reshape(8, 3, 4)

    def __call__(self):
        start = time.perf_counter()
        lu = spla.splu(self._a)
        for _ in range(5):
            lu.solve(self._b)
        for _ in range(600):
            np.max(np.abs(np.einsum('ijk->ik', self._small)))
        return time.perf_counter() - start


# -- tracing --------------------------------------------------------------------

def _traced_controllers(factory, tracer, methods):
    """Wrap a controller factory so the objects it builds record spans."""
    def build(*args, **kwargs):
        ctrl = factory(*args, **kwargs)
        for method, name in methods.items():
            fn = getattr(ctrl, method, None)
            if fn is not None:
                setattr(ctrl, method, tracer.wrap(name, fn))
        return ctrl
    return build


class _TracedSparseLinalg:
    """Stands in for scipy.sparse.linalg inside ldgimex.imex.

    ``splu`` records an 'imex.factor' span and returns a factor whose
    ``solve`` records 'imex.solve' spans.  The real factors are kept in
    ``factors`` so their fill can be read after the run, outside any span.
    """

    def __init__(self, real, tracer):
        self._real = real
        self.factors = []
        factor = tracer.wrap('imex.factor', real.splu)

        def splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            self.factors.append(lu)
            return SimpleNamespace(solve=tracer.wrap('imex.solve', lu.solve))

        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextmanager
def instrumented(tracer, full):
    """Wrap the solver's layer entry points; restore them on exit.

    Only norms is wrapped when ``full`` is false: setup time is the rest of
    solve_level once integrate() and norms() are taken out.  Yields the
    sparse-linalg stand-in (None when not full).
    """
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(owner, attr, name):
        patch(owner, attr, tracer.wrap(name, vars(owner)[attr]))

    try:
        wrap(harness, 'norms', 'operators.norms')
        stand_in = None
        if full:
            wrap(imex.ImexIntegrator, 'integrate', 'imex.integrate')
            wrap(imex.ImexIntegrator, 'step', 'imex.step')
            wrap(imex, 'explicit_rhs', 'operators.explicit_rhs')
            wrap(operators, 'llf_alpha', 'operators.llf_alpha')
            wrap(imex, 'build_diffusion', 'operators.build_diffusion')
            wrap(harness, 'interpolate', 'quadrature.interpolate')
            stand_in = _TracedSparseLinalg(imex.spla, tracer)
            patch(imex, 'spla', stand_in)
            patch(harness, 'treated_boundary', _traced_controllers(
                harness.treated_boundary, tracer, TREATED_METHODS))
            patch(harness, 'NaiveBoundary', _traced_controllers(
                harness.NaiveBoundary, tracer, NAIVE_METHODS))
        yield stand_in
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- runs and passes ------------------------------------------------------------

def run_one(problem, n, mode, tracer, traced, reference):
    """One solve_level run; returns its record (times, errors, failure)."""
    rec = {'problem': problem, 'n': n, 'mode': mode, 'seconds': None,
           'setup': None, 'calibration': None, 'errors': None,
           'failure': None}
    mark = len(tracer.spans)
    start = time.perf_counter()
    try:
        prob = builtin_problem(problem)
        if traced:
            for attr in OMEGA_FAMILY:
                fn = getattr(prob, attr)
                if fn is not None:
                    setattr(prob, attr, tracer.wrap('problems.omega', fn))
        config = harness.RunConfig(prob, [n], bc_mode=mode, algorithm='alg2',
                                   T=T_FINAL)
        res = harness.solve_level(config, n)
        wall = time.perf_counter() - start
        if not np.all(np.isfinite(res['u'])):
            raise FloatingPointError('non-finite solution')
    except Exception as exc:  # a failed run is counted, not fatal
        rec['failure'] = '%s: %s' % (type(exc).__name__, exc)
        return rec
    norms_s = sum(s[2] - s[1] for s in tracer.spans[mark:]
                  if s[0] == 'operators.norms')
    rec['seconds'] = res['seconds']
    rec['setup'] = wall - res['seconds'] - norms_s
    rec['errors'] = [float(e) for e in res['errors']]
    rec['failure'] = check_errors(rec['errors'],
                                  reference.get(ref_key(problem, n, mode)))
    return rec


def run_pass(order, reference, traced, calibration):
    """Run every (problem, N, mode) of ``order`` once.

    The calibration kernel runs before the first run and after each one;
    a run's record holds the mean of the two kernel times around it.
    Returns the run records and, when traced, the pass's per-layer values.
    """
    tracer = Tracer()
    records = []
    fill = 0
    before = calibration()
    with instrumented(tracer, traced) as stand_in:
        for problem, n, mode in order:
            gc.collect()
            rec = run_one(problem, n, mode, tracer, traced, reference)
            after = calibration()
            rec['calibration'] = 0.5 * (before + after)
            before = after
            records.append(rec)
            if stand_in is not None:
                fill += sum(lu.L.nnz + lu.U.nnz for lu in stand_in.factors)
                stand_in.factors.clear()
    if not traced:
        return records, None
    spans = tracer.spans
    selfs = self_time_by_name(spans)
    counts = tracer.counts()
    layers = {metric: selfs.get(name, 0.0)
              for name, metric in LAYER_TIMES.items()}
    layers.update({metric: counts.get(name, 0)
                   for metric, name in LAYER_COUNTS.items()})
    layers['imex.lu_fill_nnz'] = fill
    solve = sum(r['seconds'] or 0.0 for r in records)
    inside = sum(self_time_by_name(spans, within='imex.integrate').values())
    layers['trace.coverage'] = inside / solve if solve > 0 else 0.0
    return records, {'layers': layers, 'spans': spans}


def pass_totals(records, scaled):
    """(solve, setup) seconds of one pass, summed over its runs.

    With ``scaled``, each run counts at the reference machine speed.
    """
    solve = setup = 0.0
    for r in records:
        if r['seconds'] is not None:
            f = CALIBRATION_REF_S / r['calibration'] if scaled else 1.0
            solve += f * r['seconds']
            setup += f * r['setup']
    return solve, setup


def accuracy(records):
    """(l2_err, order_ratio) over the problems of one pass.

    l2_err is the geometric mean of each problem's finest-level L2 error;
    order_ratio is the smallest observed L2 order at the finest pair of
    levels, divided by k+1.
    """
    by_problem = {}
    for r in records:
        if r['errors'] is not None:
            by_problem.setdefault(r['problem'], {})[r['n']] = r['errors'][1]
    logs = []
    ratios = []
    for problem, errs in by_problem.items():
        levels = sorted(errs)
        logs.append(math.log(errs[levels[-1]]))
        if len(levels) >= 2:
            n0, n1 = levels[-2:]
            order = math.log(errs[n0] / errs[n1]) / math.log(n1 / n0)
            ratios.append(order / (builtin_problem(problem).degree + 1))
    l2 = math.exp(statistics.fmean(logs)) if logs else None
    return l2, (min(ratios) if ratios else None)


def error_table(records):
    return {ref_key(r['problem'], r['n'], r['mode']): r['errors']
            for r in records}


# -- environment ----------------------------------------------------------------

def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / '.git'
    try:
        head = (git / 'HEAD').read_text().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / 'packed-refs').read_text().splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package):
    """SHA-256 over the solver's sources; identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob('*.py')):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_info():
    try:
        deps = np.show_config(mode='dicts')['Build Dependencies']
        blas = deps['blas']
        return {'name': blas.get('name'), 'version': blas.get('version'),
                'config': blas.get('openblas configuration')}
    except (KeyError, TypeError):
        return None


def environment(seed):
    return {
        'seed': seed,
        'commit': git_commit(ROOT),
        'source_sha256': source_digest(ROOT / 'src' / 'ldgimex'),
        'python': platform.python_version(),
        'numpy': np.__version__,
        'scipy': scipy.__version__,
        'blas': blas_info(),
        'threads': {k: v for k, v in sorted(os.environ.items())
                    if k.endswith('_NUM_THREADS')},
        'nproc': os.cpu_count(),
        'affinity': len(os.sched_getaffinity(0)),
        'platform': platform.platform(),
    }


# -- measurement ----------------------------------------------------------------

def measure(workload, seed, seconds, traced, reference=None):
    """Run passes of ``workload`` for ``seconds``; return the full record.

    Untraced, every pass is timed.  Traced, untraced and traced passes
    alternate (which comes first alternates too), so both see the same
    machine load and the traced errors can be compared bitwise.
    """
    runs = WORKLOADS[workload] if isinstance(workload, str) else workload
    if reference is None:
        reference = load_reference()
    shuffled = run_orders(runs, seed)
    calibration = Calibration()
    plain, tracedp = [], []
    deadline = time.perf_counter() + seconds
    while True:
        kinds = [False, True] if traced else [False]
        if traced and len(plain) % 2:
            kinds.reverse()
        for kind in kinds:
            out = run_pass(next(shuffled), reference, kind, calibration)
            (tracedp if kind else plain).append(out)
        if time.perf_counter() >= deadline:
            break
    return summarize(plain, tracedp)


def summarize(plain, tracedp):
    """Reduce passes to metrics and the correctness verdict."""
    all_passes = plain + tracedp
    records = [r for recs, _ in all_passes for r in recs]
    failures = [r for r in records if r['failure'] is not None]
    problems = []
    tables = [error_table(recs) for recs, _ in all_passes]
    if any(t != tables[0] for t in tables):
        problems.append('errors differ between passes')
    metrics = {}
    if not tracedp:
        totals = [pass_totals(recs, True) for recs, _ in plain]
        l2, ratio = accuracy(plain[0][0])
        metrics = {
            'solve_s': statistics.median(t[0] for t in totals),
            'setup_s': statistics.median(t[1] for t in totals),
            'peak_rss_mb': resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            'l2_err': l2,
            'order_ratio': ratio,
        }
        units = END_TO_END
    else:
        layers = [lay['layers'] for _, lay in tracedp]
        for metric in list(LAYER_COUNTS) + ['imex.lu_fill_nnz']:
            if any(lay[metric] != layers[0][metric] for lay in layers):
                problems.append('counter %s differs between passes' % metric)
            metrics[metric] = layers[0][metric]
        for metric in list(LAYER_TIMES.values()) + ['trace.coverage']:
            metrics[metric] = statistics.median(lay[metric] for lay in layers)
        solve, traced_solve = (
            statistics.median(pass_totals(recs, False)[0]
                              for recs, _ in passes)
            for passes in (plain, tracedp))
        metrics['trace.overhead'] = traced_solve / solve if solve else 0.0
        metrics['fail_frac'] = len(failures) / len(records)
        units = PER_LAYER
    return {
        'correct': not failures and not problems,
        'attempted': len(records),
        'failed': len(failures),
        'metrics': {name: {'value': metrics[name], 'unit': unit}
                    for name, unit in units.items()},
        'problems': problems,
        'failures': [(ref_key(r['problem'], r['n'], r['mode']), r['failure'])
                     for r in failures],
        'passes': {kind: [[(ref_key(r['problem'], r['n'], r['mode']),
                            r['seconds'], r['setup'], r['calibration'])
                           for r in recs]
                           for recs, _ in passes]
                   for kind, passes in (('untraced', plain),
                                        ('traced', tracedp))},
        'errors': tables[0],
        'spans': tracedp[-1][1]['spans'] if tracedp else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog='perfbench/run.py',
        description='Run one ldgimex benchmark workload.')
    parser.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error('--seconds must be positive')
    env = environment(args.seed)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / ('%s-seed%d-trace%d.json'
                  % (args.workload, args.seed, args.trace))
    with open(path, 'w') as fh:
        json.dump(dict(result, workload=args.workload, env=env), fh)
    for key, why in result['failures']:
        print('FAILED %s: %s' % (key, why))
    for why in result['problems']:
        print('INCONSISTENT: %s' % why)
    for name, m in result['metrics'].items():
        print('%-32s %-24s %s' % (name, m['value'], m['unit']))
    print('env %s' % json.dumps(env))
    print('record %s' % path.relative_to(ROOT))
    print(json.dumps({k: result[k] for k in
                      ('correct', 'attempted', 'failed', 'metrics')}))
    return 0
