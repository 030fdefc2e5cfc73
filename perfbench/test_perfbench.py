"""Tests of the benchmark's own machinery, at tiny sizes."""

import json
import math

import pytest

import bench
from ldgimex import harness, imex, operators
from tracing import Tracer, self_time_by_name, self_times

TINY = [('heat1d', 4, 'treated'), ('heat1d', 8, 'treated'),
        ('burgers1d', 4, 'naive'), ('heat2d', 3, 'treated'),
        ('heat2d', 4, 'treated')]


# -- self times -----------------------------------------------------------------

def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [['root', 0.0, 10.0, -1],
             ['a', 1.0, 4.0, 0],
             ['a.leaf', 2.0, 3.0, 1],
             ['b', 5.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert self_time_by_name(spans) == {'root': 3.0, 'a': 2.0,
                                        'a.leaf': 1.0, 'b': 4.0}


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [['root', 0.0, 5.0, -1],
             ['c', 1.0, 3.0, 0],
             ['c', -1.0, 2.0, 0],
             ['c', 4.0, 7.0, 0]]
    # covered part of root: [0, 3] and [4, 5]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_self_time_within_counts_only_descendants():
    spans = [['setup', 0.0, 1.0, -1],
             ['imex.integrate', 1.0, 6.0, -1],
             ['step', 1.5, 5.5, 1],
             ['solve', 2.0, 3.0, 2],
             ['solve', 7.0, 8.0, -1]]
    inside = self_time_by_name(spans, within='imex.integrate')
    assert inside == {'step': 3.0, 'solve': 1.0}
    assert sum(inside.values()) == pytest.approx(6.0 - 1.0 - 1.0)


def test_tracer_records_parents_and_self_times_add_up():
    tr = Tracer()

    def leaf(x):
        return x + 1

    inner = tr.wrap('inner', lambda x: tr.wrap('leaf', leaf)(x) * 2)
    outer = tr.wrap('outer', lambda: inner(1) + inner(2))
    assert outer() == 10
    names = [s[0] for s in tr.spans]
    parents = [s[3] for s in tr.spans]
    assert names == ['outer', 'inner', 'leaf', 'inner', 'leaf']
    assert parents == [-1, 0, 1, 0, 3]
    assert tr.counts() == {'outer': 1, 'inner': 2, 'leaf': 2}
    selfs = self_times(tr.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(tr.spans[0][2] - tr.spans[0][1])


def test_tracer_closes_span_when_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError('x')

    with pytest.raises(ValueError):
        tr.wrap('boom', boom)()
    assert tr.spans[0][2] >= tr.spans[0][1] > 0.0
    assert tr.wrap('next', lambda: 1)() == 1
    assert tr.spans[1][3] == -1


# -- correctness check ----------------------------------------------------------

REF = (1e-6, 2e-6, 4e-6)


@pytest.mark.parametrize('errors', [
    REF, (0.5e-6, 1e-6, 1e-6), (0.0, 0.0, 0.0),
    (1e-6 * (1 + 5e-7), 2e-6, 4e-6)])
def test_check_errors_passes_smaller_or_equal_errors(errors):
    assert bench.check_errors(errors, REF) is None


@pytest.mark.parametrize('errors', [
    (1e-6 * (1 + 1e-4), 2e-6, 4e-6), (1e-6, 2e-6, 8e-6),
    (float('nan'), 2e-6, 4e-6), (1e-6, float('inf'), 4e-6)])
def test_check_errors_fails_larger_or_nonfinite_errors(errors):
    assert bench.check_errors(errors, REF) is not None


def test_check_errors_allows_roundoff_at_the_floor_only():
    floor = (3e-12, 3e-12, 7e-12)
    assert bench.check_errors((5e-12, 6e-12, 2e-11), floor) is None
    assert bench.check_errors((5e-12, 1e-10, 2e-11), floor) is not None


def test_check_errors_needs_a_reference():
    assert bench.check_errors(REF, None) is not None


# -- reference machine speed ----------------------------------------------------

def test_pass_totals_scale_each_run_by_its_own_calibration():
    ref = bench.CALIBRATION_REF_S
    records = [{'seconds': 1.0, 'setup': 0.1, 'calibration': 2 * ref},
               {'seconds': 3.0, 'setup': 0.3, 'calibration': ref},
               {'seconds': None, 'setup': None, 'calibration': ref}]
    assert bench.pass_totals(records, False) == pytest.approx((4.0, 0.4))
    assert bench.pass_totals(records, True) == pytest.approx((3.5, 0.35))


def test_calibration_kernel_times_itself():
    kernel = bench.Calibration()
    assert 0.0 < kernel() < 5.0


# -- seed shuffling -------------------------------------------------------------

def _take(gen, k):
    return [next(gen) for _ in range(k)]


def test_run_orders_repeat_for_a_seed_and_permute_the_runs():
    runs = bench.WORKLOADS['ladder1d-treated']
    first = _take(bench.run_orders(runs, 7), 5)
    assert first == _take(bench.run_orders(runs, 7), 5)
    for order in first:
        assert sorted(order) == sorted(runs)
    assert len({tuple(o) for o in first}) > 1
    assert first != _take(bench.run_orders(runs, 8), 5)


# -- workloads, reference and BENCHMARK.json ------------------------------------

def test_reference_covers_every_run():
    ref = bench.load_reference()
    for runs in bench.WORKLOADS.values():
        for run in runs:
            assert len(ref[bench.ref_key(*run)]) == 3


def test_benchmark_json_matches_the_metrics_emitted():
    with open(bench.ROOT / 'BENCHMARK.json') as fh:
        spec = json.load(fh)
    assert {w['name'] for w in spec['workloads']} == set(bench.WORKLOADS)
    assert {m['name']: m['unit'] for m in spec['end_to_end']} \
        == bench.END_TO_END
    assert {m['name']: m['unit'] for m in spec['per_layer']} \
        == bench.PER_LAYER


# -- tiny end-to-end runs -------------------------------------------------------

def _tiny_reference():
    records, _ = bench.run_pass(TINY, {}, False, bench.Calibration())
    return bench.error_table(records)


def test_instrumentation_is_restored():
    before = (harness.norms, harness.interpolate, harness.treated_boundary,
              harness.NaiveBoundary, imex.spla, imex.explicit_rhs,
              imex.build_diffusion, operators.llf_alpha,
              imex.ImexIntegrator.step, imex.ImexIntegrator.integrate)
    bench.run_pass(TINY[:1], {}, True, bench.Calibration())
    after = (harness.norms, harness.interpolate, harness.treated_boundary,
             harness.NaiveBoundary, imex.spla, imex.explicit_rhs,
             imex.build_diffusion, operators.llf_alpha,
             imex.ImexIntegrator.step, imex.ImexIntegrator.integrate)
    assert before == after


def test_traced_run_matches_untraced_and_counters_repeat_across_seeds():
    ref = _tiny_reference()
    one = bench.measure(TINY, 1, 0.0, True, reference=ref)
    two = bench.measure(TINY, 2, 0.0, True, reference=ref)
    for res in (one, two):
        assert res['correct'], (res['failures'], res['problems'])
        assert res['failed'] == 0 and res['attempted'] == 2 * len(TINY)
        m = {k: v['value'] for k, v in res['metrics'].items()}
        assert m['imex.steps'] > 0 and m['imex.solve_n'] > 0
        # one LU per step size: the full steps and the shortened last one
        assert m['imex.factor_n'] == 2 * len(TINY)
        assert m['imex.lu_fill_nnz'] > 0
        assert m['problems.omega_n'] > 0
        assert m['operators.explicit_rhs_n'] == m['operators.llf_alpha_n']
        assert m['imex.naive_boundary_s'] > 0.0
        assert m['fail_frac'] == 0.0
        assert 0.5 < m['trace.coverage'] <= 1.0 + 1e-9
    assert one['passes'] != two['passes']
    assert one['errors'] == two['errors'] == ref
    for name in bench.LAYER_COUNTS:
        assert one['metrics'][name] == two['metrics'][name]


def test_untraced_result_reports_accuracy_and_counts_failures():
    ref = _tiny_reference()
    res = bench.measure(TINY, 3, 0.0, False, reference=ref)
    assert res['correct'] and res['attempted'] == len(TINY)
    m = res['metrics']
    assert set(m) == set(bench.END_TO_END)
    assert m['solve_s']['value'] > 0 and m['setup_s']['value'] > 0
    assert m['order_ratio']['value'] > 0
    assert math.isfinite(m['l2_err']['value'])
    worse = dict(ref)
    key = bench.ref_key(*TINY[1])
    worse[key] = [e / 2 for e in ref[key]]
    res = bench.measure(TINY, 3, 0.0, False, reference=worse)
    assert not res['correct'] and res['failed'] == 1
    assert res['failures'][0][0] == key
