"""Run configuration, convergence/efficiency drivers, and CSV output."""

import numpy as np
import pytest

from ldgimex.harness import (CONVERGENCE_HEADER, EFFICIENCY_HEADER,
                             ConvergenceReport, NumericFailure, RunConfig,
                             efficiency_csv, error_localization,
                             run_convergence, run_efficiency, run_single,
                             solve_level)
from ldgimex.mesh import build_mesh
from ldgimex.problems import ProblemSpec, builtin_problem, residual_check
from ldgimex.quadrature import build_basis


def _quick(**kw):
    kw.setdefault('cfl', 0.5)
    kw.setdefault('T', 0.5)
    return RunConfig('heat1d', kw.pop('levels', [5, 10]), **kw)


# -- configuration validation ----------------------------------------------------

def test_config_defaults_come_from_the_problem():
    cfg = RunConfig('heat1d', [5, 10])
    assert cfg.problem.name == 'heat1d'
    assert cfg.tableau.name == 'ark3'
    assert cfg.cfl == cfg.problem.cfl == 0.25
    assert cfg.T == cfg.problem.T == 5.0
    assert cfg.bc_mode == 'treated' and cfg.algorithm == 'alg2'
    o4 = RunConfig('heat1d_o4', [5])
    assert o4.tableau.name == 'ark4'


def test_config_accepts_spec_instances_and_overrides():
    prob = builtin_problem('burgers1d')
    cfg = RunConfig(prob, [5], tableau='ark4', cfl=0.1, T=1.0, repeats=7)
    assert cfg.problem is prob
    assert cfg.tableau.name == 'ark4'
    assert cfg.cfl == 0.1 and cfg.T == 1.0 and cfg.repeats == 7


@pytest.mark.parametrize("kw,msg", [
    (dict(levels=[]), "nonempty"),
    (dict(levels=[10, 5]), "strictly increasing"),
    (dict(levels=[10, 10]), "strictly increasing"),
    (dict(levels=[0, 5]), "positive"),
    (dict(levels=[5], bc_mode='fancy'), "bc_mode"),
    (dict(levels=[5], algorithm='alg7'), "algorithm"),
    (dict(levels=[5], cfl=0.0), "cfl must be positive"),
    (dict(levels=[5], cfl=-1.0), "cfl must be positive"),
    (dict(levels=[5], T=0.0), "T must be positive"),
    (dict(levels=[5], repeats=0), "repeats"),
    (dict(levels=[5], algorithm='alg3'), "alg3' is not implemented"),
])
def test_config_rejects_bad_values(kw, msg):
    levels = kw.pop('levels')
    with pytest.raises(ValueError, match=msg):
        RunConfig('heat1d', levels, **kw)


def test_config_rejects_unknown_problem():
    with pytest.raises(ValueError, match="unknown problem"):
        RunConfig('heat9d', [5])


# -- report arithmetic and formatting ----------------------------------------------

def test_report_orders_against_previous_row():
    rep = ConvergenceReport(None)
    rep.add(5, (1e-2, 2e-2, 4e-2), 0.5, 10)
    rep.add(10, (1.25e-3, 2.5e-3, 4e-3), 1.0, 20)
    assert rep.rows[0]['orders'] == (None, None, None)
    assert rep.orders('l1') == [pytest.approx(3.0)]
    assert rep.orders('l2') == [pytest.approx(3.0)]
    # 4e-2 -> 4e-3 over a doubling is order log2(10)
    assert rep.orders('linf') == [pytest.approx(np.log2(10.0))]
    assert rep.errors('linf') == [4e-2, 4e-3]


def test_report_csv_layout():
    rep = ConvergenceReport(None)
    rep.add(5, (1e-2, 2e-2, 4e-2), 0.5, 10)
    rep.add(10, (1.25e-3, 2.5e-3, 4e-3), 1.0, 20)
    text = rep.to_csv()
    assert '\r' not in text and text.endswith('\n')
    lines = text.splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    assert len(lines) == 3
    row5 = lines[1].split(',')
    assert row5[0] == '5' and row5[-1] == '10'
    # coarsest row carries no orders
    assert row5[2] == '' and row5[4] == '' and row5[6] == ''
    assert row5[1] == '1.0000000000e-02'
    row10 = lines[2].split(',')
    assert row10[2] != '' and float(row10[2]) == pytest.approx(3.0)
    assert all(len(r.split(',')) == 9 for r in lines[1:])


def test_efficiency_csv_layout():
    rows = [
        {'n': 5, 'mode': 'naive', 'seconds': 0.5, 'l2_error': 1e-3,
         'linf_error': 2e-3, 'overhead': None},
        {'n': 5, 'mode': 'treated', 'seconds': 0.6, 'l2_error': 1e-3,
         'linf_error': 2e-3, 'overhead': 1.2},
    ]
    lines = efficiency_csv(rows).splitlines()
    assert lines[0] == EFFICIENCY_HEADER
    assert lines[1] == ('5,naive,5.0000000000e-01,1.0000000000e-03,'
                        '2.0000000000e-03,')
    assert lines[2].endswith(',1.2000000000e+00')


# -- level runs ---------------------------------------------------------------------

def test_solve_level_returns_errors_and_counts():
    res = solve_level(_quick(), 5)
    assert res['n'] == 5 and res['mode'] == 'treated'
    assert res['u'].shape == (5, 3)
    assert len(res['errors']) == 3
    assert all(e > 0 for e in res['errors'])
    # tau = 0.5 * (2/5) = 0.2 over T = 0.5: two whole steps plus a short one
    assert res['steps'] == 3
    assert res['seconds'] >= 0.0
    assert res['trace'] is None


def test_solve_level_mode_override_and_trace():
    res = solve_level(_quick(), 5, bc_mode='naive')
    assert res['mode'] == 'naive'
    assert res['trace'] is None           # naive controller keeps no trace
    res = solve_level(_quick(), 5, collect_trace=True)
    assert len(res['trace']) == 3 * 4 * 2  # steps x stages x sides


def test_convergence_runs_and_orders_improve():
    rep = run_convergence(_quick(levels=[5, 10, 20], T=1.0))
    assert [r['n'] for r in rep.rows] == [5, 10, 20]
    for norm in ('l1', 'l2', 'linf'):
        errs = rep.errors(norm)
        assert errs[0] > errs[1] > errs[2]


# The paper's claim at each problem's own T and CFL: treated runs converge
# at order k+1, naive ones stall near 2.  Orders are taken at the finest
# pair; the bounds come from the measured 3.01 (heat1d), 2.97 (burgers1d),
# 4.01 (heat1d_o4), 3.01 (heat2d) and naive heat1d Linf 1.97.  heat2d at
# N = 5/10 is still pre-asymptotic, hence 6/12.
@pytest.mark.parametrize("name,levels", [
    ("heat1d", [20, 40, 80]),
    ("burgers1d", [20, 40, 80]),
    ("heat1d_o4", [20, 40, 80]),
    ("heat2d", [6, 12]),
])
def test_treated_runs_reach_order_k_plus_one(name, levels):
    report = run_convergence(RunConfig(name, levels))
    k = report.config.problem.degree
    assert report.orders('l2')[-1] >= k + 1 - 0.15, report.orders('l2')


def test_naive_runs_stall_near_second_order():
    report = run_convergence(RunConfig('heat1d', [20, 40, 80],
                                       bc_mode='naive'))
    assert report.orders('linf')[-1] <= 2.2, report.orders('linf')


def _no_flux_2d():
    return ProblemSpec(
        'pure2d', ((-1.0, 1.0), (-1.0, 1.0)), 1.0, 1.0, 0.2, 2,
        exact=lambda x, y, t: np.exp(-2.0 * t) * np.sin(x) * np.cos(y))


def _x_flux_2d():
    C = 0.1
    return ProblemSpec(
        'xflux2d', ((-1.0, 1.0), (-1.0, 1.0)), 1.0, 1.0, 0.2, 2,
        fluxes=[(lambda u: -C * u,
                 lambda u: -C * np.ones_like(np.asarray(u, dtype=float)),
                 lambda u: 0.0 * np.asarray(u, dtype=float)),
                (None, None, None)],
        exact=lambda x, y, t: (np.exp(-2.0 * t) * np.sin(x + C * t)
                               * np.cos(y)),
        omega_t=lambda x, y, t: (np.exp(-2.0 * t) * np.cos(y)
                                 * (C * np.cos(x + C * t)
                                    - 2.0 * np.sin(x + C * t))))


# 2D problems without a flux along one or both axes: the LLF bound and the
# convective RHS run over the axes that have one.  Measured L2 orders at
# N = 6/12: 2.72 (no flux) and 2.66 (x flux only).
@pytest.mark.parametrize("make", [_no_flux_2d, _x_flux_2d])
def test_naive_2d_runs_converge_without_a_flux_per_axis(make):
    spec = make()
    assert residual_check(spec) < 1e-4
    report = run_convergence(RunConfig(spec, [6, 12], bc_mode='naive'))
    assert report.orders('l2')[-1] >= 2.0, report.orders('l2')


# The treated controller takes f' = f'' = 0 along the axis without a flux
# (the x flux is a callable triple, so the speeds do not stand in).
# Measured L2 order at N = 6/12: 3.03.
def test_treated_2d_run_with_a_flux_along_one_axis_reaches_order_three():
    spec = _x_flux_2d()
    report = run_convergence(RunConfig(spec, [6, 12]))
    assert report.orders('l2')[-1] >= spec.degree + 1 - 0.15, \
        report.orders('l2')


def _burgers2d():
    """u = e^-t sin x cos y solves u_t + (u^2/2)_x + (u^2/2)_y = lap u + p u
    on [-1, 1]^2 with the varying source factor p = 1 + e^-t cos(x + y)."""
    def exact(x, y, t):
        return np.exp(-t) * np.sin(x) * np.cos(y)

    def p_grad(x, y, t):
        return -np.exp(-t) * np.sin(x + y)

    def ones(u):
        return np.ones_like(np.asarray(u, dtype=float))

    flux = (lambda u: 0.5 * u * u, lambda u: np.asarray(u, float), ones)
    return ProblemSpec(
        'burgers2d', ((-1.0, 1.0), (-1.0, 1.0)), 1.0, 1.0, 0.1, 2,
        fluxes=[flux, flux],
        p=lambda x, y, t: 1.0 + np.exp(-t) * np.cos(x + y),
        p_grad=[p_grad, p_grad],
        exact=exact, omega_t=lambda x, y, t: -exact(x, y, t))


def test_heat1d_o4_roundoff_floor_is_low():
    # psi read from the stage equations carries no eps ||L|| ~ eps/dx^2
    # roundoff of a sparse matvec: with it, N = 320 gave L2 3.5e-12 and
    # Linf 1.5e-11, now 5.6e-13 and 6.0e-13
    config = RunConfig('heat1d_o4', [320], T=1.0, bc_mode='treated',
                       algorithm='alg2')
    _, l2, linf = solve_level(config, 320)['errors']
    assert l2 < 1.5e-12 and linf < 3e-12, (l2, linf)


# The paper's claim on a nonlinear 2D problem, at T = 1 and CFL 0.1.
# Measured L2 orders at N = 5/10/20: treated 3.06 and 3.00, naive 2.83
# and 2.59 (residual_check of the problem: 1.2e-6).
def test_burgers2d_treated_runs_reach_order_three_and_naive_ones_stall():
    spec = _burgers2d()
    assert residual_check(spec) < 1e-5
    treated = run_convergence(RunConfig(spec, [5, 10, 20]))
    assert min(treated.orders('l2')) >= 2.9, treated.orders('l2')
    naive = run_convergence(RunConfig(spec, [5, 10, 20], bc_mode='naive'))
    assert naive.orders('l2')[-1] < 2.7, naive.orders('l2')


# At CFL 0.2 and N = 40 the naive run stays stable (L2 5.9e-6 at T =
# 0.25), while the treated one goes non-finite at step 20 (t = 0.2): the
# treated controller shrinks the stable step on this problem (ROADMAP
# item 1).  The strict xfail turns into a failure once that is fixed.
@pytest.mark.parametrize("bc", [
    "naive",
    pytest.param("treated", marks=pytest.mark.xfail(
        strict=True, raises=NumericFailure,
        reason="treated burgers2d is unstable at CFL 0.2")),
])
def test_burgers2d_is_stable_at_cfl_0_2(bc):
    config = RunConfig(_burgers2d(), [40], bc_mode=bc, cfl=0.2, T=0.25)
    with np.errstate(over='ignore', invalid='ignore'):
        res = solve_level(config, 40)
    assert res['errors'][1] < 1e-4, res['errors']


def test_convergence_csv_written_and_deterministic(tmp_path):
    def strip_timing(text):
        rows = [r.split(',') for r in text.splitlines()]
        return [r[:7] + r[8:] for r in rows]

    paths = []
    for k in (0, 1):
        p = tmp_path / ('run%d.csv' % k)
        run_convergence(_quick(out=str(p)))
        paths.append(p)
    a, b = (p.read_text() for p in paths)
    assert strip_timing(a) == strip_timing(b)
    assert a.splitlines()[0] == CONVERGENCE_HEADER


def test_convergence_needs_exact_solution():
    spec = ProblemSpec('blank', (-1.0, 1.0), 1.0, 1.0, 0.25, 2,
                       fluxes=[0.0], u0=lambda x: np.sin(x),
                       omega=lambda x, t: np.exp(-t) * np.sin(x),
                       omega_t=lambda x, t: -np.exp(-t) * np.sin(x))
    with pytest.raises(ValueError, match="exact solution"):
        run_convergence(RunConfig(spec, [5], T=0.5))


def test_solve_level_needs_initial_data():
    spec = ProblemSpec('nodata', (-1.0, 1.0), 1.0, 1.0, 0.25, 2,
                       fluxes=[0.0], omega=lambda x, t: 0.0 * x,
                       omega_t=lambda x, t: 0.0 * x)
    with pytest.raises(ValueError, match="neither u0 nor an exact"):
        solve_level(RunConfig(spec, [5], T=0.5), 5)


def test_efficiency_rows_interleave_modes():
    rows = run_efficiency(_quick(levels=[5, 10], T=0.2, repeats=1))
    assert [(r['n'], r['mode']) for r in rows] == [
        (5, 'naive'), (5, 'treated'), (10, 'naive'), (10, 'treated')]
    for r in rows:
        assert r['seconds'] > 0
        assert r['l2_error'] > 0 and r['linf_error'] > 0
        if r['mode'] == 'treated':
            assert r['overhead'] == pytest.approx(
                r['seconds'] / rows[rows.index(r) - 1]['seconds'])
        else:
            assert r['overhead'] is None


# -- error localization ----------------------------------------------------------------

def test_localization_ratio_1d():
    mesh = build_mesh((-1.0, 1.0), 10)
    u = np.full((10, 3), 1e-3)
    u[0, 0] = 1.0
    ref = np.zeros_like(u)
    assert error_localization(u, ref, mesh) == pytest.approx(1000.0)


def test_localization_ratio_2d():
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (10, 10))
    u = np.full((10, 10, 3, 3), 1e-3)
    u[0, 0, 0, 0] = 1.0
    ref = np.zeros_like(u)
    assert error_localization(u, ref, mesh) == pytest.approx(1000.0)


def test_localization_degenerate_cases():
    mesh = build_mesh((-1.0, 1.0), 10)
    z = np.zeros((10, 3))
    assert error_localization(z, z, mesh) == 1.0
    spike = z.copy()
    spike[0, 0] = 1.0
    assert error_localization(spike, z, mesh) == float('inf')


# -- single runs -------------------------------------------------------------------------

def test_single_writes_profile(tmp_path):
    path = tmp_path / 'profile.csv'
    cfg = _quick(levels=[8], T=0.2)
    res = run_single(cfg, profile=str(path))
    assert res['n'] == 8
    assert len(res['errors']) == 3
    assert np.isfinite(res['ratio']) and res['ratio'] >= 1.0
    lines = path.read_text().splitlines()
    assert lines[0] == "cell,node,x,value,error"
    assert len(lines) == 1 + 8 * 3
    first = lines[1].split(',')
    assert first[0] == '0' and first[1] == '0'
    assert float(first[2]) == pytest.approx(-1.0 + (2.0 / 8) * 0.1127, rel=0.2)


def test_single_writes_stage_trace(tmp_path):
    path = tmp_path / 'trace.csv'
    cfg = _quick(levels=[8], T=0.2, trace=str(path))
    res = run_single(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,stage,side,x,naive,treated"
    assert len(lines) == 1 + res['steps'] * 4 * 2
    steps = sorted({int(r.split(',')[0]) for r in lines[1:]})
    assert steps == list(range(res['steps']))
    assert {r.split(',')[2] for r in lines[1:]} == {'west', 'east'}


def test_single_trace_requires_treated_mode(tmp_path):
    cfg = _quick(levels=[8], T=0.2, bc_mode='naive',
                 trace=str(tmp_path / 't.csv'))
    with pytest.raises(ValueError, match="treated"):
        run_single(cfg)


def test_single_needs_one_level():
    with pytest.raises(ValueError, match="exactly one level"):
        run_single(_quick(levels=[5, 10]))


def test_single_without_exact_uses_naive_reference(tmp_path):
    spec = ProblemSpec('noexact', (-1.0, 1.0), 2.0, 1.0, 0.25, 2,
                       fluxes=[-0.1],
                       u0=lambda x: np.sin(x),
                       omega=lambda x, t: np.exp(-t) * np.sin(x + 0.1 * t),
                       omega_t=lambda x, t: np.exp(-t) * (
                           0.1 * np.cos(x + 0.1 * t) - np.sin(x + 0.1 * t)))
    path = tmp_path / 'p.csv'
    res = run_single(RunConfig(spec, [8], T=0.2, cfl=0.5),
                     profile=str(path))
    assert res['errors'] is None
    assert np.isfinite(res['ratio']) and res['ratio'] > 0
    assert path.read_text().splitlines()[0] == "cell,node,x,value,error"


def test_single_2d_profile(tmp_path):
    path = tmp_path / 'p2.csv'
    cfg = RunConfig('heat2d', [4], T=0.1, cfl=0.2)
    res = run_single(cfg, profile=str(path))
    assert len(res['errors']) == 3
    lines = path.read_text().splitlines()
    assert lines[0] == "cell_i,cell_j,node1,node2,x,y,value,error"
    assert len(lines) == 1 + 4 * 4 * 3 * 3
    # each row: its indices, the node coordinates there, and the field value
    ref = solve_level(cfg, 4)
    x, y = ref['mesh'].node_coords(ref['basis'])
    u = ref['u']
    rows = [line.split(',') for line in lines[1:]]
    assert [tuple(map(int, r[:4])) for r in rows] == list(np.ndindex(u.shape))
    for r in rows:
        idx = tuple(map(int, r[:4]))
        assert r[4:7] == ['%.10e' % v for v in (x[idx], y[idx], u[idx])]


def test_single_2d_trace(tmp_path):
    path = tmp_path / 't2.csv'
    cfg = RunConfig('heat2d', [4], T=0.1, cfl=0.2, trace=str(path))
    res = run_single(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,stage,side,x,y,naive,treated"
    per_stage = 2 * (4 * 3) + 2 * (4 * 3)
    assert len(lines) == 1 + res['steps'] * 4 * per_stage
    # rows run over steps, stages, sides and each side's points in order;
    # the naive value is omega there at the stage time (T is a whole
    # number of steps)
    mesh = build_mesh(cfg.problem.bounds, 4)
    points = mesh.boundary_points(build_basis(cfg.problem.degree))
    tau = cfg.cfl * mesh.min_width
    want = [(step, stage, side, point)
            for step in range(res['steps'])
            for stage in range(cfg.tableau.stages)
            for side, pts in points.items()
            for point in zip(*map(np.ravel, pts))]
    assert len(want) == len(lines) - 1
    for line, (step, stage, side, point) in zip(lines[1:], want):
        cells = line.split(',')
        assert cells[:5] == ['%d' % step, '%d' % stage, side,
                             '%.10e' % point[0], '%.10e' % point[1]]
        t = (step + cfg.tableau.c[stage]) * tau
        assert abs(float(cells[5]) - cfg.problem.omega(*point, t)) < 1e-10
