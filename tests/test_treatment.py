"""Boundary treatment: recovery stencils, stage recursion, controllers."""

import numpy as np
import pytest

import stage_closed_forms as cf
from ldgimex.harness import RunConfig, solve_level
from ldgimex.imex import ImexIntegrator, builtin_tableau
from ldgimex.mesh import build_mesh
from ldgimex.problems import ProblemSpec, builtin_problem
from ldgimex.quadrature import build_basis, interpolate
from ldgimex.treatment import (EdgeDerivatives1D, EdgeDerivatives2D,
                               StageCorrector, treated_boundary)

ARK3 = builtin_tableau('ark3')


# -- one-sided derivative recovery ---------------------------------------------

@pytest.mark.parametrize("side,xb", [("west", -1.0), ("east", 1.0)])
def test_recovery_exact_on_quadratic(side, xb):
    mesh = build_mesh((-1.0, 1.0), 10)
    basis = build_basis(2)
    u = interpolate(lambda x: x * x, mesh, basis)
    u_x, u_xx, u_xxx = EdgeDerivatives1D(mesh, basis, side, 3).recover(u)
    assert abs(u_x - 2.0 * xb) < 1e-12
    assert abs(u_xx - 2.0) < 1e-12
    assert abs(u_xxx) < 1e-10


def _check_cubic(n, side, xb):
    mesh = build_mesh((-1.0, 1.0), n)
    basis = build_basis(3)
    u = interpolate(lambda x: x ** 3, mesh, basis)
    u_x, u_xx, u_xxx_fd, u_xxx, u_xxxx, u_xxxxx = EdgeDerivatives1D(
        mesh, basis, side, 4).recover(u)
    assert abs(u_x - 3.0 * xb * xb) < 1e-12
    assert abs(u_xx - 6.0 * xb) < 1e-12
    assert abs(u_xxx - 6.0) < 1e-11
    assert abs(u_xxx_fd - 6.0) < 1e-10
    assert abs(u_xxxx) < 1e-10
    assert abs(u_xxxxx) < 1e-9


@pytest.mark.parametrize("side,xb", [("west", -1.0), ("east", 1.0)])
def test_recovery_exact_on_cubic(side, xb):
    _check_cubic(10, side, xb)


def test_recovered_third_derivative_converges():
    # the differenced u_xxx is consistent: error shrinks ~2x per refinement
    basis = build_basis(2)
    errs = []
    for n in (40, 80):
        mesh = build_mesh((-1.0, 1.0), n)
        u = interpolate(np.sin, mesh, basis)
        u_xxx = EdgeDerivatives1D(mesh, basis, 'west', 3).recover(u)[2]
        errs.append(abs(u_xxx - (-np.cos(-1.0))))
    assert 1.5 < errs[0] / errs[1] < 3.0


def test_order_4_third_derivatives_converge_at_their_orders():
    # entry 2, the differenced u_xxx_fd that psi_x reads, is second order;
    # entry 3, the boundary cell's own u_xxx, is first order
    basis = build_basis(3)
    errs = []
    for n in (40, 80):
        mesh = build_mesh((-1.0, 1.0), n)
        rec = EdgeDerivatives1D(mesh, basis, 'east', 4).recover(
            interpolate(np.sin, mesh, basis))
        errs.append(np.abs(np.array(rec[2:4]) + np.cos(1.0)))
    fd, own = np.log2(errs[0] / errs[1])
    assert 1.8 < fd < 2.3 and 0.8 < own < 1.2, (fd, own)


_POLY_CASES = [
    ("x2y", lambda x, y: x * x * y,
     lambda x, y: ([2 * x * y, x * x], [[2 * y, 2 * x], [2 * x, 0]], [0, 2])),
    ("x+y", lambda x, y: x + y,
     lambda x, y: ([1, 1], [[0, 0], [0, 0]], [0, 0])),
    ("xy2", lambda x, y: x * y * y,
     lambda x, y: ([y * y, 2 * x * y], [[0, 2 * y], [2 * y, 2 * x]], [2, 0])),
]


def _stacked(entries, shape):
    """A nested list of scalars and arrays as one array over the points."""
    if isinstance(entries, list):
        return np.array([_stacked(e, shape) for e in entries])
    return np.broadcast_to(np.asarray(entries, float), shape)


@pytest.mark.parametrize("name,f,derivs", _POLY_CASES,
                         ids=[c[0] for c in _POLY_CASES])
@pytest.mark.parametrize("face", ["west", "east", "south", "north"])
def test_face_recovery_exact_on_low_polynomials(face, name, f, derivs):
    # grad = [u_x, u_y], hess = [[u_xx, u_xy], [u_xy, u_yy]] and
    # grad_lap = [u_xxx + u_yyx, u_xxy + u_yyy] at every face point
    basis = build_basis(2)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), (6, 5))
    X, Y = mesh.node_coords(basis)
    got = EdgeDerivatives2D(mesh, basis, face).recover(f(X, Y))
    xs, ys = mesh.boundary_points(basis)[face]
    for key, g, w in zip(('grad', 'hess', 'grad_lap'), got, derivs(xs, ys)):
        want = _stacked(w, xs.shape)
        assert g.shape == want.shape, (face, key)
        assert np.max(np.abs(g - want)) < 1e-9, (face, key)


def _face_reference(mesh, basis, face, field):
    """Face derivatives by one einsum per term, stacked over (x, y)."""
    r = EdgeDerivatives2D(mesh, basis, face)
    f = r._oriented(field)
    dn, dt = r.dn, r.dt
    eye = np.eye(basis.p)
    e0 = np.ravel(basis.values(eye, -1.0))
    e1, e2 = (np.ravel(basis.derivative_values(eye, -1.0, k))
              * (2.0 / dn) ** k for k in (1, 2))
    d1, d2 = (np.asarray(basis.derivative_values(eye, basis.nodes, k)).T
              * (2.0 / dt) ** k for k in (1, 2))
    x = np.einsum('m,ajmq->ajq', e1, f[:3])
    y = np.einsum('m,ajmn,qn->ajq', e0, f[:3], d1)
    inner = (y[0][2:] - 2.0 * y[0][1:-1] + y[0][:-2]) / dt ** 2
    cn = np.array([-3.0, 4.0, -1.0]) / (2.0 * dn)
    # np.gradient with edge_order=2: centered inside, one-sided 3-point
    # at the ends
    local = dict(
        n=x[0], t=y[0],
        nn=np.einsum('m,jmq->jq', e2, f[0]),
        tt=np.einsum('m,jmn,qn->jq', e0, f[0], d2),
        nt=np.einsum('m,jmn,qn->jq', e1, f[0], d1),
        nnn=(x[0] - 2.0 * x[1] + x[2]) / dn ** 2,
        ttt=np.concatenate([inner[:1], inner, inner[-1:]]),
        nnt=sum(c * np.gradient(v, dt, axis=0, edge_order=2)
                for c, v in zip(cn, x)),
        ttn=sum(c * np.gradient(v, dt, axis=0, edge_order=2)
                for c, v in zip(cn, y)))
    # x/y names, each odd count of derivatives along a reversed normal
    # negated
    sg = -1.0 if r.flip else 1.0
    n, t = ('x', 'y') if r.normal_axis == 'x' else ('y', 'x')
    u = {'u_' + n: sg * local['n'], 'u_' + t: local['t'],
         'u_' + 2 * n: local['nn'], 'u_' + 2 * t: local['tt'],
         'u_xy': sg * local['nt'], 'u_' + 3 * n: sg * local['nnn'],
         'u_' + 3 * t: local['ttt'], 'u_' + 2 * n + t: local['nnt'],
         'u_' + 2 * t + n: sg * local['ttn']}
    want = (np.array([u['u_x'], u['u_y']]),
            np.array([[u['u_xx'], u['u_xy']], [u['u_xy'], u['u_yy']]]),
            np.array([u['u_xxx'] + u['u_yyx'], u['u_xxy'] + u['u_yyy']]))
    return r, want


@pytest.mark.parametrize("face", ["west", "east", "south", "north"])
def test_face_recovery_matches_per_term_einsums(face):
    basis = build_basis(2)
    mesh = build_mesh(((-1.0, 1.0), (-0.5, 1.0)), (7, 5))
    field = np.random.default_rng(3).standard_normal((7, 5, 3, 3))
    rec, want = _face_reference(mesh, basis, face, field)
    got = rec.recover(field)
    assert len(got) == 3
    for key, g, w in zip(('grad', 'hess', 'grad_lap'), got, want):
        assert g.shape == w.shape, (face, key)
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (face, key)


def test_recovery_rejects_bad_requests():
    mesh = build_mesh((-1.0, 1.0), 10)
    basis = build_basis(2)
    with pytest.raises(ValueError, match="side"):
        EdgeDerivatives1D(mesh, basis, 'top', 3)
    with pytest.raises(ValueError, match="scheme_order"):
        EdgeDerivatives1D(mesh, basis, 'west', 5)
    with pytest.raises(ValueError, match=">= 3 cells"):
        EdgeDerivatives1D(build_mesh((-1.0, 1.0), 2), basis, 'west', 3)
    with pytest.raises(ValueError, match=">= 3 cells"):
        EdgeDerivatives1D(build_mesh((-1.0, 1.0), 2), build_basis(3),
                          'west', 4)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("side,xb", [("west", -1.0), ("east", 1.0)])
def test_order_4_recovery_needs_only_three_cells(n, side, xb):
    # both orders read the three cells next to the endpoint
    _check_cubic(n, side, xb)


def test_treated_heat1d_o4_runs_on_three_and_four_cells():
    for n in (3, 4):
        l2 = {mode: solve_level(RunConfig('heat1d_o4', [n], bc_mode=mode,
                                          T=0.5), n)['errors'][1]
              for mode in ('naive', 'treated')}
        assert l2['treated'] < l2['naive'] < 2e-5, (n, l2)


# -- hand-expanded stage values as oracles --------------------------------------

def _endpoint_traces(prob, tab, x, t, tau, om0, omt):
    """A step's traces at endpoint x: omega, omega_t, and p if sampled."""
    traces = {'omega': [om0] * tab.stages, 'omega_t': list(omt)}
    if callable(prob.p):
        tarr = t + tau * np.asarray(tab.c)
        traces['p'] = [float(prob.p(x, tv)) for tv in tarr]
        traces['p_grad', 0] = [float(prob.p_grad[0](x, tv)) for tv in tarr]
    return traces


def _stages_observing(prob, tab, order, variant, tau, traces, rec):
    """Stages 1..s-1 of a corrector observing rec after every stage."""
    corr = StageCorrector(prob, tab, order, variant)
    corr.begin(rec, tau, traces)
    out = []
    for i in range(1, tab.stages):
        out.append(corr.stage_value(i))
        if i < tab.stages - 1:
            corr.observe(i, rec)
    return out


def _drive_endpoint(prob, x, variant, tau, rec, om0, omt, t=0.7):
    """Feed a corrector injected traces/derivatives; return stages 1..3.

    Observed stage derivatives enter the recursion at O(tau); the
    step-start values are consistent to that order.
    """
    traces = _endpoint_traces(prob, ARK3, x, t, tau, om0, omt)
    return _stages_observing(prob, ARK3, 3, variant, tau, traces, rec), traces


def _random_states(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng.standard_normal(), rng.standard_normal(4),
               rng.standard_normal(3))


@pytest.mark.parametrize("variant", ["stagewise", "anchored"])
def test_endpoint_stages_match_hand_expansion_linear(variant):
    # stage 1 is the same algebra (any tau); stages 2-3 differ by O(tau^3),
    # invisible at tau = 2e-5
    prob = builtin_problem('heat1d')
    C, D = 0.1, 2.0
    for x in (-1.0, 1.0):
        for om0, omt, (ux, uxx, uxxx) in _random_states(3, 60):
            rec = (ux, uxx, uxxx)
            got, _ = _drive_endpoint(prob, x, variant, 2e-2, rec, om0, omt)
            want = cf.linear_heat_stages(C, D, 2e-2, om0, omt, ux, uxx, uxxx)
            assert abs(got[0] - want[0]) < 1e-12
            got, _ = _drive_endpoint(prob, x, variant, 2e-5, rec, om0, omt)
            want = cf.linear_heat_stages(C, D, 2e-5, om0, omt, ux, uxx, uxxx)
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-12


@pytest.mark.parametrize("variant", ["stagewise", "anchored"])
def test_endpoint_stages_match_hand_expansion_quadratic_flux(variant):
    prob = builtin_problem('burgers1d')
    for x in (-1.0, 1.0):
        for om0, omt, (ux, uxx, uxxx) in _random_states(5, 60):
            rec = (ux, uxx, uxxx)
            got, samples = _drive_endpoint(prob, x, variant, 2e-2, rec,
                                           om0, omt)
            want = cf.quadratic_flux_stages(2.0, 2e-2, om0, omt,
                                            samples['p'], samples['p_grad', 0][0],
                                            ux, uxx, uxxx)
            assert abs(got[0] - want[0]) < 1e-12
            got, samples = _drive_endpoint(prob, x, variant, 2e-5, rec,
                                           om0, omt)
            want = cf.quadratic_flux_stages(2.0, 2e-5, om0, omt,
                                            samples['p'], samples['p_grad', 0][0],
                                            ux, uxx, uxxx)
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-12


@pytest.mark.parametrize("face", ["west", "east", "south", "north"])
def test_face_stages_match_hand_expansion(face):
    prob = builtin_problem('heat2d')
    C, D = 0.1, 1.0
    basis = build_basis(2)
    mesh = build_mesh(prob.bounds, (8, 6))
    xs, ys = mesh.boundary_points(basis)[face]
    rng = np.random.default_rng(9)
    t = 0.4
    for _ in range(2):   # 2 draws x >= 18 points x 3 stages
        grad, grad_lap = rng.standard_normal((2, 2) + xs.shape)
        u_xx, u_xy, u_yy = rng.standard_normal((3,) + xs.shape)
        rec = (grad, np.array([[u_xx, u_xy], [u_xy, u_yy]]), grad_lap)
        for tau, stages_checked in ((2e-2, (1,)), (2e-5, (1, 2, 3))):
            corr = StageCorrector(prob, ARK3, 3, 'stagewise')
            om0 = np.broadcast_to(
                np.asarray(prob.omega(xs, ys, t), float), xs.shape)
            omt = [np.broadcast_to(
                np.asarray(prob.omega_t(xs, ys, t + ci * tau), float),
                xs.shape) for ci in ARK3.c]
            corr.begin(rec, tau, {'omega': [om0] * 4, 'omega_t': omt})
            want = cf.linear_heat_2d_stages(C, D, tau, om0, omt, *rec)
            for i in range(1, 4):
                got = corr.stage_value(i)
                if i in stages_checked:
                    assert np.max(np.abs(got - want[i - 1])) < 1e-12
                if i < 3:
                    corr.observe(i, rec)


def test_late_stage_gap_to_hand_expansion_is_cubic():
    # the documented structural O(tau^3) difference at stages 2-3
    prob = builtin_problem('heat1d')
    om0, omt = 0.6, np.array([0.3, -0.8, 0.5, 1.1])
    rec = ux, uxx, uxxx = 0.9, -1.2, 0.7
    gaps = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        got, _ = _drive_endpoint(prob, -1.0, 'anchored', tau, rec, om0, omt)
        want = cf.linear_heat_stages(0.1, 2.0, tau, om0, omt, ux, uxx, uxxx)
        gaps.append(max(abs(got[1] - want[1]), abs(got[2] - want[2])))
    slopes = [np.log2(gaps[i - 1] / gaps[i]) for i in (1, 2)]
    assert min(slopes) >= 2.9, (gaps, slopes)


@pytest.mark.parametrize("name", ["heat1d", "burgers1d", "heat1d_o4"])
def test_anchored_is_stagewise_observing_the_step_start(name):
    # which --alg values really differ: at order 3, anchored (alg1) gives
    # bitwise the stage values of stagewise (alg2) observing the step-start
    # derivatives at every stage; at order 4 anchored also Taylor-shifts the
    # Hessian and psi from the step start, so from stage 2 on they differ
    prob = builtin_problem(name)
    tab = builtin_tableau(prob.tableau)
    order = prob.degree + 1
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = float(rng.choice([-1.0, 1.0]))
        tau = 10.0 ** rng.uniform(-2.0, -1.0)    # order-4 gaps > 1e-12
        traces = _endpoint_traces(prob, tab, x, rng.uniform(), tau,
                                  rng.standard_normal(),
                                  rng.standard_normal(tab.stages))
        if order == 4:
            traces['omega_tt'] = [rng.standard_normal()]
        rec = tuple(rng.standard_normal(_TUPLE_SIZE[order]).tolist())
        anchored, stagewise = (
            _stages_observing(prob, tab, order, variant, tau, traces, rec)
            for variant in ('anchored', 'stagewise'))
        if order == 3:
            assert anchored == stagewise
        else:
            assert anchored[0] == stagewise[0]
            assert all(a != s for a, s in zip(anchored[1:], stagewise[1:]))


# -- structural properties -------------------------------------------------------

@pytest.mark.parametrize("variant", ["stagewise", "anchored"])
def test_boundary_ode_degeneracy(variant):
    # no convection, no source, data linear in t: every treated stage value
    # must equal the trace at its own stage time
    aa, bb = 0.7, -0.3
    ode = ProblemSpec(
        'ode', (-1.0, 1.0), 1.5, 1.0, 0.25, 2,
        fluxes=[0.0],
        exact=lambda x, t: (aa + bb * t) + 0.0 * x,
        omega_t=lambda x, t: bb + 0.0 * x,
        omega_tt=lambda x, t: 0.0 * x)
    basis = build_basis(2)
    mesh = build_mesh((-1.0, 1.0), 10)
    ctrl = treated_boundary(ode, mesh, basis, ARK3, variant=variant)
    u0 = interpolate(lambda x: aa + 0 * x, mesh, basis)
    t0, tau = 0.3, 0.17
    ctrl.begin_step(u0, t0, tau)
    for i in range(ARK3.stages):
        (west, east), = ctrl.stage_data(i)
        ti = t0 + ARK3.c[i] * tau
        assert abs(west - (aa + bb * ti)) < 1e-13
        assert abs(east - (aa + bb * ti)) < 1e-13
        ctrl.observe_stage(i, u0)


@pytest.mark.parametrize("variant", ["stagewise", "anchored"])
def test_treated_values_consistent_to_second_order(variant):
    # |treated stage value - omega(t^{n,i})| must shrink as O(tau^2): the
    # whole point is replacing the naive trace by the scheme's own O(tau^2)
    # stage approximation
    prob = builtin_problem('heat1d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 40)
    t0 = 0.6
    u0 = interpolate(lambda x: prob.exact(x, t0), mesh, basis)
    for stage in (1, 2, 3):
        errs = []
        for tau in (0.02, 0.01, 0.005):
            ctrl = treated_boundary(prob, mesh, basis, ARK3, variant=variant)
            ctrl.begin_step(u0, t0, tau)
            worst = 0.0
            for i in range(ARK3.stages):
                (west, east), = ctrl.stage_data(i)
                ti = t0 + ARK3.c[i] * tau
                if i == stage:
                    worst = max(abs(west - prob.omega(mesh.a, ti)),
                                abs(east - prob.omega(mesh.b, ti)))
                ctrl.observe_stage(i, u0)
            errs.append(worst)
        slopes = [np.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
        assert min(slopes) >= 1.9, (stage, errs, slopes)


def test_variants_agree_to_third_order():
    # anchored and stagewise solutions differ by O(tau^3) over a fixed mesh
    prob = builtin_problem('heat1d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 10)
    u0 = interpolate(lambda x: prob.exact(x, 0.0), mesh, basis)
    diffs = []
    for tau in (0.02, 0.01, 0.005):
        us = {}
        for variant in ('anchored', 'stagewise'):
            ctrl = treated_boundary(prob, mesh, basis, ARK3, variant=variant)
            integ = ImexIntegrator(prob, mesh, basis, tableau=ARK3,
                                   controller=ctrl)
            us[variant], _ = integ.integrate(u0, 0.0, 0.4, tau)
        diffs.append(float(np.max(np.abs(us['anchored'] - us['stagewise']))))
    orders = [np.log2(diffs[i - 1] / diffs[i]) for i in (1, 2)]
    assert min(orders) >= 3.0, (diffs, orders)


def test_tangential_invariance_reduces_to_endpoint_values():
    # data constant along a face: the face treatment must reproduce the 1D
    # endpoint treatment at every point of that face
    C, D, q = 0.1, 1.0, 1.0

    def g(x, t):
        return np.exp(-t) * np.sin(x + C * t)

    def g_t(x, t):
        return np.exp(-t) * (C * np.cos(x + C * t) - np.sin(x + C * t))

    pb2 = ProblemSpec(
        'strip', ((-1.0, 1.0), (-1.0, 1.0)), D, 1.0, 0.2, 2,
        fluxes=[-C, -C], p=q,
        exact=lambda x, y, t: g(x, t) + 0.0 * y,
        omega_t=lambda x, y, t: g_t(x, t) + 0.0 * y)
    pb1 = ProblemSpec('line', (-1.0, 1.0), D, 1.0, 0.2, 2, fluxes=[-C], p=q,
                      exact=g, omega_t=g_t)
    basis = build_basis(2)
    mesh2 = build_mesh(pb2.bounds, (6, 5))
    mesh1 = build_mesh(pb1.bounds, 6)
    u2 = interpolate(lambda x, y: pb2.exact(x, y, 0.3), mesh2, basis)
    u1 = interpolate(lambda x: g(x, 0.3), mesh1, basis)
    ctrl2 = treated_boundary(pb2, mesh2, basis, ARK3, variant='alg2')
    ctrl1 = treated_boundary(pb1, mesh1, basis, ARK3)
    tau = 0.05
    ctrl2.begin_step(u2, 0.3, tau)
    ctrl1.begin_step(u1, 0.3, tau)
    for i in range(ARK3.stages):
        (west2, east2), _ = ctrl2.stage_data(i)
        (west1, east1), = ctrl1.stage_data(i)
        assert np.max(np.abs(west2 - west1)) < 1e-12
        assert np.max(np.abs(east2 - east1)) < 1e-12
        ctrl2.observe_stage(i, u2)
        ctrl1.observe_stage(i, u1)


# -- one recursion for floats and arrays ------------------------------------------

_TUPLE_SIZE = {3: 3, 4: 6}     # entries of a recovery's tuple per order


def _drive_inputs(prob, tab, order, variant, tau, inputs):
    """Stage values 1..s-1 of a 1D corrector fed one input vector.

    inputs holds, in order: omega at the step start, omega_t per stage,
    omega_tt (order 4), the step-start derivatives, then the derivatives
    observed after each interior stage.  Entries may be floats or arrays.
    """
    s = tab.stages
    size = _TUPLE_SIZE[order]
    it = iter(inputs)
    traces = {'omega': [next(it)] * s, 'omega_t': [next(it) for _ in range(s)]}
    if order == 4:
        traces['omega_tt'] = [next(it)]
    corr = StageCorrector(prob, tab, order, variant)
    corr.begin(tuple(next(it) for _ in range(size)), tau, traces)
    out = []
    for i in range(1, s):
        out.append(corr.stage_value(i))
        if i < s - 1:
            corr.observe(i, tuple(next(it) for _ in range(size)))
    return out


def _input_size(tab, order):
    return (1 + tab.stages + (order == 4)
            + (tab.stages - 1) * _TUPLE_SIZE[order])


@pytest.mark.parametrize("name,order", [("heat1d", 3), ("heat1d_o4", 4)])
@pytest.mark.parametrize("variant", ["stagewise", "anchored"])
def test_stage_recursion_is_linear_for_linear_problems(name, order, variant):
    # constant f' and p make every stage value a linear form of the step's
    # inputs: no constant term, no products of inputs
    prob = builtin_problem(name)
    tab = builtin_tableau(prob.tableau)
    rng = np.random.default_rng(order * 7 + len(variant))
    size = _input_size(tab, order)
    for tau in (0.037, 1.3e-4):
        zero = _drive_inputs(prob, tab, order, variant, tau, [0.0] * size)
        assert zero == [0.0] * (tab.stages - 1)
        for _ in range(10):
            v, w = rng.standard_normal((2, size))
            a, b = rng.standard_normal(2)
            mix = _drive_inputs(prob, tab, order, variant, tau,
                                (a * v + b * w).tolist())
            fv = _drive_inputs(prob, tab, order, variant, tau, v.tolist())
            fw = _drive_inputs(prob, tab, order, variant, tau, w.tolist())
            for m, x, y in zip(mix, fv, fw):
                want = a * x + b * y
                assert abs(m - want) <= 1e-12 * max(1.0, abs(x), abs(y))


@pytest.mark.parametrize("name", ["heat1d", "heat1d_o4"])
def test_float_and_array_inputs_give_identical_stage_values(name):
    # the recursion is plain + and *: an endpoint fed arrays of inputs must
    # reproduce, bitwise, the float results for each entry
    prob = builtin_problem(name)
    tab = builtin_tableau(prob.tableau)
    order = prob.degree + 1
    rng = np.random.default_rng(11)
    batch = rng.standard_normal((_input_size(tab, order), 5))
    for variant in ('stagewise', 'anchored'):
        arrays = _drive_inputs(prob, tab, order, variant, 0.02, list(batch))
        for k in range(batch.shape[1]):
            floats = _drive_inputs(prob, tab, order, variant, 0.02,
                                   batch[:, k].tolist())
            assert [a[k] for a in arrays] == floats, (variant, k)


# -- configuration errors ----------------------------------------------------------

def test_variant_aliases():
    prob = builtin_problem('heat1d')
    basis = build_basis(2)
    mesh = build_mesh(prob.bounds, 8)
    assert treated_boundary(prob, mesh, basis, ARK3,
                            variant='alg1').anchored
    assert not treated_boundary(prob, mesh, basis, ARK3,
                                variant='alg2').anchored
    with pytest.raises(ValueError, match="'alg3' is not implemented; alg2 "
                                         "is the per-stage variant"):
        treated_boundary(prob, mesh, basis, ARK3, variant='alg3')
    with pytest.raises(ValueError, match="unknown treatment variant"):
        treated_boundary(prob, mesh, basis, ARK3, variant='alg9')


def test_unsupported_configurations_raise():
    heat = builtin_problem('heat1d')
    heat2 = builtin_problem('heat2d')
    burg = builtin_problem('burgers1d')
    mesh1 = build_mesh(heat.bounds, 8)
    mesh2 = build_mesh(heat2.bounds, (6, 6))
    with pytest.raises(ValueError, match="k = 2 or 3"):
        treated_boundary(heat, mesh1, build_basis(1), ARK3)
    with pytest.raises(ValueError, match="stagewise variant only"):
        treated_boundary(heat2, mesh2, build_basis(2), ARK3, variant='alg1')
    with pytest.raises(ValueError, match="k = 2"):
        treated_boundary(heat2, mesh2, build_basis(3), ARK3)
    # fourth order needs a linear flux to close d/dt psi_x in space
    with pytest.raises(ValueError, match="every flux a number"):
        treated_boundary(burg, mesh1, build_basis(3), ARK3)
    # and a constant source factor
    nopq = ProblemSpec('nopq', (-1.0, 1.0), 1.0, 1.0, 0.25, 3, fluxes=[-1.0],
                       p=lambda x, t: np.cos(x),
                       p_grad=[lambda x, t: -np.sin(x)],
                       exact=lambda x, t: 0.0 * x,
                       omega_t=lambda x, t: 0.0 * x,
                       omega_tt=lambda x, t: 0.0 * x)
    with pytest.raises(ValueError, match="p a number"):
        treated_boundary(nopq, mesh1, build_basis(3), ARK3)
    nod = ProblemSpec('nod', (-1.0, 1.0), 1.0, 1.0, 0.25, 2, fluxes=[-1.0],
                      exact=lambda x, t: 0.0 * x)
    with pytest.raises(ValueError, match="omega and omega_t"):
        treated_boundary(nod, mesh1, build_basis(2), ARK3)
    nopx = ProblemSpec('nopx', (-1.0, 1.0), 1.0, 1.0, 0.25, 2,
                       fluxes=[-1.0], p=lambda x, t: np.cos(x),
                       exact=lambda x, t: 0.0 * x,
                       omega_t=lambda x, t: 0.0 * x)
    with pytest.raises(ValueError, match="p_grad"):
        treated_boundary(nopx, mesh1, build_basis(2), ARK3)
    # the treatment reads the source as p, so an h alone is refused
    noph = ProblemSpec('noph', (-1.0, 1.0), 1.0, 1.0, 0.25, 2,
                       h=lambda u, x, t: np.cos(x) * u,
                       exact=lambda x, t: 0.0 * x,
                       omega_t=lambda x, t: 0.0 * x)
    with pytest.raises(ValueError, match="source as p"):
        treated_boundary(noph, mesh1, build_basis(2), ARK3)
    # f' and f'' are needed on the axes that have a flux, and only there
    linear = (lambda u: -u, lambda u: -np.ones_like(u), lambda u: 0.0 * u)
    nofp = ProblemSpec('nofp', heat2.bounds, 1.0, 1.0, 0.2, 2,
                       fluxes=[linear, (None, None, None)],
                       exact=lambda x, y, t: 0.0 * x,
                       omega_t=lambda x, y, t: 0.0 * x)
    treated_boundary(nofp, mesh2, build_basis(2), ARK3)


@pytest.mark.parametrize("name", ['heat1d', 'burgers1d', 'heat1d_o4',
                                  'heat2d'])
def test_a_flux_without_its_second_derivative_is_refused(name):
    # a callable flux's f'' enters the stage recursion; a missing one used
    # to count as 0, and burgers1d lost order (L2 2.95 -> 2.33).  A triple
    # without f'' is refused even where f' carries a constant speed.
    prob = builtin_problem(name)
    mesh = build_mesh(prob.bounds, 6)
    basis = build_basis(prob.degree)
    treated_boundary(prob, mesh, basis, builtin_tableau(prob.tableau))
    fluxes = prob.fluxes[:-1] + (prob.fluxes[-1][:2] + (None,),)
    prob = ProblemSpec(name, prob.bounds, prob.d_coef, prob.T, prob.cfl,
                       prob.degree, tableau=prob.tableau, fluxes=fluxes,
                       p=prob.p, p_grad=prob.p_grad, exact=prob.exact,
                       omega_t=prob.omega_t, omega_tt=prob.omega_tt)
    with pytest.raises(ValueError, match="f'' on axis %d" % (prob.dim - 1)):
        treated_boundary(prob, mesh, basis, ARK3)
    # naive runs never read f''
    u0 = interpolate(prob.u0, mesh, basis)
    u, _ = ImexIntegrator(prob, mesh, basis).integrate(u0, 0.0, 0.02, 0.01)
    assert np.all(np.isfinite(u))


def test_stage_protocol_enforced():
    prob = builtin_problem('heat1d')
    corr = StageCorrector(prob, ARK3, 3, 'stagewise')
    with pytest.raises(RuntimeError, match="begin a step"):
        corr.stage_value(1)
    rec = (0.1, 0.2, 0.3)
    corr.begin(rec, 0.01, {'omega': [1.0] * 4, 'omega_t': [0.0] * 4})
    with pytest.raises(RuntimeError, match="in order"):
        corr.stage_value(2)
    corr.stage_value(1)
    with pytest.raises(RuntimeError, match="observed in order"):
        corr.observe(2, rec)


# -- stage-value tracing -------------------------------------------------------------

def test_trace_rows_1d():
    prob = builtin_problem('heat1d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, 8)
    ctrl = treated_boundary(prob, mesh, basis, ARK3)
    ctrl.trace = []
    integ = ImexIntegrator(prob, mesh, basis, tableau=ARK3, controller=ctrl)
    u0 = interpolate(lambda x: prob.exact(x, 0.0), mesh, basis)
    integ.integrate(u0, 0.0, 0.1, 0.05)
    rows = ctrl.trace
    assert len(rows) == 2 * ARK3.stages * 2      # steps x stages x sides
    t = 0.0
    for k in range(0, len(rows), 2):
        i, side, x, naive, treated = rows[k]
        assert side == 'west' and x == (mesh.a,)
        assert rows[k + 1][1] == 'east' and rows[k + 1][2] == (mesh.b,)
        ts = t + ARK3.c[i] * 0.05
        assert abs(naive - prob.omega(mesh.a, ts)) < 1e-14
        if i == 0:
            assert treated == naive
        else:
            assert treated != naive
        if i == ARK3.stages - 1:
            t += 0.05


def test_trace_rows_2d():
    prob = builtin_problem('heat2d')
    basis = build_basis(prob.degree)
    mesh = build_mesh(prob.bounds, (4, 3))
    ctrl = treated_boundary(prob, mesh, basis, builtin_tableau('ark3'))
    ctrl.trace = []
    integ = ImexIntegrator(prob, mesh, basis, controller=ctrl)
    u0 = interpolate(lambda x, y: prob.exact(x, y, 0.0), mesh, basis)
    integ.integrate(u0, 0.0, 0.05, 0.05)
    p = basis.p
    per_stage = 2 * (mesh.m * p) + 2 * (mesh.n * p)
    assert len(ctrl.trace) == ARK3.stages * per_stage
    for i, face, (xv, yv), naive, treated in ctrl.trace:
        assert face in ('west', 'east', 'south', 'north')
        assert np.isfinite(naive) and np.isfinite(treated)
