"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary.  Every tolerance is fixed here; nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

from polyflow.claw import ParamFlux, claw_solve
from polyflow.epidemic import (EpidemicParams, epidemic_cohort_reference,
                               run_epidemic)
from polyflow.errors import InadmissibleHorizon
from polyflow.harness import (rotation_exact, rotation_flow,
                              rotation_processes)
from polyflow.ibvp import InflowBoundary, ibvp_domain_bounds, ibvp_solve
from polyflow.measures import (AtomicMeasure, MeasureCoefficients, evolve,
                               flat_distance, measure_domain_bound,
                               weak_residual)
from polyflow.metric import (coupling_bounds, euler_polygonal,
                             refine_to_process)
from polyflow.ode import OdeField, ode_solve
from polyflow.pursuit import PredatorPreyParams, run_predator_prey
from polyflow.renewal import RenewalCoefficients, ivp_domain_bounds, \
    renewal_solve
from polyflow.scenarios import RefineSchedule
from polyflow.spaces import BvTimeSeries, GridFunction, l1_distance
from polyflow.suites import suite_bv


def report(criterion: str, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def linear_system():
    flow = rotation_flow(ball=4.0, horizon=1.0)
    pu, pw = rotation_processes(ball=4.0, horizon=1.0)
    return flow, coupling_bounds(pu.constants, pw.constants)


def test_criterion_1_polygonal_convergence(linear_system):
    started = time.perf_counter()
    flow, _ = linear_system
    x0 = (np.array([1.0]), np.array([0.0]))
    ref = rotation_exact(1.0)
    eps, errs = [], []
    for j in range(3, 11):
        e = 2.0 ** -j
        got = euler_polygonal(flow, 1.0, 0.0, x0, e)
        eps.append(e)
        errs.append(flow.space.distance(got, ref))
    slope = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
    runtime = time.perf_counter() - started
    ok = slope >= 0.9 and errs[-1] <= 1e-2 and runtime < 5.0
    report("criterion-1 polygonal-convergence", ok,
           f"order {slope:.3f} (>=0.9), final error {errs[-1]:.2e} (<=1e-2), "
           f"{runtime:.1f}s (<5s)")


def test_criterion_2_tangency_bound(linear_system):
    started = time.perf_counter()
    flow, bounds = linear_system
    x0 = (np.array([1.0]), np.array([0.0]))
    worst_ratio = 0.0
    for k in range(3, 9):
        tau = 2.0 ** -k
        limit = refine_to_process(flow, tau, 0.0, x0, tol=1e-2 * tau * tau,
                                  j0=0, j_max=14)
        one = euler_polygonal(flow, tau, 0.0, x0, tau)
        lhs = flow.space.distance(limit.point, one) / tau
        rhs = bounds.tangency_rhs(tau)
        worst_ratio = max(worst_ratio, lhs / rhs)
    runtime = time.perf_counter() - started
    ok = worst_ratio <= 2.0 and runtime < 10.0
    report("criterion-2 tangency-bound", ok,
           f"worst lhs/rhs {worst_ratio:.3e} (<=2), {runtime:.1f}s (<10s)")


def test_criterion_3_lipschitz_stability(linear_system):
    started = time.perf_counter()
    flow, bounds = linear_system
    rng = np.random.default_rng(0)
    tau = 0.5
    worst = 0.0
    cu, cw = bounds.constants.c_u, bounds.constants.c_w
    for i in range(20):
        x1 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        x2 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        d0 = flow.space.distance(x1, x2)
        if d0 < 1e-12:
            continue
        eps = tau / 2.0 ** (1 + i % 5)
        d1 = flow.space.distance(euler_polygonal(flow, tau, 0.0, x1, eps),
                                 euler_polygonal(flow, tau, 0.0, x2, eps))
        worst = max(worst, d1 / (d0 * math.exp((cu + cw) * tau)))
    runtime = time.perf_counter() - started
    ok = worst <= 1 + 1e-6 and runtime < 5.0
    report("criterion-3 lipschitz-stability", ok,
           f"worst ratio/bound {worst:.9f} (<=1+1e-6), {runtime:.1f}s (<5s)")


def test_criterion_4_semigroup_restarts():
    started = time.perf_counter()
    details = []

    # ODE: exponential growth
    field = OdeField(f=lambda t, u, w: u, lip=1.0, sup=8.0, radius=8.0)
    direct = ode_solve(field, 0.0, 1.0, np.array([1.0]), None, n_sub=128)
    fine = ode_solve(field, 0.0, 1.0, np.array([1.0]), None, n_sub=512)
    tol = max(float(np.abs(direct - fine)[0]), 1e-12)
    mid = ode_solve(field, 0.0, 0.5, np.array([1.0]), None, n_sub=64)
    rest = ode_solve(field, 0.5, 1.0, mid, None, n_sub=64)
    gap = float(np.abs(rest - direct)[0])
    details.append(("ode", gap, 5 * tol))

    # renewal: smooth transport with growth
    grid = GridFunction.uniform((-2.0, 3.0), 2000)
    bump = GridFunction.from_callable(
        lambda x: np.clip(1 - np.abs(x), 0, None) ** 2,
        grid.origin, grid.dx, grid.values.shape)
    coef = RenewalCoefficients(
        velocity=lambda t, x, w: 0.5 + 0.2 * np.sin(x),
        growth=lambda t, x, w: 0.3 * np.cos(x) - 0.1,
        source=lambda t, x, w: np.zeros(np.shape(x)[0]),
        divergence=lambda t, x, w: 0.2 * np.cos(x),
        v_sup=0.7, v_lip=0.2, m_sup_tv=1.5)
    direct_r = renewal_solve(coef, bump, None, 0.0, 0.4, n_sub=16)
    fine_r = renewal_solve(coef, bump, None, 0.0, 0.4, n_sub=64)
    tol_r = max(l1_distance(direct_r, fine_r), 2 * grid.dx[0] * bump.tv())
    mid_r = renewal_solve(coef, bump, None, 0.0, 0.2, n_sub=8)
    rest_r = renewal_solve(coef, mid_r, None, 0.2, 0.4, n_sub=8)
    details.append(("renewal", l1_distance(rest_r, direct_r), 5 * tol_r))

    # boundary balance law: decay + inflow
    gridb = GridFunction.uniform((0.0, 2.0), 800)
    coef_b = RenewalCoefficients(
        velocity=lambda t, x, w: np.ones(np.shape(np.asarray(x))[0]),
        growth=lambda t, x, w: -np.ones(np.shape(np.asarray(x))[0]),
        source=lambda t, x, w: np.zeros(np.shape(np.asarray(x))[0]),
        divergence=lambda t, x, w: np.zeros(np.shape(np.asarray(x))[0]),
        v_sup=1.0, m_sup_tv=1.0)
    inflow_b = InflowBoundary(BvTimeSeries.constant(1.0), speed_min=1.0,
                              b_l1=1.0, b_sup_tv=1.0)
    direct_b = ibvp_solve(coef_b, inflow_b, gridb, None, 0.0, 1.0, n_sub=16)
    mid_b = ibvp_solve(coef_b, inflow_b, gridb, None, 0.0, 0.5, n_sub=8)
    rest_b = ibvp_solve(coef_b, inflow_b, mid_b, None, 0.5, 1.0, n_sub=8)
    details.append(("ibvp", l1_distance(rest_b, direct_b),
                    5 * 2 * gridb.dx[0]))

    # conservation law: shock
    burgers = ParamFlux(f=lambda u, w: 0.5 * u * u, lip=1.0,
                        critical_points=(0.0,))
    xs = grid.axis_centers(0)
    shock0 = grid.with_values((xs < 0.0).astype(float))
    direct_c = claw_solve(burgers, shock0, None, 0.0, 1.0)
    mid_c = claw_solve(burgers, shock0, None, 0.0, 0.5)
    rest_c = claw_solve(burgers, mid_c, None, 0.5, 1.0)
    details.append(("claw", l1_distance(rest_c, direct_c),
                    5 * 2 * grid.dx[0]))

    # measure balance law
    coef_m = MeasureCoefficients(
        drift=lambda t, mu, w, x: 0.4 + 0.1 * np.sin(x),
        decay=lambda t, mu, w, x: np.full(np.shape(x), 0.3),
        offspring=lambda t, mu, w, y: AtomicMeasure(np.array([0.3]),
                                                    np.array([0.2])),
        drift_bound=0.5, decay_bound=0.3, birth_bound=0.2)
    mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]), np.array([0.4, 0.3, 0.3]))
    dt = 1.0 / 32
    _, direct_m = evolve(coef_m, mu0, None, 0.0, 1.0, dt)
    _, first_m = evolve(coef_m, mu0, None, 0.0, 0.5, dt)
    _, second_m = evolve(coef_m, first_m[-1], None, 0.5, 1.0, dt)
    details.append(("measures",
                    flat_distance(direct_m[-1], second_m[-1]), 5 * dt))

    runtime = time.perf_counter() - started
    ok = all(gap <= tol for _, gap, tol in details) and runtime < 30.0
    msg = ", ".join(f"{name} {gap:.2e}<={tol:.2e}"
                    for name, gap, tol in details)
    report("criterion-4 semigroup-restarts", ok,
           f"{msg}, {runtime:.1f}s (<30s)")


def test_criterion_5_conservation_law():
    started = time.perf_counter()
    burgers = ParamFlux(f=lambda u, w: 0.5 * u * u, lip=1.0,
                        critical_points=(0.0,))
    dx = 1.0 / 400
    grid = GridFunction.uniform((-2.0, 3.0), int(5.0 / dx))
    xs = grid.axis_centers(0)

    shock = claw_solve(burgers, grid.with_values((xs < 0).astype(float)),
                       None, 0.0, 1.0)
    shock_err = l1_distance(shock, grid.with_values((xs < 0.5).astype(float)))

    rare = claw_solve(burgers, grid.with_values((xs >= 0).astype(float)),
                      None, 0.0, 1.0)
    rare_err = l1_distance(rare, grid.with_values(np.clip(xs, 0.0, 1.0)))

    rng = np.random.default_rng(0)
    worst_contract, worst_tvd = -math.inf, -math.inf
    cons_drift = 0.0

    def random_steps():
        vals = np.zeros(xs.shape[0])
        edges = np.sort(rng.uniform(-0.8, 1.8, 12))
        for i in range(6):
            vals += rng.uniform(-1, 1) * ((xs >= edges[2 * i])
                                          & (xs < edges[2 * i + 1]))
        return grid.with_values(vals)

    for _ in range(50):
        u1, u2 = random_steps(), random_steps()
        v1 = claw_solve(burgers, u1, None, 0.0, 0.25)
        v2 = claw_solve(burgers, u2, None, 0.0, 0.25)
        worst_contract = max(worst_contract,
                             l1_distance(v1, v2) - l1_distance(u1, u2))
        worst_tvd = max(worst_tvd, v1.tv() - u1.tv())
        cons_drift = max(cons_drift, abs(v1.mass() - u1.mass()))

    runtime = time.perf_counter() - started
    ok = (shock_err <= 2 * dx
          and rare_err <= 5 * dx * abs(math.log(dx))
          and worst_contract <= 1e-10 and worst_tvd <= 1e-10
          and cons_drift <= 1e-12 and runtime < 20.0)
    report("criterion-5 conservation-law", ok,
           f"shock {shock_err:.2e}<= {2*dx:.2e}, rare {rare_err:.2e}<="
           f"{5*dx*abs(math.log(dx)):.2e}, contraction {worst_contract:.1e}, "
           f"tvd {worst_tvd:.1e}, mass {cons_drift:.1e}, "
           f"{runtime:.1f}s (<20s)")


def test_criterion_6_transport_solvers():
    started = time.perf_counter()
    dx = 1.0 / 400
    grid = GridFunction.uniform((-2.0, 3.0), int(5.0 / dx))
    ind = GridFunction.from_callable(
        lambda x: ((x >= 0) & (x < 1)).astype(float),
        grid.origin, grid.dx, grid.values.shape)
    zeros = lambda t, x, w: np.zeros(np.shape(np.asarray(x))[0])
    ones = lambda t, x, w: np.ones(np.shape(np.asarray(x))[0])

    move = RenewalCoefficients(velocity=ones, growth=zeros, source=zeros,
                               divergence=zeros, v_sup=1.0)
    got = renewal_solve(move, ind, None, 0.0, 0.5, n_sub=10)
    ref = GridFunction.from_callable(
        lambda x: ((x >= 0.5) & (x < 1.5)).astype(float),
        grid.origin, grid.dx, grid.values.shape)
    translation_err = l1_distance(got, ref)

    fade = RenewalCoefficients(velocity=zeros,
                               growth=lambda t, x, w: -ones(t, x, w),
                               source=zeros, divergence=zeros, m_sup_tv=1.0)
    got = renewal_solve(fade, ind, None, 0.0, 1.0, n_sub=10)
    decay_err = l1_distance(got, ind.with_values(ind.values * math.exp(-1)))

    gridb = GridFunction.uniform((0.0, 2.0), 800)
    fill = RenewalCoefficients(velocity=ones, growth=zeros, source=zeros,
                               divergence=zeros, v_sup=1.0)
    unit = InflowBoundary(BvTimeSeries.constant(1.0), speed_min=1.0,
                          b_l1=1.0, b_sup_tv=1.0)
    got = ibvp_solve(fill, unit, gridb, None, 0.0, 1.0, n_sub=10)
    xsb = gridb.axis_centers(0)
    fill_err = l1_distance(got, gridb.with_values((xsb < 1.0).astype(float)))

    # envelope margins along a smooth renewal trajectory
    coef = RenewalCoefficients(
        velocity=lambda t, x, w: 0.5 + 0.2 * np.sin(x),
        growth=lambda t, x, w: 0.3 * np.cos(x) - 0.1,
        source=zeros, divergence=lambda t, x, w: 0.2 * np.cos(x),
        v_sup=0.7, v_lip=0.2, v_div_lip=0.7, m_sup_tv=1.5)
    bump = GridFunction.from_callable(
        lambda x: np.clip(1 - np.abs(x), 0, None) ** 2,
        grid.origin, grid.dx, grid.values.shape)
    horizon = 0.4
    radius = 2.0
    for _ in range(60):
        try:
            a = ivp_domain_bounds(0.0, radius, horizon, coef)
            if bump.l1() <= a[0] and bump.linf() <= a[1] and bump.tv() <= a[2]:
                break
        except InadmissibleHorizon:
            pass
        radius *= 2.0
    else:
        pytest.fail("no admissible radius within 60 doublings")
    worst_margin = math.inf
    for t in (0.1, 0.2, 0.3, 0.4):
        u_t = renewal_solve(coef, bump, None, 0.0, t, n_sub=10)
        a1, ai, atv = ivp_domain_bounds(t, radius, horizon, coef)
        worst_margin = min(worst_margin, a1 - u_t.l1(), ai - u_t.linf(),
                           atv - u_t.tv())

    # boundary-problem envelope along the decay-fill trajectory
    decay_b = RenewalCoefficients(
        velocity=ones, growth=lambda t, x, w: -ones(t, x, w),
        source=zeros, divergence=zeros, v_sup=1.0, m_sup_tv=1.0)
    horizon_b, radius_b = 0.5, 8.0
    worst_margin_b = math.inf
    for t in (0.125, 0.25, 0.375, 0.5):
        u_t = ibvp_solve(decay_b, unit, gridb, None, 0.0, t, n_sub=10)
        a1, ai, atv = ibvp_domain_bounds(t, radius_b, horizon_b, decay_b,
                                         unit)
        gap = abs(1.0 - float(u_t.values[0]))
        worst_margin_b = min(worst_margin_b, a1 - u_t.l1(), ai - u_t.linf(),
                             atv - (u_t.tv() + gap))

    runtime = time.perf_counter() - started
    slack = 10 * dx * bump.tv()
    slack_b = 10 * gridb.dx[0] * 1.0
    ok = (translation_err <= 2 * dx and decay_err <= 1e-6
          and fill_err <= 2 * gridb.dx[0]
          and worst_margin >= -slack and worst_margin_b >= -slack_b
          and runtime < 30.0)
    report("criterion-6 transport-solvers", ok,
           f"translate {translation_err:.2e}<={2*dx:.2e}, decay "
           f"{decay_err:.1e}<=1e-6, fill {fill_err:.2e}<={2*gridb.dx[0]:.2e}, "
           f"envelope margins {worst_margin:.2e}/{worst_margin_b:.2e}"
           f">=-{slack:.1e}/-{slack_b:.1e}, {runtime:.1f}s (<30s)")


def _epidemic_params(cells=400, horizon=0.5, macro=None, **over):
    lag = 1.0
    grid = GridFunction.uniform((0.0, lag), cells)
    xs = grid.axis_centers(0)
    base = dict(
        infection_rate=1.5, recovery_rate=0.3, mortality_rate=0.1,
        vaccination_rate=BvTimeSeries(np.array([0.0, 0.25]),
                                      np.array([0.3, 0.15])),
        immunization_lag=lag,
        vaccinated_infectivity=grid.with_values(0.8 * (1 - xs / lag)),
        s0=0.7, i0=0.2, r0=0.0,
        v0=grid.with_values(0.2 * np.exp(-3 * xs)),
        admissible_radius=1.0, horizon=horizon,
        macro_step=macro if macro is not None else 8 * lag / cells)
    base.update(over)
    return EpidemicParams(**base)


def test_criterion_7_epidemic():
    started = time.perf_counter()
    # (a) no vaccination, no mortality: population conserved
    grid100 = GridFunction.uniform((0.0, 1.0), 100)
    sir = _epidemic_params(
        cells=100, horizon=1.0, macro=0.01, mortality_rate=0.0,
        vaccination_rate=BvTimeSeries.constant(0.0),
        vaccinated_infectivity=grid100.with_values(np.full(100, 0.5)),
        v0=grid100)
    run_a = run_epidemic(sir, RefineSchedule(0, 6, 1e-9))
    pop = run_a.column("population")
    drift = abs(pop[-1] - pop[0]) / 1.0

    # (b) no susceptible infections: plain exponential decay of I
    grid400 = GridFunction.uniform((0.0, 1.0), 400)
    decay = _epidemic_params(
        cells=400, horizon=1.0, macro=0.02, infection_rate=0.0,
        vaccinated_infectivity=grid400.with_values(np.zeros(400)),
        v0=grid400.with_values(0.2 * np.exp(-3 * grid400.axis_centers(0))))
    run_b = run_epidemic(decay, RefineSchedule(0, 6, 1e-9))
    i_end = run_b.column("I")[-1]
    decay_err = abs(i_end - 0.2 * math.exp(-0.4))

    # (c) full coupling: cohort profile against the characteristic formula
    full = _epidemic_params(cells=400, horizon=0.5, macro=0.02)
    traj = run_epidemic(full, RefineSchedule(0, 3, 1e-8))
    ref = epidemic_cohort_reference(full, traj.times, traj.column("I"), 0.5)
    trace_err = l1_distance(traj.states[-1][1], ref)

    runtime = time.perf_counter() - started
    ok = (drift <= 1e-6 and decay_err <= 1e-6 and trace_err <= 1e-3
          and runtime < 30.0)
    report("criterion-7 epidemic", ok,
           f"population drift {drift:.2e}<=1e-6, decay {decay_err:.2e}<=1e-6, "
           f"cohort trace {trace_err:.2e}<=1e-3, {runtime:.1f}s (<30s)")


def test_criterion_8_predator_prey():
    started = time.perf_counter()

    def params(feeding, predator, horizon, macro):
        return PredatorPreyParams(
            dim=2, alpha=1.2, escape_radius=0.8, search_radius=0.6,
            feeding_radius=0.4, feeding_rate=feeding,
            box=((-1.0, 1.0), (-1.0, 1.0)), cells=(100, 100),
            horizon=horizon, macro_step=macro,
            prey_center=(0.0, 0.0), prey_radius=0.7, prey_amp=1.0,
            predator_start=predator)

    mass_run = run_predator_prey(params(0.0, (0.15, 0.0), 0.3, 0.3),
                                 RefineSchedule(0, 0, math.inf))
    masses = mass_run.column("mass")
    mass_drift = abs(masses[-1] - masses[0]) / masses[0]

    still_run = run_predator_prey(params(0.5, (0.0, 0.0), 0.1, 0.1),
                                  RefineSchedule(0, 0, math.inf))
    displacement = float(np.linalg.norm(still_run.states[1][1]))

    runtime = time.perf_counter() - started
    ok = mass_drift <= 1e-3 and displacement <= 1e-8 and runtime < 60.0
    report("criterion-8 predator-prey", ok,
           f"mass drift {mass_drift:.2e}<=1e-3, stationarity "
           f"{displacement:.1e}<=1e-8, {runtime:.1f}s (<60s)")


def test_criterion_9_measure_law():
    started = time.perf_counter()
    coef = MeasureCoefficients(
        drift=lambda t, mu, w, x: 0.4 + 0.1 * np.sin(x)
        + 0.05 * mu.total_mass() * np.ones(np.shape(x)),
        decay=lambda t, mu, w, x: 0.3 + 0.1 * np.cos(x),
        offspring=lambda t, mu, w, y: AtomicMeasure(np.array([0.3]),
                                                    np.array([0.2])),
        drift_bound=0.6, decay_bound=0.4, birth_bound=0.2)
    mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]), np.array([0.4, 0.3, 0.3]))

    def cutoff(x):
        y = np.asarray(x, dtype=float) / 6.0
        return np.where(np.abs(y) < 1.0, (1.0 - y * y) ** 2, 0.0)

    def cutoff_slope(x):
        y = np.asarray(x, dtype=float) / 6.0
        return np.where(np.abs(y) < 1.0,
                        2.0 * (1.0 - y * y) * (-2.0 * y / 6.0), 0.0)

    res = []
    for steps in (8, 16, 32, 64):
        r = weak_residual(coef, mu0, None, 0.0, 1.0, 1.0 / steps,
                          phi=lambda t, x: (1 + 0.5 * t) * cutoff(x),
                          phi_t=lambda t, x: 0.5 * cutoff(x),
                          phi_x=lambda t, x: (1 + 0.5 * t) * cutoff_slope(x))
        res.append(abs(r))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(3)]
    order = float(np.median(orders))

    total = coef.drift_bound + coef.decay_bound + coef.birth_bound
    radius = mu0.total_mass() * math.exp(3 * total)
    dt = 1.0 / 64
    worst = -math.inf
    times, states = evolve(coef, mu0, None, 0.0, 1.0, dt)
    for t, st in zip(times, states):
        bound = measure_domain_bound(t, 1.0, radius, coef.drift_bound,
                                     coef.decay_bound, coef.birth_bound)
        worst = max(worst, st.total_mass() - bound)

    flat_errs = [
        abs(flat_distance(mu0, mu0) - 0.0),
        abs(flat_distance(AtomicMeasure(np.array([1.0]), np.array([0.8])),
                          AtomicMeasure(np.array([1.0]), np.array([0.3])))
            - 0.5),
        abs(flat_distance(AtomicMeasure(np.array([0.0]), np.array([1.0])),
                          AtomicMeasure(np.array([0.7]), np.array([1.0])))
            - 0.7),
        abs(flat_distance(AtomicMeasure(np.array([0.0]), np.array([1.0])),
                          AtomicMeasure(np.array([5.0]), np.array([1.0])))
            - 2.0),
    ]

    runtime = time.perf_counter() - started
    ok = (order >= 0.9 and worst <= 10 * dt and max(flat_errs) <= 1e-6
          and runtime < 10.0)
    report("criterion-9 measure-law", ok,
           f"weak order {order:.3f}>=0.9, mass margin {worst:.2e}<={10*dt:.2e}"
           f", flat metric {max(flat_errs):.1e}<=1e-6, {runtime:.1f}s (<10s)")


def test_criterion_10_bv_inequalities():
    started = time.perf_counter()
    checks = suite_bv(seed=0, n_pairs=100)
    worst = max(c.lhs for c in checks)
    runtime = time.perf_counter() - started
    ok = worst <= 1e-12 and runtime < 5.0
    report("criterion-10 bv-inequalities", ok,
           f"worst violation {worst:.2e}<=1e-12 over 100 pairs, "
           f"{runtime:.1f}s (<5s)")
