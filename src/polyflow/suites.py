"""The estimate-verification suites that ``polyflow verify`` runs.

Each suite checks one solver's quantitative guarantees against closed forms
and records, per inequality, the measured left-hand side, the bound it must
respect, and the margin.  Reports are byte-identical across runs with the
same configuration and seed (timings are kept out of the persisted report
for that reason).  The discrete BV inequality checks that the ``bv`` suite
runs live here too.  Only ``verify`` imports this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import claw as _claw
from . import measures as _measures
from .harness import (SCHEMA_VERSION, _median, rotation_flow,
                      rotation_processes)
from .ibvp import (InflowBoundary, _envelope_norms, ibvp_domain_bounds,
                   ibvp_solve)
from .measures import AtomicMeasure, flat_distance
from .metric import (LocalFlow, RefineSchedule, RefinementResult,
                     coupling_bounds, euler_polygonal, refine_to_process)
from .ode import OdeField, ode_solve
from .renewal import (RenewalCoefficients, characteristic,
                      ivp_domain_bounds, renewal_solve)
from .scenarios import _fit_radius
from .spaces import (BvTimeSeries, GridFunction, _require_same_grid,
                     l1_distance, total_variation)


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: measured value, bound, outcome."""

    name: str
    anchor: str
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def check(name: str, anchor: str, lhs: float, rhs: float,
          tol: float = 0.0) -> CheckResult:
    return CheckResult(name=name, anchor=anchor, lhs=float(lhs),
                       rhs=float(rhs), passed=bool(lhs <= rhs + tol))


@dataclass
class VerificationReport:
    suites: list[str]
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        ordered = sorted(self.checks, key=lambda c: c.name)
        return {
            "schema": SCHEMA_VERSION,
            "suites": list(self.suites),
            "seed": self.seed,
            "checks": [
                {"name": c.name, "anchor": c.anchor, "lhs": repr(c.lhs),
                 "rhs": repr(c.rhs), "margin": repr(c.margin),
                 "passed": c.passed}
                for c in ordered
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# Discrete BV inequality checks
# --------------------------------------------------------------------------

def shifted_l1_difference(u: GridFunction, delta: GridFunction) -> float:
    """Exact integral of |u(x + delta(x)) - u(x)| over the grid (1D).

    ``delta`` is a nonnegative per-cell shift field on the same grid.  The
    integrand is piecewise constant, so each cell's contribution is the exact
    overlap of the shifted cell against the grid (constant extension beyond
    the edges).
    """
    _require_same_grid(u, delta)
    if u.dim != 1:
        raise ValueError("shift difference implemented for 1D grids")
    if np.any(delta.values < 0):
        raise ValueError("shift field must be nonnegative")
    vals = u.values
    n = vals.shape[0]
    if n == 0:
        return 0.0
    dx = u.dx[0]
    org = u.origin[0]
    # overlap of each shifted cell [a, b) against the grid cells j0..j1,
    # with constant extension; cell i adds its terms in the order j0, j0+1..
    a = org + np.arange(n) * dx + delta.values
    b = a + dx
    j0 = np.floor((a - org) / dx).astype(np.int64)
    j1 = np.floor((b - org) / dx - 1e-15).astype(np.int64)
    acc = np.zeros(n)
    for k in range(int(np.max(j1 - j0)) + 1):
        j = j0 + k
        lo = np.maximum(a, org + j * dx)
        hi = np.minimum(b, org + (j + 1) * dx)
        jj = np.minimum(np.maximum(j, 0), n - 1)
        term = (hi - lo) * np.abs(vals[jj] - vals)
        acc += np.where((j <= j1) & (hi > lo), term, 0.0)
    # cumsum adds the cells left to right; np.sum is pairwise (other bits)
    return float(np.cumsum(acc)[-1])


def bv_estimate_checks(u: GridFunction, w: GridFunction,
                       delta: GridFunction) -> list[CheckResult]:
    """Evaluate the elementary BV inequalities on discrete representatives.

    Checks, with both sides computed on the grid data:
      * product rule      TV(u w)   <= TV(u) ||w||_inf + ||u||_inf TV(w)
      * composition       TV(|u|)   <= TV(u)
      * time integral     TV(u + w) <= TV(u) + TV(w)
      * shift bound       int |u(x + d(x)) - u(x)| dx <= TV(u) ||d||_inf

    All four hold exactly on piecewise-constant data, so each check passes
    with a margin of at least -1e-12.
    """
    _require_same_grid(u, w)
    _require_same_grid(u, delta)
    if np.any(delta.values < 0):
        raise ValueError("shift field must be nonnegative")
    tv_u, tv_w = total_variation(u), total_variation(w)
    prod = u.with_values(u.values * w.values)
    comp = u.with_values(np.abs(u.values))
    summ = u.with_values(u.values + w.values)
    sides = [("bv/tv-product-rule", total_variation(prod),
              tv_u * w.linf() + u.linf() * tv_w),
             ("bv/tv-composition", total_variation(comp), tv_u),
             ("bv/tv-time-integral", total_variation(summ), tv_u + tv_w)]
    if u.dim == 1:
        sides.append(("bv/l1-shift-bound", shifted_l1_difference(u, delta),
                      tv_u * delta.linf()))
    return [check(name, "elementary-tv-bounds", lhs, rhs, 1e-12)
            for name, lhs, rhs in sides]


# --------------------------------------------------------------------------
# Verification suites
# --------------------------------------------------------------------------

def suite_metric(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    flow = rotation_flow(ball=4.0, horizon=1.0)
    pu, pw = rotation_processes(ball=4.0, horizon=1.0)
    bounds = coupling_bounds(pu.constants, pw.constants)

    x0 = (np.array([1.0]), np.array([0.0]))
    same = euler_polygonal(flow, 0.0, 0.0, x0, 0.25)
    out.append(check("metric/identity", "flow-identity",
                     flow.distance(same, x0), 0.0))

    a = euler_polygonal(flow, 0.5, 0.0, x0, 0.125)
    b = euler_polygonal(flow, 0.25, 0.5, a, 0.125)
    c = euler_polygonal(flow, 0.75, 0.0, x0, 0.125)
    out.append(check("metric/semigroup-bitexact", "composition-order",
                     flow.distance(b, c), 0.0))

    worst = 0.0
    tau, eps = 0.5, 0.5 / 16
    for _ in range(20):
        x1 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        x2 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        d0 = flow.distance(x1, x2)
        if d0 < 1e-12:
            continue
        d1 = flow.distance(euler_polygonal(flow, tau, 0.0, x1, eps),
                           euler_polygonal(flow, tau, 0.0, x2, eps))
        worst = max(worst, d1 / d0)
    out.append(check("metric/stability", "exp-data-bound", worst,
                     bounds.stability_factor(tau) * (1 + 1e-6)))

    for k, limit, one in _tangency_ladders(flow, x0):
        tq = 2.0 ** (-k)
        lhs = flow.distance(limit.point, one) / tq
        out.append(check(f"metric/tangency-tau-2^-{k}", "first-order-gap",
                         lhs, 2.0 * bounds.tangency_rhs(tq)))
    return out


def _tangency_ladders(flow: LocalFlow, x0
                      ) -> list[tuple[int, RefinementResult, Any]]:
    """``(k, limit, one step)`` from ``x0`` at ``t0 = 0`` over ``tau =
    2^-k`` for ``k = 3 ... 8``, all through one memo of the flow's steps.

    A level-j polygonal of ``tau = 2^-k`` is the first ``2^j`` steps of the
    same-step polygonal of ``tau = 2^-(k-1)``, and a step is a function of
    its length, start time and state, so each distinct step runs once.  The
    memo keys a state by its identity and keeps it alive while the ladders
    run, so no key outlives its state; the results are the unshared
    ladders' bit for bit.
    """
    memo: dict = {}

    def evaluate(tau, t0, state):
        key = (tau, t0, id(state))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (state, flow.evaluate(tau, t0, state))
        return hit[1]

    shared = LocalFlow(evaluate=evaluate, delta=flow.delta,
                       distance=flow.distance)
    out = []
    for k in range(3, 9):
        tq = 2.0 ** (-k)
        # resolve the limit to ~1% of the expected first-order gap
        limit = refine_to_process(shared, tq, 0.0, x0,
                                  RefineSchedule(0, 14, 1e-2 * tq * tq))
        out.append((k, limit, euler_polygonal(shared, tq, 0.0, x0, tq)))
    return out


def suite_ode(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    lin = OdeField(f=lambda t, u, w: u, lip=1.0, sup=8.0, radius=8.0)

    val = ode_solve(lin, 0.0, 1.0, np.array([1.0]), None, n_sub=100)
    out.append(check("ode/rk4-exponential", "closed-form-exp",
                     abs(float(val[0]) - math.e), 1e-8))

    worst = 0.0
    for _ in range(10):
        u1 = rng.uniform(-1, 1, 2)
        u2 = rng.uniform(-1, 1, 2)
        d0 = float(np.linalg.norm(u1 - u2))
        if d0 < 1e-12:
            continue
        lin2 = OdeField(f=lambda t, u, w: u, lip=1.0, sup=16.0, radius=16.0)
        v1 = ode_solve(lin2, 0.0, 1.0, u1, None, n_sub=64)
        v2 = ode_solve(lin2, 0.0, 1.0, u2, None, n_sub=64)
        worst = max(worst, float(np.linalg.norm(v1 - v2)) / d0)
    out.append(check("ode/lipschitz-data", "exp-data-bound", worst,
                     math.exp(1.0) * (1 + 1e-6)))

    drift = OdeField(f=lambda t, u, w: np.full(1, float(w)),
                     lip=1.0, sup=4.0, radius=8.0)
    horizon = 1.0
    w1, w2 = 0.5, -0.25
    v1 = ode_solve(drift, 0.0, 1.0, np.zeros(1), w1, n_sub=8)
    v2 = ode_solve(drift, 0.0, 1.0, np.zeros(1), w2, n_sub=8)
    cw = drift.lip * math.exp(drift.lip * horizon)
    out.append(check("ode/lipschitz-param", "param-bound",
                     float(np.abs(v1 - v2)[0]),
                     cw * 1.0 * abs(w1 - w2) * (1 + 1e-6)))

    errs = []
    for n in (8, 16, 32, 64):
        v = ode_solve(lin, 0.0, 1.0, np.array([1.0]), None, n_sub=n)
        errs.append(abs(float(v[0]) - math.e))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    out.append(check("ode/rk4-order", "order-at-least-3.9",
                     3.9, min(orders)))
    return out


def _smooth_renewal() -> RenewalCoefficients:
    return RenewalCoefficients(
        velocity=lambda t, x, w: 0.5 + 0.2 * np.sin(x),
        growth=lambda t, x, w: 0.3 * np.cos(x) - 0.1,
        divergence=lambda t, x, w: 0.2 * np.cos(x),
        v_sup=0.7, v_lip=0.2, v_div_lip=0.7,
        m_sup_tv=1.5, m_param_lip=0.0, q_sup_tv=0.0, q_l1=0.0,
        q_param_lip=0.0)


def suite_renewal(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    dx = 1.0 / 400
    grid = GridFunction.uniform((-2.0, 3.0), int(5.0 / dx))
    ind = GridFunction.from_callable(
        lambda x: ((x >= 0) & (x < 1)).astype(float),
        grid.origin, grid.dx, grid.values.shape)

    zeros = lambda t, x, w: np.zeros(np.shape(x)[0])
    move = RenewalCoefficients(
        velocity=lambda t, x, w: np.ones(np.shape(x)[0]),
        growth=zeros, divergence=zeros, v_sup=1.0)
    got = renewal_solve(move, ind, None, 0.0, 0.5, n_sub=10)
    ref = GridFunction.from_callable(
        lambda x: ((x >= 0.5) & (x < 1.5)).astype(float),
        grid.origin, grid.dx, grid.values.shape)
    out.append(check("renewal/translation", "exact-shift",
                     l1_distance(got, ref), 2 * dx))

    fade = RenewalCoefficients(
        velocity=zeros, growth=lambda t, x, w: -np.ones(np.shape(x)[0]),
        divergence=zeros, m_sup_tv=1.0)
    got = renewal_solve(fade, ind, None, 0.0, 1.0, n_sub=10)
    ref = ind.with_values(ind.values * math.exp(-1.0))
    out.append(check("renewal/decay", "exact-exponential",
                     l1_distance(got, ref), 1e-6))

    feed = RenewalCoefficients(
        velocity=zeros, growth=zeros,
        source=lambda t, x, w: ((x >= 0) & (x < 1)).astype(float),
        divergence=zeros, q_sup_tv=2.0, q_l1=1.0)
    got = renewal_solve(feed, ind, None, 0.0, 0.25, n_sub=10)
    ref = ind.with_values(ind.values * 1.25)
    out.append(check("renewal/source", "exact-time-integral",
                     l1_distance(got, ref), 1e-3))

    coef = _smooth_renewal()
    bump = GridFunction.from_callable(
        lambda x: np.clip(1 - np.abs(x), 0, None) ** 2,
        grid.origin, grid.dx, grid.values.shape)
    horizon = 0.4
    radius = _fit_radius(
        lambda r: ivp_domain_bounds(0.0, r, horizon, coef),
        (bump.l1(), bump.linf(), bump.tv()))
    worst = -math.inf
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = horizon * frac
        u_t = renewal_solve(coef, bump, None, 0.0, t, n_sub=12)
        a1, ai, atv = ivp_domain_bounds(t, radius, horizon, coef)
        worst = max(worst, u_t.l1() - a1, u_t.linf() - ai, u_t.tv() - atv)
    out.append(check("renewal/domain-envelope", "invariant-envelope",
                     worst, 10 * dx * bump.tv()))

    u1 = bump
    u2 = bump.with_values(bump.values
                          * (1 + 0.3 * rng.standard_normal(bump.values.shape)))
    v1 = renewal_solve(coef, u1, None, 0.0, 0.3, n_sub=12)
    v2 = renewal_solve(coef, u2, None, 0.0, 0.3, n_sub=12)
    out.append(check("renewal/contraction", "exp-data-bound",
                     l1_distance(v1, v2),
                     math.exp(coef.m_sup_tv * 0.3) * l1_distance(u1, u2)
                     * (1 + 1e-3)))

    foot = characteristic(coef.velocity, 0.3, grid.centers(), 0.0, None,
                          n_sub=24)
    shifted = bump.lookup(foot, outside="zero")
    lhs = float(np.sum(np.abs(shifted - bump.values)) * dx)
    rhs = (coef.v_sup / coef.v_lip * (math.exp(coef.v_lip * 0.3) - 1)
           * bump.tv())
    out.append(check("renewal/transport-shift", "transport-l1-shift",
                     lhs, rhs + 10 * dx * bump.tv()))
    return out


def _varying_ibvp() -> RenewalCoefficients:
    return RenewalCoefficients(
        velocity=lambda t, x, w: 0.8 + 0.1 * np.cos(x),
        growth=lambda t, x, w: 0.2 * np.sin(x),
        divergence=lambda t, x, w: -0.1 * np.sin(x),
        v_sup=0.9, v_lip=0.1, m_sup_tv=0.7)


def suite_ibvp(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    dx = 2.0 / 400
    grid = GridFunction.uniform((0.0, 2.0), 400)
    zero = grid
    unit = InflowBoundary(BvTimeSeries.constant(1.0), speed_min=1.0,
                          b_l1=1.0, b_sup_tv=1.0)
    zeros = lambda t, x, w: np.zeros(np.shape(x)[0])
    ones = lambda t, x, w: np.ones(np.shape(x)[0])

    fill = RenewalCoefficients(velocity=ones, growth=zeros, divergence=zeros,
                               v_sup=1.0)
    got = ibvp_solve(fill, unit, zero, None, 0.0, 1.0, n_sub=10)
    ref = GridFunction.from_callable(lambda x: (x < 1.0).astype(float),
                                     grid.origin, grid.dx, grid.values.shape)
    out.append(check("ibvp/inflow-fill", "unit-speed-fill",
                     l1_distance(got, ref), 2 * dx))

    decay = RenewalCoefficients(
        velocity=ones, growth=lambda t, x, w: -np.ones(np.shape(x)[0]),
        divergence=zeros, v_sup=1.0, m_sup_tv=1.0)
    got = ibvp_solve(decay, unit, zero, None, 0.0, 1.0, n_sub=10)
    ref = GridFunction.from_callable(
        lambda x: np.where(x < 1.0, np.exp(-x), 0.0),
        grid.origin, grid.dx, grid.values.shape)
    out.append(check("ibvp/boundary-decay", "closed-form-profile",
                     l1_distance(got, ref), 1e-3))

    out.append(check("ibvp/boundary-trace", "trace-matches-series",
                     abs(float(got.values[0])
                         - math.exp(-float(grid.axis_centers(0)[0]))),
                     2 * dx))

    # interior-branch equivalence with the free-space solver (bit-exact)
    bump = GridFunction.from_callable(
        lambda x: np.clip(1 - np.abs(x - 1.2) / 0.3, 0, None),
        grid.origin, grid.dx, grid.values.shape)
    varying = _varying_ibvp()
    still = InflowBoundary(BvTimeSeries.constant(0.0), speed_min=0.7)
    got = ibvp_solve(varying, still, bump, None, 0.0, 0.5, n_sub=8)
    free = renewal_solve(varying, bump, None, 0.0, 0.5, n_sub=8)
    sigma = float(characteristic(varying.velocity, 0.0, np.array([0.0]),
                                 0.5, None, n_sub=8)[0])
    mask = grid.axis_centers(0) >= sigma
    diff = float(np.max(np.abs(got.values[mask] - free.values[mask])))
    out.append(check("ibvp/interior-branch-bitexact", "shared-kernel",
                     diff, 0.0))

    # mass identity: no growth/source, inflow only
    got = ibvp_solve(fill, unit, bump, None, 0.0, 0.4, n_sub=10)
    influx = 1.0 * 0.4  # speed * integral of the unit boundary series
    lhs = abs(got.l1() - (bump.l1() + influx))
    out.append(check("ibvp/mass-identity", "boundary-influx",
                     lhs / max(got.l1(), 1.0), 1e-3))

    # envelope margins along a trajectory; the variation envelope needs
    # (m_sup_tv + v_lip) * horizon < 1
    horizon = 0.5
    radius = _fit_radius(
        lambda r: ibvp_domain_bounds(0.0, r, horizon, decay, unit),
        _envelope_norms(unit, 0.0, zero))
    worst = -math.inf
    for t in (0.125, 0.25, 0.375, 0.5):
        u_t = ibvp_solve(decay, unit, zero, None, 0.0, t, n_sub=10)
        bounds = ibvp_domain_bounds(t, radius, horizon, decay, unit)
        worst = max(worst, *(n - b for n, b in
                             zip(_envelope_norms(unit, t, u_t), bounds)))
    out.append(check("ibvp/domain-envelope", "invariant-envelope",
                     worst, 10 * dx * 1.0))
    return out


def suite_claw(seed: int, cells_per_unit: int = 400) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    burgers = _claw.ParamFlux(f=lambda u, w: 0.5 * u * u, lip=1.0,
                              critical_points=(0.0,))
    dx = 1.0 / cells_per_unit
    grid = GridFunction.uniform((-2.0, 3.0), int(5.0 / dx))
    xs = grid.axis_centers(0)

    shock0 = grid.with_values((xs < 0.0).astype(float))
    rare0 = grid.with_values((xs >= 0.0).astype(float))
    shock, rare = _claw.claw_solve_many(burgers, [shock0, rare0], None,
                                        0.0, 1.0)
    ref = grid.with_values((xs < 0.5).astype(float))
    out.append(check("claw/burgers-shock", "jump-speed-half",
                     l1_distance(shock, ref), 2 * dx))
    ref = grid.with_values(np.clip(xs / 1.0, 0.0, 1.0))
    out.append(check("claw/burgers-rarefaction", "fan-profile",
                     l1_distance(rare, ref), 5 * dx * abs(math.log(dx))))

    # unit Courant: the upwind update shifts exactly one cell per step
    adv = _claw.ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7)
    box = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
    got = _claw.claw_solve_many(adv, [box], None, 0.0, 1.0, cfl=1.0)[0]
    ref = grid.with_values(((xs >= 0.7) & (xs < 1.7)).astype(float))
    out.append(check("claw/linear-advection", "exact-translation",
                     l1_distance(got, ref), 2 * dx))

    # 50 pairs solved 4 pairs per call: blocks of 8 rows keep the span
    # buffers small (all 100 rows in one call add about 10 MB to peak RSS)
    worst_contract, worst_tvd = -math.inf, -math.inf
    for block in range(0, 50, 4):
        data = [_random_step_data(rng, grid)
                for _ in range(2 * min(4, 50 - block))]
        evolved = _claw.claw_solve_many(burgers, data, None, 0.0, 0.25)
        for u1, u2, v1, v2 in zip(data[::2], data[1::2], evolved[::2],
                                  evolved[1::2]):
            worst_contract = max(worst_contract,
                                 l1_distance(v1, v2) - l1_distance(u1, u2))
            worst_tvd = max(worst_tvd, v1.tv() - u1.tv())
    out.append(check("claw/l1-contraction", "monotone-contraction",
                     worst_contract, 1e-10))
    out.append(check("claw/tvd", "variation-diminishing", worst_tvd, 1e-10))

    u0 = _random_step_data(rng, grid)
    got = _claw.claw_solve_many(burgers, [u0], None, 0.0, 0.5)[0]
    out.append(check("claw/conservation", "telescoping-fluxes",
                     abs(got.mass() - u0.mass()), 1e-12))

    dt = 0.9 * dx / burgers.lip
    stepped = _claw.claw_solve_many(burgers, [u0], None, 0.0, dt)[0]
    worst_entropy = math.inf
    for k in rng.uniform(-1.0, 1.0, 5):
        res = _claw.entropy_residuals(burgers, u0.values, stepped.values,
                                      float(k), dt, dx, None)
        worst_entropy = min(worst_entropy, float(np.min(res)))
    out.append(check("claw/entropy-residual", "discrete-entropy",
                     -worst_entropy, 1e-10))

    c = _claw.claw_constants(2.0, 3.0)
    out.append(check("claw/constants", "contraction-modulus-zero",
                     abs(c.c_u) + abs(c.c_t - 6.0) + abs(c.c_w - 6.0), 0.0))
    return out


def _random_step_data(rng: np.random.Generator, grid: GridFunction,
                      n_steps: int = 6) -> GridFunction:
    # the steps [edges[2i], edges[2i+1]) are disjoint: a cell centre with
    # k edges at or below it lies in step (k - 1) / 2 when k is odd, and in
    # none when k is even
    edges = np.sort(rng.uniform(-0.8, 1.8, 2 * n_steps))
    level = np.zeros(2 * n_steps + 1)
    level[1::2] = rng.uniform(-1, 1, n_steps)
    return grid.with_values(
        level[np.searchsorted(edges, grid.axis_centers(0), side="right")])


def suite_measures(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    a = AtomicMeasure(np.array([0.5, 1.5]), np.array([0.3, 0.7]))
    out.append(check("measures/flat-identity", "metric-axiom",
                     flat_distance(a, a), 1e-12))
    b1 = AtomicMeasure(np.array([1.0]), np.array([0.8]))
    b2 = AtomicMeasure(np.array([1.0]), np.array([0.3]))
    out.append(check("measures/flat-mass-gap", "optimal-constant-dual",
                     abs(flat_distance(b1, b2) - 0.5), 1e-6))
    for h, expect in ((0.5, 0.5), (3.0, 2.0)):
        d1 = AtomicMeasure(np.array([0.0]), np.array([1.0]))
        d2 = AtomicMeasure(np.array([h]), np.array([1.0]))
        out.append(check(f"measures/flat-translate-{h}", "capped-transport",
                         abs(flat_distance(d1, d2) - expect), 1e-6))

    coef = _measures.MeasureCoefficients(
        drift=lambda t, mu, w, x: np.full(np.shape(x), 1.0),
        decay=lambda t, mu, w, x: np.zeros(np.shape(x)),
        offspring=lambda t, mu, w, y: AtomicMeasure.empty(),
        drift_bound=1.0)
    mu = AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    nxt = _measures.measure_step(coef, mu, None, 0.0, 0.25)
    out.append(check("measures/pure-drift", "positions-shift",
                     float(np.max(np.abs(nxt.positions
                                         - (mu.positions + 0.25)))), 1e-14))

    coef3 = _three_atom_coefficients()
    mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                        np.array([0.4, 0.3, 0.3]))
    radius = mu0.total_mass() * math.exp(
        3 * (coef3.drift_bound + coef3.decay_bound + coef3.birth_bound))
    worst = -math.inf
    dt = 1.0 / 64
    times, states = _measures.evolve(coef3, mu0, None, 0.0, 1.0, dt)
    for t, st in zip(times, states):
        bound = _measures.measure_domain_bound(
            t, 1.0, radius, coef3.drift_bound, coef3.decay_bound,
            coef3.birth_bound)
        worst = max(worst, st.total_mass() - bound)
    out.append(check("measures/mass-envelope", "exp-mass-bound",
                     worst, 10 * dt))

    # the finest residual reads the trajectory the envelope checked
    res = []
    for steps in (8, 16, 32, 64):
        run = ((times, states) if 1.0 / steps == dt else
               _measures.evolve(coef3, mu0, None, 0.0, 1.0, 1.0 / steps))
        r = _measures._weak_defect(
            coef3, None, 0.0, 1.0, *run,
            phi=lambda t, x: (1 + 0.5 * t) * _cutoff(x),
            phi_t=lambda t, x: 0.5 * _cutoff(x),
            phi_x=lambda t, x: (1 + 0.5 * t) * _cutoff_slope(x))
        res.append(abs(r))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    out.append(check("measures/weak-residual-order", "first-order-scheme",
                     0.9, _median(orders)))
    return out


def _three_atom_coefficients() -> "_measures.MeasureCoefficients":
    # offspring lands at a fixed site so the atom count stays bounded
    child = AtomicMeasure(np.array([0.3]), np.array([0.2]))
    return _measures.MeasureCoefficients(
        drift=lambda t, mu, w, x: 0.4 + 0.1 * np.sin(x)
        + 0.05 * mu.total_mass() * np.ones(np.shape(x)),
        decay=lambda t, mu, w, x: 0.3 + 0.1 * np.cos(x),
        offspring=lambda t, mu, w, y: child,
        drift_bound=0.6, decay_bound=0.4, birth_bound=0.2)


def _cutoff(x):
    x = np.asarray(x, dtype=float)
    y = x / 6.0
    return np.where(np.abs(y) < 1.0, (1.0 - y * y) ** 2, 0.0)


def _cutoff_slope(x):
    x = np.asarray(x, dtype=float)
    y = x / 6.0
    return np.where(np.abs(y) < 1.0, 2.0 * (1.0 - y * y) * (-2.0 * y / 6.0),
                    0.0)


def suite_bv(seed: int, n_pairs: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    grid = GridFunction.uniform((0.0, 4.0), 160)
    worst = math.inf
    for _ in range(n_pairs):
        u = _random_step_data(rng, grid)
        w = _random_step_data(rng, grid)
        delta = grid.with_values(rng.uniform(0.0, 0.4, grid.values.shape))
        worst = min(worst, *(c.margin
                             for c in bv_estimate_checks(u, w, delta)))
    return [check("bv/discrete-inequalities", "elementary-tv-bounds",
                  -worst, 1e-12)]


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "metric": suite_metric,
    "ode": suite_ode,
    "renewal": suite_renewal,
    "ibvp": suite_ibvp,
    "claw": suite_claw,
    "measures": suite_measures,
    "bv": suite_bv,
}
