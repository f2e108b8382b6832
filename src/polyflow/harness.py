"""Configuration ingestion, scenario runs, convergence studies, verification.

The harness turns the library's quantitative guarantees into deterministic
pass/fail reports: every check records the measured left-hand side, the
bound it must respect, and the margin.  Reports are byte-identical across
runs with the same configuration and seed (timings are kept out of the
persisted report for that reason).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import claw as _claw
from . import measures as _measures
from .errors import ConfigError, DomainExit
from .ibvp import (InflowBoundary, _envelope_norms, ibvp_domain_bounds,
                   ibvp_solve)
from .metric import (EuclideanSpace, LocalFlow, Process, ProcessConstants,
                     couple, coupling_bounds, euler_polygonal,
                     refine_to_process)
from .ode import OdeField, make_ode_process, ode_solve
from .renewal import (RenewalCoefficients, characteristic,
                      ivp_domain_bounds, renewal_solve)
from .scenarios import (EpidemicParams, PredatorPreyParams,
                        RefineSchedule, _fit_radius,
                        _macro_count, run_epidemic, run_predator_prey)
from .spaces import (AtomicMeasure, BvTimeSeries, GridFunction,
                     bv_estimate_checks, flat_distance, l1_distance)

SCHEMA_VERSION = 1


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
    schema: int = SCHEMA_VERSION

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        ordered = sorted(self.checks, key=lambda c: c.name)
        return {
            "schema": self.schema,
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
# Config ingestion
# --------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    validate_config(cfg)
    return cfg


def _need(cfg: dict, key: str, kind, where: str = ""):
    label = f"{where}.{key}" if where else key
    if key not in cfg:
        raise ConfigError(f"missing field: {label}")
    val = cfg[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"field {label} must be a number")
        return float(val)
    if not isinstance(val, kind):
        raise ConfigError(f"field {label} must be {kind.__name__}")
    return val


def _positive(cfg: dict, key: str, where: str = "") -> float:
    v = _need(cfg, key, float, where)
    if v <= 0:
        raise ConfigError(f"field {f'{where}.{key}' if where else key} "
                          f"must be positive, got {v}")
    return v


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_config(cfg: dict) -> None:
    if _need(cfg, "schema", int) != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}")
    scenario = _need(cfg, "scenario", str)
    known = ("rotation", "translation", "epidemic", "predator_prey")
    if scenario not in known:
        raise ConfigError(f"scenario must be one of {known}")
    if "seed" in cfg and (not isinstance(cfg["seed"], int)
                          or isinstance(cfg["seed"], bool)):
        raise ConfigError("field seed must be an integer")
    _verify_suites(cfg)
    tcfg = _need(cfg, "time", dict)
    horizon = _positive(tcfg, "horizon", "time")
    if scenario in ("epidemic", "predator_prey"):
        _macro_count(horizon, _positive(tcfg, "macro_step", "time"))
    rcfg = _need(cfg, "refine", dict) if "refine" in cfg else {}
    if "tol" in rcfg and (not _is_number(rcfg["tol"]) or rcfg["tol"] <= 0):
        raise ConfigError("field refine.tol must be positive")
    for key in ("j0", "j_max"):
        v = rcfg.get(key, 0)
        if not (_is_number(v) and float(v).is_integer() and v >= 0):
            raise ConfigError(f"field refine.{key} must be a nonnegative "
                              "integer")
    schedule = schedule_from_config(cfg)
    if schedule.j0 > schedule.j_max:
        raise ConfigError(f"field refine.j0 {schedule.j0} must not exceed "
                          f"refine.j_max {schedule.j_max}")
    params = cfg.get("params", {})
    if scenario == "epidemic":
        given = {"r0": 0.0, **params}
        for key in ("infection_rate", "recovery_rate", "mortality_rate",
                    "immunization_lag", "admissible_radius", "s0", "i0",
                    "r0"):
            v = _need(given, key, float, "params")
            if v < 0:
                raise ConfigError(f"field params.{key} must be nonnegative")
        cells = _need(params, "cells", int, "params")
        if cells <= 0:
            raise ConfigError("field params.cells must be positive")
        try:
            epidemic_params_from_config(cfg)
        except ValueError as exc:  # the data bounds of EpidemicParams
            raise ConfigError(f"params: {exc}") from None
    if scenario == "predator_prey":
        for key in ("alpha", "escape_radius", "search_radius",
                    "feeding_radius", "prey_radius", "prey_amp"):
            _positive(params, key, "params")
        if _need(params, "feeding_rate", float, "params") < 0:
            raise ConfigError("field params.feeding_rate must be nonnegative")
        dim = _need(params, "dim", int, "params")
        if dim not in (1, 2):
            raise ConfigError("field params.dim must be 1 or 2")
        cells = _need(params, "cells", list, "params")
        box = _need(params, "box", list, "params")
        if len(cells) != dim or len(box) != dim:
            raise ConfigError("fields params.cells and params.box must have "
                              "one entry per axis")
        for n in cells:
            if not isinstance(n, int) or n <= 0:
                raise ConfigError("field params.cells entries must be "
                                  "positive integers")
        for b in box:
            if (not isinstance(b, list) or len(b) != 2
                    or not all(_is_number(e) for e in b) or not b[1] > b[0]):
                raise ConfigError("field params.box entries must be "
                                  "[lo, hi] with hi > lo")
        for key in ("prey_center", "predator_start"):
            point = params.get(key, [0.0] * dim)
            if (not isinstance(point, list) or len(point) != dim
                    or not all(_is_number(c) for c in point)):
                raise ConfigError(f"field params.{key} must list one "
                                  "number per axis")
        # every kernel must fit the box (scenarios.predator_prey_fields)
        span = min(b[1] - b[0] for b in box)
        for key in ("escape_radius", "search_radius", "feeding_radius"):
            if 2.0 * params[key] > span:
                raise ConfigError(f"field params.{key} must be at most "
                                  f"half the box span {span:.3g}")


def schedule_from_config(cfg: dict) -> RefineSchedule:
    rcfg = cfg.get("refine", {})
    return RefineSchedule(j0=int(rcfg.get("j0", 0)),
                          j_max=int(rcfg.get("j_max", 8)),
                          tol=float(rcfg.get("tol", 1e-5)))


def epidemic_params_from_config(cfg: dict) -> EpidemicParams:
    p = cfg["params"]
    lag = float(p["immunization_lag"])
    cells = int(p["cells"])
    grid = GridFunction.uniform((0.0, lag), cells)

    def grid_field(entry, name) -> GridFunction:
        if isinstance(entry, dict) and "constant" in entry:
            return grid.with_values(np.full(cells, float(entry["constant"])))
        if isinstance(entry, list):
            if len(entry) != cells:
                raise ConfigError(f"field params.{name} must list {cells} "
                                  "cell values")
            return grid.with_values(np.asarray(entry, dtype=float))
        raise ConfigError(f"field params.{name} must be a list of cell "
                          "values or {{\"constant\": c}}")

    rate_entry = p.get("vaccination_rate", {"times": [0.0], "values": [0.0]})
    if not (isinstance(rate_entry, dict) and "times" in rate_entry
            and "values" in rate_entry):
        raise ConfigError("field params.vaccination_rate must carry times "
                          "and values")
    try:
        rate = BvTimeSeries(np.asarray(rate_entry["times"], dtype=float),
                            np.asarray(rate_entry["values"], dtype=float))
    except ValueError as exc:
        raise ConfigError(f"field params.vaccination_rate: {exc}") from None
    return EpidemicParams(
        infection_rate=float(p["infection_rate"]),
        recovery_rate=float(p["recovery_rate"]),
        mortality_rate=float(p["mortality_rate"]),
        vaccination_rate=rate,
        immunization_lag=lag,
        vaccinated_infectivity=grid_field(
            p.get("vaccinated_infectivity", {"constant": 0.0}),
            "vaccinated_infectivity"),
        s0=float(p["s0"]), i0=float(p["i0"]), r0=float(p.get("r0", 0.0)),
        v0=grid_field(p.get("v0", {"constant": 0.0}), "v0"),
        admissible_radius=float(p["admissible_radius"]),
        horizon=float(cfg["time"]["horizon"]),
        macro_step=float(cfg["time"]["macro_step"]),
    )


def predator_prey_params_from_config(cfg: dict) -> PredatorPreyParams:
    p = cfg["params"]
    return PredatorPreyParams(
        dim=int(p["dim"]),
        alpha=float(p["alpha"]),
        escape_radius=float(p["escape_radius"]),
        search_radius=float(p["search_radius"]),
        feeding_radius=float(p["feeding_radius"]),
        feeding_rate=float(p["feeding_rate"]),
        box=tuple((float(b[0]), float(b[1])) for b in p["box"]),
        cells=tuple(int(n) for n in p["cells"]),
        horizon=float(cfg["time"]["horizon"]),
        macro_step=float(cfg["time"]["macro_step"]),
        prey_center=tuple(float(c) for c in p.get(
            "prey_center", [0.0] * int(p["dim"]))),
        prey_radius=float(p["prey_radius"]),
        prey_amp=float(p["prey_amp"]),
        predator_start=tuple(float(c) for c in p.get(
            "predator_start", [0.0] * int(p["dim"]))),
    )


# --------------------------------------------------------------------------
# Linear demo systems (closed-form references)
# --------------------------------------------------------------------------

def rotation_processes(ball: float = 2.0, horizon: float = 1.0,
                       ) -> tuple[Process, Process]:
    """Harmonic pair du/dt = w, dw/dt = -u as two frozen-parameter processes.

    RK4 is exact for both frozen problems (constant right-hand sides), so
    the only error in any polygonal is the splitting itself.
    """
    u_field = OdeField(f=lambda t, u, w: np.atleast_1d(np.asarray(w, float)),
                       lip=1.0, sup=ball, radius=ball)
    w_field = OdeField(f=lambda t, w, u: -np.atleast_1d(np.asarray(u, float)),
                       lip=1.0, sup=ball, radius=ball)
    return tuple(make_ode_process(f, horizon, steps_per_unit=1.0)
                 for f in (u_field, w_field))


def rotation_flow(ball: float = 2.0, horizon: float = 1.0) -> LocalFlow:
    pu, pw = rotation_processes(ball, horizon)
    return couple(pu, pw)


def rotation_exact(t: float, u0: float = 1.0, w0: float = 0.0
                   ) -> tuple[np.ndarray, np.ndarray]:
    u = u0 * math.cos(t) + w0 * math.sin(t)
    w = -u0 * math.sin(t) + w0 * math.cos(t)
    return np.array([u]), np.array([w])


def translation_flow(horizon: float = 4.0) -> LocalFlow:
    """Pair of pure translations; every polygonal is exact."""
    c = ProcessConstants(c_u=0.0, c_t=1.0, c_w=0.0, horizon=horizon)
    pu = Process(solve=lambda t, t0, x, w: x + (t - t0),
                 constants=c, space=EuclideanSpace(),
                 interval=(0.0, horizon))
    pw = Process(solve=lambda t, t0, x, w: x + (t - t0),
                 constants=c, space=EuclideanSpace(),
                 interval=(0.0, horizon))
    return couple(pu, pw)


# --------------------------------------------------------------------------
# Convergence studies
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    error: float
    order: float | None   # None on the finest row / where undefined


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow]
    exact: bool            # all errors at rounding level
    converged: bool

    def observed_orders(self) -> list[float]:
        return [r.order for r in self.rows if r.order is not None]


def polygonal_convergence(flow: LocalFlow, t0: float, x0, tau: float,
                          levels: list[int],
                          reference=None) -> ConvergenceTable:
    """Errors of fixed-step polygonals against a reference or the finest.

    ``levels`` are dyadic exponents; the polygonal at level j uses step
    ``tau / 2**j``.  Observed orders come from successive log2 ratios.
    """
    if len(levels) < 3:
        raise ValueError("need at least 3 levels")
    results = {j: euler_polygonal(flow, tau, t0, x0, tau / 2.0 ** j)
               for j in levels}
    if reference is None:
        ref = results[max(levels)]
        err_levels = [j for j in levels if j != max(levels)]
    else:
        ref = reference
        err_levels = list(levels)
    js = sorted(err_levels)
    return _order_table([tau / 2.0 ** j for j in js],
                        [flow.space.distance(results[j], ref) for j in js])


def _order_table(eps: list[float], errors: list[float]) -> ConvergenceTable:
    """Table of ``errors`` at steps ``eps`` (coarse to fine) with orders.

    Each order is the log2 ratio of the previous error to this one.
    """
    exact = max(errors, default=0.0) <= 1e-13
    rows: list[ConvergenceRow] = []
    prev = None
    for e, err in zip(eps, errors):
        order = None
        if prev is not None and err > 1e-15 and prev > 1e-15:
            order = math.log2(prev / err)
        rows.append(ConvergenceRow(eps=e, error=err, order=order))
        prev = err
    orders = [r.order for r in rows if r.order is not None]
    converged = exact or (len(orders) > 0
                          and float(np.median(orders)) >= 0.9)
    return ConvergenceTable(rows=rows, exact=exact, converged=converged)


def scenario_convergence(cfg: dict, levels: int) -> ConvergenceTable:
    """Self-refinement study for a configured scenario."""
    scenario = cfg["scenario"]
    horizon = float(cfg["time"]["horizon"])
    js = list(range(levels))
    if scenario == "translation":
        flow = translation_flow(max(horizon, 1.0) * 2)
        x0 = (np.array([0.5]), np.array([0.25]))
        return polygonal_convergence(flow, 0.0, x0, horizon, js)
    if scenario == "rotation":
        flow = rotation_flow(horizon=max(horizon, 1.0))
        x0 = (np.array([1.0]), np.array([0.0]))
        ref = rotation_exact(horizon)
        return polygonal_convergence(flow, 0.0, x0, horizon, js,
                                     reference=ref)
    if scenario == "epidemic":
        params = epidemic_params_from_config(cfg)
        # the runner clamps sub-cell polygonal steps, which would stall the
        # age transport (cell lookup); the first clamped level ends the study
        macro = params.macro_step
        ends = []
        for j in js:
            run = run_epidemic(params,
                               RefineSchedule(j0=j, j_max=j, tol=math.inf))
            if run.trajectory.meta["j_max"] < j:
                break
            ends.append(run.trajectory.states[-1])
        js = js[:len(ends)]
        if len(js) < 3:
            raise ConfigError(
                "grid too coarse for the requested levels: increase "
                "params.cells or time.macro_step")
        space_u = EuclideanSpace()
        errors = [space_u.distance(ends[i][0], ends[-1][0])
                  + l1_distance(ends[i][1], ends[-1][1])
                  for i in range(len(js) - 1)]
        return _order_table([macro / 2.0 ** j for j in js[:-1]], errors)
    raise ConfigError(f"converge does not support scenario '{scenario}'")


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
                     flow.space.distance(same, x0), 0.0))

    a = euler_polygonal(flow, 0.5, 0.0, x0, 0.125)
    b = euler_polygonal(flow, 0.25, 0.5, a, 0.125)
    c = euler_polygonal(flow, 0.75, 0.0, x0, 0.125)
    out.append(check("metric/semigroup-bitexact", "composition-order",
                     flow.space.distance(b, c), 0.0))

    worst = 0.0
    tau, eps = 0.5, 0.5 / 16
    for _ in range(20):
        x1 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        x2 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        d0 = flow.space.distance(x1, x2)
        if d0 < 1e-12:
            continue
        d1 = flow.space.distance(euler_polygonal(flow, tau, 0.0, x1, eps),
                                 euler_polygonal(flow, tau, 0.0, x2, eps))
        worst = max(worst, d1 / d0)
    cu = bounds.constants.c_u
    cw = bounds.constants.c_w
    out.append(check("metric/stability", "exp-data-bound", worst,
                     math.exp((cu + cw) * tau) * (1 + 1e-6)))

    for k in range(3, 9):
        tq = 2.0 ** (-k)
        # resolve the limit to ~1% of the expected first-order gap
        limit = refine_to_process(flow, tq, 0.0, x0, tol=1e-2 * tq * tq,
                                  j0=0, j_max=14)
        one = euler_polygonal(flow, tq, 0.0, x0, tq)
        lhs = flow.space.distance(limit.point, one) / tq
        out.append(check(f"metric/tangency-tau-2^-{k}", "first-order-gap",
                         lhs, 2.0 * bounds.tangency_rhs(tq)))
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
        source=lambda t, x, w: np.zeros(np.shape(x)[0]),
        divergence=lambda t, x, w: 0.2 * np.cos(x),
        v_sup=0.7, v_lip=0.2, v_div_lip=0.7,
        m_sup_tv=1.5, m_param_lip=0.0, q_sup_tv=0.0, q_l1=0.0,
        q_param_lip=0.0)


def suite_renewal(seed: int, cells: int = 400) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    dx = 1.0 / cells
    grid = GridFunction.uniform((-2.0, 3.0), int(5.0 / dx))
    ind = GridFunction.from_callable(
        lambda x: ((x >= 0) & (x < 1)).astype(float),
        grid.origin, grid.dx, grid.values.shape)

    zeros = lambda t, x, w: np.zeros(np.shape(x)[0])
    move = RenewalCoefficients(
        velocity=lambda t, x, w: np.ones(np.shape(x)[0]),
        growth=zeros, source=zeros, divergence=zeros, v_sup=1.0)
    got = renewal_solve(move, ind, None, 0.0, 0.5, n_sub=10)
    ref = GridFunction.from_callable(
        lambda x: ((x >= 0.5) & (x < 1.5)).astype(float),
        grid.origin, grid.dx, grid.values.shape)
    out.append(check("renewal/translation", "exact-shift",
                     l1_distance(got, ref), 2 * dx))

    fade = RenewalCoefficients(
        velocity=zeros, growth=lambda t, x, w: -np.ones(np.shape(x)[0]),
        source=zeros, divergence=zeros, m_sup_tv=1.0)
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
        source=lambda t, x, w: np.zeros(np.shape(x)[0]),
        divergence=lambda t, x, w: -0.1 * np.sin(x),
        v_sup=0.9, v_lip=0.1, m_sup_tv=0.7)


def suite_ibvp(seed: int, cells: int = 400) -> list[CheckResult]:
    out: list[CheckResult] = []
    dx = 2.0 / cells if cells else 0.005
    n = int(2.0 / dx)
    grid = GridFunction.uniform((0.0, 2.0), n)
    zero = grid
    unit = InflowBoundary(BvTimeSeries.constant(1.0), speed_min=1.0,
                          b_l1=1.0, b_sup_tv=1.0)
    zeros = lambda t, x, w: np.zeros(np.shape(x)[0])
    ones = lambda t, x, w: np.ones(np.shape(x)[0])

    fill = RenewalCoefficients(velocity=ones, growth=zeros, source=zeros,
                               divergence=zeros, v_sup=1.0)
    got = ibvp_solve(fill, unit, zero, None, 0.0, 1.0, n_sub=10)
    ref = GridFunction.from_callable(lambda x: (x < 1.0).astype(float),
                                     grid.origin, grid.dx, grid.values.shape)
    out.append(check("ibvp/inflow-fill", "unit-speed-fill",
                     l1_distance(got, ref), 2 * dx))

    decay = RenewalCoefficients(
        velocity=ones, growth=lambda t, x, w: -np.ones(np.shape(x)[0]),
        source=zeros, divergence=zeros, v_sup=1.0, m_sup_tv=1.0)
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
    got = _claw.claw_solve(adv, box, None, 0.0, 1.0, cfl=1.0)
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
    got = _claw.claw_solve(burgers, u0, None, 0.0, 0.5)
    out.append(check("claw/conservation", "telescoping-fluxes",
                     abs(got.mass() - u0.mass()), 1e-12))

    dt = 0.9 * dx / burgers.lip
    stepped = _claw.claw_solve(burgers, u0, None, 0.0, dt)
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
    xs = grid.axis_centers(0)
    vals = np.zeros(xs.shape[0])
    edges = np.sort(rng.uniform(-0.8, 1.8, 2 * n_steps))
    for i in range(n_steps):
        lo, hi = edges[2 * i], edges[2 * i + 1]
        vals += rng.uniform(-1, 1) * ((xs >= lo) & (xs < hi))
    return grid.with_values(vals)


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

    res = []
    for steps in (8, 16, 32, 64):
        r = _measures.weak_residual(
            coef3, mu0, None, 0.0, 1.0, 1.0 / steps,
            phi=lambda t, x: (1 + 0.5 * t) * _cutoff(x),
            phi_t=lambda t, x: 0.5 * _cutoff(x),
            phi_x=lambda t, x: (1 + 0.5 * t) * _cutoff_slope(x))
        res.append(abs(r))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    out.append(check("measures/weak-residual-order", "first-order-scheme",
                     0.9, float(np.median(orders))))
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
        rep = bv_estimate_checks(u, w, delta)
        worst = min(worst, rep.min_margin())
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


def _verify_suites(cfg: dict) -> list[str]:
    """The suites ``cfg`` asks ``verify`` to run, all of them by default."""
    suites = cfg.get("verify", list(SUITES))
    if not isinstance(suites, list) or not suites:
        raise ConfigError("field verify must be a non-empty list of suite "
                          "names")
    for s in suites:
        if not isinstance(s, str) or s not in SUITES:
            raise ConfigError(f"unknown verify suite: {s}")
    if len(set(suites)) != len(suites):
        raise ConfigError("field verify must not repeat a suite")
    return suites


def verify(cfg: dict, seed: int | None = None) -> VerificationReport:
    suites = _verify_suites(cfg)
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    report = VerificationReport(suites=list(suites), seed=seed)
    for s in suites:
        report.checks.extend(SUITES[s](seed))
    return report


# --------------------------------------------------------------------------
# Scenario runs
# --------------------------------------------------------------------------

def run(cfg: dict, out_dir, quiet: bool = False) -> int:
    """Execute a configured scenario; write trajectory CSV + summary JSON.

    Returns the exit code (0 ok, 2 domain exit, 3 config error handled by
    the CLI wrapper).  The output directory is made only once the scenario
    has computed, so a failed run leaves nothing behind.
    """
    scenario = cfg["scenario"]
    schedule = schedule_from_config(cfg)
    started = time.perf_counter()
    checks: list[dict] = []
    meta = None

    try:
        if scenario == "epidemic":
            params = epidemic_params_from_config(cfg)
            result = run_epidemic(params, schedule)
            traj = result.trajectory
            outputs = {
                "epidemic_trajectory.csv": traj.write_csv,
                "epidemic_cohort_final.csv": result.final_cohort().to_csv,
            }
            for wmsg in result.warnings:
                checks.append({"name": "negative-state-warning",
                               "detail": wmsg})
            drift = _population_drift(traj, params)
            checks.append({"name": "population-balance",
                           "value": repr(drift)})
            meta = _run_meta(traj)
        elif scenario == "predator_prey":
            params = predator_prey_params_from_config(cfg)
            traj = run_predator_prey(params, schedule)
            columns = _predator_state_columns(traj)
            outputs = {
                "predator_prey_trajectory.csv":
                    lambda path: traj.write_csv(path, state_columns=columns),
                "prey_density_final.csv": traj.states[-1][0].to_csv,
            }
            masses = traj.column("mass")
            checks.append({"name": "prey-mass-monotone",
                           "value": bool(all(masses[i + 1]
                                             <= masses[i] + 1e-9
                                             for i in range(len(masses) - 1)))})
            meta = _run_meta(traj)
        elif scenario in ("rotation", "translation"):
            table = scenario_convergence(cfg, levels=6)
            outputs = {f"{scenario}_convergence.csv":
                       lambda path: _write_convergence_csv(path, table)}
            checks.append({"name": "self-convergence",
                           "value": bool(table.converged)})
        else:  # pragma: no cover - validated earlier
            raise ConfigError(f"unknown scenario {scenario}")
    except DomainExit as exc:
        if not quiet:
            print(f"domain exit: {exc}")
        return 2

    if meta is not None and meta["j_max"] < schedule.j_max:
        checks.append({"name": "refine-depth-clamped",
                       "detail": f"refine.j_max {schedule.j_max} requested, "
                                 f"{meta['j_max']} run: shorter polygonal "
                                 "steps stay within one grid cell"})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in outputs.items():
        write(out / name)
    summary = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario,
        "runtime_s": round(time.perf_counter() - started, 3),
        "checks": checks,
    }
    if meta is not None:
        summary["meta"] = meta
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"{scenario}: wrote {out}/summary.json")
    return 0


def _run_meta(traj) -> dict:
    """What a coupled run did, as strict JSON.

    Non-finite numbers are written as the strings ``"nan"`` / ``"inf"``.
    """
    return {k: (repr(float(v)) if isinstance(v, float)
                and not math.isfinite(v) else v)
            for k, v in traj.meta.items()}


def _population_drift(traj, params: EpidemicParams) -> float:
    """Deviation of d/dt(total population) from -mortality * I, per unit time."""
    pop = traj.column("population")
    i_vals = traj.column("I")
    times = traj.times
    horizon = times[-1] - times[0]
    absorbed = 0.0
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        absorbed += 0.5 * dt * (i_vals[k] + i_vals[k + 1])
    expected = pop[0] - params.mortality_rate * absorbed
    return abs(pop[-1] - expected) / max(horizon, 1e-12)


def _predator_state_columns(traj) -> dict[str, list[float]]:
    dim = len(np.atleast_1d(traj.states[0][1]))
    names = ["p"] if dim == 1 else ["px", "py"]
    return {name: [float(np.atleast_1d(st[1])[a]) for st in traj.states]
            for a, name in enumerate(names)}


def _write_convergence_csv(path, table: ConvergenceTable) -> None:
    import csv as _csv
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["eps", "error", "order"])
        for row in table.rows:
            w.writerow([repr(row.eps), repr(row.error),
                        "" if row.order is None else repr(row.order)])
