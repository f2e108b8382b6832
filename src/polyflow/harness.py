"""Configuration ingestion, scenario runs, convergence studies, verification.

The harness validates a JSON config, runs its scenario and writes the
trajectory CSVs and ``summary.json``; ``verify`` runs the estimate checks of
``polyflow.suites`` into a deterministic pass/fail report.  A command
imports only what it runs: each scenario model (``polyflow.epidemic``,
``polyflow.pursuit``) when that scenario runs, and the suites, with the
conservation-law and measure solvers they alone use, when ``verify`` runs.
``SUITES`` is also served from here, because ``perfbench/spans.py`` traces
each suite through ``harness.SUITES``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._lazy import forwarder
from .errors import ConfigError, KernelOutOfBox
from .metric import (LocalFlow, Process, ProcessConstants, RefineSchedule,
                     couple, euler_polygonal, product_distance)
from .ode import OdeField, make_ode_process
from .scenarios import _macro_count
from .spaces import (BvTimeSeries, GridFunction, euclidean_distance,
                     l1_distance)

SCHEMA_VERSION = 1
# the keys of ``polyflow.suites.SUITES``, so that validating a config does not
# import the suites
SUITE_NAMES = ("metric", "ode", "renewal", "ibvp", "claw", "measures", "bv")


# --------------------------------------------------------------------------
# Config ingestion
# --------------------------------------------------------------------------

def load_config(path, seed: int | None = None) -> dict:
    """The validated config at ``path``; ``seed``, if given, replaces its
    seed before validation."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if seed is not None:
        cfg["seed"] = seed
    validate_config(cfg)
    return cfg


def _need(cfg: dict, key: str, kind, where: str = "", default=None):
    """``cfg[key]`` as ``kind``, or ``default`` if given and the key absent.

    ``kind`` is ``float`` (a finite number), ``int`` (an integer, not a
    boolean), another JSON type, or ``[kind]`` for a list of ``kind``.
    """
    label = f"{where}.{key}" if where else key
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing field: {label}")
        return default
    return _typed(cfg[key], kind, label)


def _typed(val, kind, label: str):
    if isinstance(kind, list):
        if not isinstance(val, list):
            raise ConfigError(f"field {label} must be a list")
        return [_typed(v, kind[0], f"{label}[{i}]") for i, v in enumerate(val)]
    if kind is float:
        if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                and abs(val) <= sys.float_info.max):  # NaN compares false
            raise ConfigError(f"field {label} must be a finite number")
        return float(val)
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"field {label} must be {kind.__name__}")
    return val


def validate_config(cfg: dict) -> None:
    """Check ``cfg``: types here, a coupled model's ranges and shapes in
    its params class, whose errors come back naming the field."""
    if _need(cfg, "schema", int) != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}")
    scenario = _need(cfg, "scenario", str)
    known = ("rotation", "translation", "epidemic", "predator_prey")
    if scenario not in known:
        raise ConfigError(f"scenario must be one of {known}")
    _seed(cfg)
    _verify_suites(cfg)
    tcfg = _need(cfg, "time", dict)
    horizon = _need(tcfg, "horizon", float, "time")
    if scenario in ("epidemic", "predator_prey"):
        _macro_count(horizon, _need(tcfg, "macro_step", float, "time"))
    elif horizon <= 0:
        raise ConfigError(f"field time.horizon must be positive, "
                          f"got {horizon}")
    try:
        schedule_from_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"field refine.{exc}") from None
    build = {"epidemic": epidemic_params_from_config,
             "predator_prey": predator_prey_params_from_config}.get(scenario)
    if build is not None:
        try:
            build(cfg)
        except (ValueError, KernelOutOfBox) as exc:
            raise ConfigError(f"field params.{exc}") from None


def _seed(cfg: dict) -> int:
    """The config's random seed, 0 by default; NumPy's generators reject a
    negative one."""
    seed = _need(cfg, "seed", int, default=0)
    if seed < 0:
        raise ConfigError(f"field seed must be nonnegative, got {seed}")
    return seed


def schedule_from_config(cfg: dict) -> RefineSchedule:
    """The config's ``refine`` schedule: each key absent takes its
    ``RefineSchedule`` default, and one present needs that default's type."""
    rcfg = _need(cfg, "refine", dict, default={})
    return RefineSchedule(**{
        f.name: _need(rcfg, f.name, type(f.default), "refine", f.default)
        for f in fields(RefineSchedule)})


def epidemic_params_from_config(cfg: dict) -> EpidemicParams:
    from .epidemic import EpidemicParams, _age_grid, _epidemic_model
    p = _need(cfg, "params", dict)
    tcfg = _need(cfg, "time", dict)

    def num(key: str, default=None) -> float:
        return _need(p, key, float, "params", default)

    rates = {key: num(key) for key in
             ("infection_rate", "recovery_rate", "mortality_rate")}
    lag = num("immunization_lag")
    cells = _need(p, "cells", int, "params")
    grid = _age_grid(lag, cells)

    def grid_field(name: str) -> GridFunction:
        entry = p.get(name, {"constant": 0.0})
        if isinstance(entry, dict) and "constant" in entry:
            c = _need(entry, "constant", float, f"params.{name}")
            return grid.with_values(np.full(cells, c))
        if isinstance(entry, list):
            return grid.with_values(np.array(
                _typed(entry, [float], f"params.{name}")))
        raise ConfigError(f"field params.{name} must be a list of cell "
                          "values or {\"constant\": c}")

    rate_entry = _need(p, "vaccination_rate", dict, "params",
                       {"times": [0.0], "values": [0.0]})
    try:
        rate = BvTimeSeries(*(np.array(_need(rate_entry, key, [float],
                                             "params.vaccination_rate"))
                              for key in ("times", "values")))
    except ValueError as exc:
        raise ConfigError(f"field params.vaccination_rate: {exc}") from None
    params = EpidemicParams(
        **rates,
        vaccination_rate=rate,
        immunization_lag=lag,
        vaccinated_infectivity=grid_field("vaccinated_infectivity"),
        s0=num("s0"), i0=num("i0"), r0=num("r0", 0.0),
        v0=grid_field("v0"),
        admissible_radius=num("admissible_radius"),
        horizon=_need(tcfg, "horizon", float, "time"),
        macro_step=_need(tcfg, "macro_step", float, "time"),
    )
    _epidemic_model(params)  # refuses what run_epidemic would refuse
    return params


def predator_prey_params_from_config(cfg: dict) -> PredatorPreyParams:
    from .pursuit import PredatorPreyParams
    p = _need(cfg, "params", dict)
    tcfg = _need(cfg, "time", dict)
    dim = _need(p, "dim", int, "params")
    origin = [0.0] * min(dim, 2)  # the params reject any other dim first
    return PredatorPreyParams(
        dim=dim,
        **{key: _need(p, key, float, "params") for key in (
            "alpha", "escape_radius", "search_radius", "feeding_radius",
            "feeding_rate", "prey_radius", "prey_amp")},
        box=tuple(map(tuple, _need(p, "box", [[float]], "params"))),
        cells=tuple(_need(p, "cells", [int], "params")),
        horizon=_need(tcfg, "horizon", float, "time"),
        macro_step=_need(tcfg, "macro_step", float, "time"),
        **{key: tuple(_need(p, key, [float], "params", origin))
           for key in ("prey_center", "predator_start")},
    )


# --------------------------------------------------------------------------
# Linear demo systems (closed-form references)
# --------------------------------------------------------------------------

def rotation_processes(ball: float = 2.0, horizon: float = 1.0,
                       ) -> tuple[Process, Process]:
    """Harmonic pair du/dt = w, dw/dt = -u as two frozen-parameter processes.

    RK4 is exact for both frozen problems (constant right-hand sides), so
    the only error in any polygonal is the splitting itself.  Each slope is
    the frozen parameter as given, which ``ode_solve`` reads as a float
    array and broadcasts against the state.
    """
    u_field = OdeField(f=lambda t, u, w: w, lip=1.0, sup=ball, radius=ball)
    w_field = OdeField(f=lambda t, w, u: -np.asarray(u, dtype=float),
                       lip=1.0, sup=ball, radius=ball)
    return tuple(make_ode_process(f, horizon, n_sub_per_unit=1.0)
                 for f in (u_field, w_field))


def rotation_flow(ball: float = 2.0, horizon: float = 1.0) -> LocalFlow:
    pu, pw = rotation_processes(ball, horizon)
    return couple(pu, pw)


def rotation_exact(t: float) -> tuple[np.ndarray, np.ndarray]:
    """The harmonic pair at ``t`` from the start ``(u, w) = (1, 0)``."""
    return np.array([math.cos(t)]), np.array([-math.sin(t)])


def translation_flow(horizon: float = 4.0) -> LocalFlow:
    """Pair of pure translations; every polygonal is exact."""
    c = ProcessConstants(c_u=0.0, c_t=1.0, c_w=0.0, horizon=horizon)
    pu = Process(solve=lambda t0, tau, x, w: x + tau,
                 constants=c, distance=euclidean_distance)
    return couple(pu, pu)


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
                        [flow.distance(results[j], ref) for j in js])


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
    converged = exact or (len(orders) > 0 and _median(orders) >= 0.9)
    return ConvergenceTable(rows=rows, exact=exact, converged=converged)


def _median(values: list[float]) -> float:
    """The median of a nonempty list of finite numbers: the middle one,
    or ``(a + b) / 2`` of the two middle ones, which is ``np.median``'s
    value without the import of ``numpy.ma`` that it makes."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# the deepest level a convergence study may ask for: its polygonal makes
# 2**level coupled steps over the horizon, or over each macro step
_MAX_LEVEL = 20


def scenario_convergence(cfg: dict, levels: int) -> ConvergenceTable:
    """Self-refinement study for a configured scenario, at the dyadic
    levels ``0 .. levels - 1``; fewer than three levels, or a finest level
    beyond ``_MAX_LEVEL``, is a ``ConfigError`` raised before any level
    runs."""
    if levels < 3:
        raise ConfigError("field levels must be at least 3")
    if levels - 1 > _MAX_LEVEL:
        raise ConfigError(
            f"field levels {levels} asks for a polygonal of "
            f"2**{levels - 1} coupled steps, above the cap of "
            f"2**{_MAX_LEVEL}: levels must be at most {_MAX_LEVEL + 1}")
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
        from .epidemic import run_epidemic
        params = epidemic_params_from_config(cfg)
        # the runner clamps sub-cell polygonal steps, which would stall the
        # age transport (cell lookup), and reports the deepest level it
        # runs; at an infinite tol level 0's states are a (0, 0, inf) run's
        first = run_epidemic(params, RefineSchedule(0, levels - 1, math.inf))
        js = js[:first.meta["j_max"] + 1]
        if len(js) < 3:
            raise ConfigError(
                "grid too coarse for the requested levels: increase "
                "params.cells or time.macro_step")
        ends = [first.states[-1]] + [
            run_epidemic(params, RefineSchedule(j, j, math.inf)).states[-1]
            for j in js[1:]]
        distance = product_distance(euclidean_distance, l1_distance)
        errors = [distance(end, ends[-1]) for end in ends[:-1]]
        return _order_table([params.macro_step / 2.0 ** j
                             for j in js[:-1]], errors)
    raise ConfigError(f"converge does not support scenario '{scenario}'")


def _verify_suites(cfg: dict) -> list[str]:
    """The suites ``cfg`` asks ``verify`` to run, all of them by default."""
    suites = cfg.get("verify", list(SUITE_NAMES))
    if not isinstance(suites, list) or not suites:
        raise ConfigError("field verify must be a non-empty list of suite "
                          "names")
    for s in suites:
        if not isinstance(s, str) or s not in SUITE_NAMES:
            raise ConfigError(f"unknown verify suite: {s}")
    if len(set(suites)) != len(suites):
        raise ConfigError("field verify must not repeat a suite")
    return suites


def verify(cfg: dict) -> VerificationReport:
    from .suites import SUITES, VerificationReport
    suites = _verify_suites(cfg)
    seed = _seed(cfg)
    report = VerificationReport(suites=list(suites), seed=seed)
    for s in suites:
        report.checks.extend(SUITES[s](seed))
    return report


# --------------------------------------------------------------------------
# Scenario runs
# --------------------------------------------------------------------------

def run(cfg: dict, out_dir, quiet: bool = False) -> int:
    """Execute a configured scenario; write trajectory CSV + summary JSON.

    Returns 0: a domain or box exit, or a config error, propagates to the
    CLI.  The output directory is made only once the scenario has computed,
    so a failed run leaves nothing behind.
    """
    scenario = cfg["scenario"]
    schedule = schedule_from_config(cfg)
    started = time.perf_counter()
    checks: list[dict] = []
    meta = None

    if scenario == "epidemic":
        from .epidemic import run_epidemic
        params = epidemic_params_from_config(cfg)
        traj = run_epidemic(params, schedule)
        outputs = {
            "epidemic_trajectory.csv": traj.write_csv,
            "epidemic_cohort_final.csv": traj.states[-1][1].to_csv,
        }
        checks.extend(
            {"name": "negative-state-warning",
             "detail": f"negative state at t={t:.6g}: "
                       f"S={s:.3g} I={i:.3g}"}
            for t, s, i in zip(traj.times, traj.column("S"),
                               traj.column("I"))
            if min(s, i) < -1e-9)
        drift = _population_drift(traj, params)
        checks.append({"name": "population-balance",
                       "value": repr(drift)})
        meta = _run_meta(traj)
    elif scenario == "predator_prey":
        from .pursuit import run_predator_prey
        params = predator_prey_params_from_config(cfg)
        traj = run_predator_prey(params, schedule)
        outputs = {
            "predator_prey_trajectory.csv": traj.write_csv,
            "prey_density_final.csv": traj.states[-1][0].to_csv,
        }
        masses = traj.column("mass")
        checks.append({"name": "prey-mass-monotone",
                       "value": bool(all(masses[i + 1]
                                         <= masses[i] + 1e-9
                                         for i in range(len(masses) - 1)))})
        meta = _run_meta(traj)
    else:  # rotation or translation; scenario_convergence refuses others
        table = scenario_convergence(cfg, levels=6)
        outputs = {f"{scenario}_convergence.csv":
                   lambda path: _write_convergence_csv(path, table)}
        checks.append({"name": "self-convergence",
                       "value": bool(table.converged)})

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


def _write_convergence_csv(path, table: ConvergenceTable) -> None:
    import csv as _csv
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["eps", "error", "order"])
        for row in table.rows:
            w.writerow([repr(row.eps), repr(row.error),
                        "" if row.order is None else repr(row.order)])


__getattr__ = forwarder(__name__, {"SUITES": "suites"})
