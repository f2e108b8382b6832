import csv
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import polyflow
from polyflow import harness, measures, suites
from polyflow.claw import (ParamFlux, claw_constants, claw_solve_many,
                           entropy_residuals)
from polyflow.cli import main
from polyflow.errors import ConfigError
from polyflow.harness import (load_config, polygonal_convergence,
                              rotation_exact, rotation_flow,
                              scenario_convergence, translation_flow,
                              validate_config, verify)
from polyflow.metric import (LocalFlow, RefineSchedule, euler_polygonal,
                             refine_to_process)
from polyflow.spaces import GridFunction, l1_distance
from polyflow.suites import _random_step_data, check, suite_claw

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
NAN, INF = math.nan, math.inf


def base_config(**over):
    cfg = {
        "schema": 1,
        "scenario": "rotation",
        "seed": 0,
        "time": {"horizon": 1.0},
    }
    cfg.update(over)
    return cfg


def shipped_configs() -> dict[str, dict]:
    """The bundled configs, and those the benchmark generates at seeds 0
    and 7."""
    bench = CONFIG_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", bench)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    found = {path.stem: json.loads(path.read_text())
             for path in sorted(CONFIG_DIR.glob("*.json"))}
    found.update({f"perfbench-{name}-{seed}": workloads.make_config(name, seed)
                  for name in workloads.NAMES for seed in (0, 7)})
    return found


@pytest.mark.parametrize("name, cfg", shipped_configs().items())
def test_shipped_configs_validate(name, cfg):
    # the pursuit ones keep a cell centre inside the prey
    validate_config(cfg)


def edited_config(tmp_path, name, path, value) -> Path:
    """The bundled config ``name`` with the entry at ``path`` set to
    ``value``, written to ``tmp_path / "cfg.json"``."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def run_edited(tmp_path, name, path, value) -> int:
    """Exit code of ``run`` on the bundled config ``name`` with the entry
    at ``path`` set to ``value``; the output goes to ``tmp_path / "out"``."""
    return main(["run", str(edited_config(tmp_path, name, path, value)),
                 "--out", str(tmp_path / "out"), "--quiet"])


# misspelled keys that validation once ignored: the run used an
# infectivity of 0, a rate of 0 or the default j_max, or dropped the key,
# and exited 0
MISSPELLED = [
    ("epidemic.json", ("params", "vaccinated_infectivty"), {"constant": 0.5},
     "params.vaccinated_infectivity"),
    ("epidemic.json", ("params", "vacination_rate"),
     {"times": [0.0], "values": [0.3]}, "params.vaccination_rate"),
    ("epidemic.json", ("refine", "jmax"), 5, "refine.j_max"),
    ("rotation.json", ("tme",), {"horizon": 2.0}, "time"),
]


class TestUnreadKeys:
    @pytest.mark.parametrize("name, path, value, known", MISSPELLED + [
        ("epidemic.json", ("params", "v0", "constnt"), 0.1,
         "params.v0.constant"),
        ("epidemic.json", ("params", "vaccination_rate", "value"), [0.1],
         "params.vaccination_rate.values"),
        ("epidemic_sir.json", ("time", "macro_stp"), 0.02,
         "time.macro_step"),
        ("predator_prey_1d.json", ("params", "prey_centre"), [0.1],
         "params.prey_center"),
        ("verify_all.json", ("verfy",), ["ode"], "verify")])
    def test_named_with_the_closest_key(self, tmp_path, name, path, value,
                                        known):
        unknown = ".".join(path)
        with pytest.raises(ConfigError) as info:
            load_config(edited_config(tmp_path, name, path, value))
        assert str(info.value) == (f"unknown field {unknown}; "
                                   f"did you mean {known}?")

    @pytest.mark.parametrize("name, path, value, known", MISSPELLED)
    def test_cli_exits_3(self, tmp_path, capsys, name, path, value, known):
        assert run_edited(tmp_path, name, path, value) == 3
        err = capsys.readouterr().err
        assert f"unknown field {'.'.join(path)}; did you mean {known}?" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", [
        (("params",), {"dim": 1}), (("time", "macro_step"), 0.5)])
    def test_a_key_only_another_scenario_reads(self, tmp_path, path, value):
        with pytest.raises(ConfigError, match=(
                rf"^unknown field {re.escape('.'.join(path))}; this run "
                "reads ")):
            load_config(edited_config(tmp_path, "rotation.json", path,
                                      value))

    def test_absent_optional_keys_still_load(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        for key in ("r0", "vaccination_rate", "v0"):
            del cfg["params"][key]
        del cfg["seed"], cfg["refine"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        load_config(path)


class TestConfigValidation:
    def test_ok(self):
        validate_config(base_config())

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="time"):
            validate_config({"schema": 1, "scenario": "rotation"})

    def test_bad_schema(self):
        with pytest.raises(ConfigError, match="schema"):
            validate_config(base_config(schema=99))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            validate_config(base_config(scenario="starlings"))

    @pytest.mark.parametrize("seed, ok", [(0, True), (601, True),
                                          (-1, False), (1.5, False)])
    def test_seed_a_nonnegative_integer(self, seed, ok):
        cfg = base_config(seed=seed)
        if ok:
            validate_config(cfg)
        else:
            with pytest.raises(ConfigError, match="field seed"):
                validate_config(cfg)

    def test_negative_horizon_named(self):
        with pytest.raises(ConfigError, match="time.horizon"):
            validate_config(base_config(time={"horizon": -1.0}))

    @pytest.mark.parametrize("refine, ok", [
        ({"j0": 8}, True), ({"j0": 9}, False),
        ({"j0": 3, "j_max": 3}, True), ({"j0": 4, "j_max": 3}, False)])
    def test_start_level_at_most_the_deepest(self, refine, ok):
        # j_max defaults to 8, as in schedule_from_config
        cfg = base_config(refine=refine)
        if ok:
            validate_config(cfg)
        else:
            with pytest.raises(ConfigError, match="refine.j0"):
                validate_config(cfg)

    def test_uncertified_epidemic_macro_step_named(self, tmp_path):
        # the ball's certified segment is shorter than this macro step; the
        # run refuses it, so validation does too
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        cfg["time"] = {"horizon": 0.5, "macro_step": 0.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=r"^time\.macro_step 0\.5 "
                           "exceeds the certified segment"):
            load_config(path)

    def test_epidemic_field_names(self):
        cfg = base_config(scenario="epidemic",
                          time={"horizon": 1.0, "macro_step": 0.1},
                          params={"infection_rate": 1.0})
        with pytest.raises(ConfigError, match="params.recovery_rate"):
            validate_config(cfg)

    def test_predator_prey_negative_dx_equivalent(self):
        cfg = base_config(scenario="predator_prey",
                          time={"horizon": 0.1, "macro_step": 0.1},
                          params={
                              "dim": 1, "alpha": 1.0, "escape_radius": 0.5,
                              "search_radius": 0.5, "feeding_radius": 0.5,
                              "feeding_rate": 0.0, "prey_radius": 0.5,
                              "prey_amp": 1.0, "cells": [100],
                              "box": [[1.0, -1.0]],
                          })
        with pytest.raises(ConfigError, match="params.box"):
            validate_config(cfg)


class TestConvergence:
    def test_translation_exact(self):
        flow = translation_flow()
        x0 = (np.array([0.5]), np.array([0.25]))
        table = polygonal_convergence(flow, 0.0, x0, 1.0,
                                      levels=list(range(6)))
        assert table.exact
        assert table.converged
        assert all(r.error == 0.0 for r in table.rows)

    def test_rotation_first_order(self):
        flow = rotation_flow()
        x0 = (np.array([1.0]), np.array([0.0]))
        table = polygonal_convergence(flow, 0.0, x0, 1.0,
                                      levels=list(range(8)),
                                      reference=rotation_exact(1.0))
        orders = [r.order for r in table.rows if r.order is not None]
        assert 0.9 <= float(np.median(orders)) <= 1.5
        assert table.converged

    def test_epidemic_self_refinement(self):
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        cfg["params"]["cells"] = 320
        cfg["time"] = {"horizon": 0.4, "macro_step": 0.05}
        table = scenario_convergence(cfg, levels=5)
        assert table.converged
        orders = [r.order for r in table.rows if r.order is not None]
        assert float(np.median(orders)) >= 0.9

    def test_epidemic_levels_end_at_the_depth_clamp(self):
        # 100 cells and macro step 0.04: steps below 2^-2 macro stay
        # within one age cell, so levels 3 to 5 are not studied
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        cfg["params"]["cells"] = 100
        cfg["time"] = {"horizon": 0.2, "macro_step": 0.04}
        table = scenario_convergence(cfg, levels=6)
        assert [r.eps for r in table.rows] == [0.04, 0.02]
        cfg["params"]["cells"] = 40
        with pytest.raises(ConfigError, match="grid too coarse"):
            scenario_convergence(cfg, levels=6)

    def test_epidemic_runs_each_level_once(self, monkeypatch):
        # configs/epidemic.json clamps at level 3: level 0's run reports
        # that depth, so levels 1 to 3 run once each and level 4 never
        import polyflow.epidemic as epidemic
        schedules = []
        run_epidemic = epidemic.run_epidemic

        def counted(params, schedule):
            schedules.append(schedule)
            return run_epidemic(params, schedule)

        monkeypatch.setattr(epidemic, "run_epidemic", counted)
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        table = scenario_convergence(cfg, levels=6)
        assert len(schedules) == 4
        assert [(s.j0, s.j_max) for s in schedules] \
            == [(0, 5), (1, 1), (2, 2), (3, 3)]
        assert len(table.rows) == 3

    @pytest.mark.parametrize("levels", [-1, 0, 1, 2])
    def test_epidemic_needs_three_levels(self, levels):
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        with pytest.raises(ConfigError):
            scenario_convergence(cfg, levels)

    def test_needs_three_levels(self):
        flow = translation_flow()
        with pytest.raises(ValueError):
            polygonal_convergence(flow, 0.0,
                                  (np.array([0.0]), np.array([0.0])), 1.0,
                                  levels=[0, 1])

    @pytest.mark.parametrize("scenario", ["rotation", "translation"])
    @pytest.mark.parametrize("levels", [-1, 0, 1, 2])
    def test_every_scenario_needs_three_levels(self, scenario, levels,
                                               monkeypatch):
        def never(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(harness, "euler_polygonal", never)
        with pytest.raises(ConfigError, match="levels must be at least 3"):
            scenario_convergence(base_config(scenario=scenario), levels)

    @pytest.mark.parametrize("values", [
        [1.5], [3.0, -1.0], [0.9, 1.1, 1.0], [2.0, 0.5, 1.25, 0.75],
        [1.0, 1.0, 0.1, 3.0, 2.0, 0.3], [2.5, 2.5, -7.0, 1e-300],
        [0.1, 0.2]])
    def test_median_is_numpys(self, values):
        got = harness._median(values)
        assert type(got) is float
        assert got == float(np.median(values))

    @pytest.mark.parametrize("scenario", ["rotation", "translation",
                                          "epidemic"])
    def test_levels_capped_before_any_level_runs(self, scenario,
                                                 monkeypatch):
        def never(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(harness, "euler_polygonal", never)
        import polyflow.epidemic as epidemic
        monkeypatch.setattr(epidemic, "run_epidemic", never)
        cfg = (json.loads((CONFIG_DIR / "epidemic.json").read_text())
               if scenario == "epidemic" else base_config(scenario=scenario))
        with pytest.raises(ConfigError, match=r"cap of 2\*\*20"):
            scenario_convergence(cfg, levels=22)


def reference_suite_claw(seed, cells_per_unit):
    """``suite_claw`` as it was with one single-datum solve per datum."""
    rng = random.Random(seed)
    out = []
    burgers = ParamFlux(f=lambda u, w: 0.5 * u * u, lip=1.0,
                        critical_points=(0.0,))
    dx = 1.0 / cells_per_unit
    grid = GridFunction.uniform((-2.0, 3.0), int(5.0 / dx))
    xs = grid.axis_centers(0)
    got = claw_solve_many(burgers,
                          [grid.with_values((xs < 0.0).astype(float))],
                          None, 0.0, 1.0)[0]
    out.append(check("claw/burgers-shock", "jump-speed-half",
                     l1_distance(got, grid.with_values(
                         (xs < 0.5).astype(float))), 2 * dx))
    got = claw_solve_many(burgers,
                          [grid.with_values((xs >= 0.0).astype(float))],
                          None, 0.0, 1.0)[0]
    out.append(check("claw/burgers-rarefaction", "fan-profile",
                     l1_distance(got, grid.with_values(
                         np.clip(xs / 1.0, 0.0, 1.0))),
                     5 * dx * abs(math.log(dx))))
    adv = ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7)
    box = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
    got = claw_solve_many(adv, [box], None, 0.0, 1.0, cfl=1.0)[0]
    ref = grid.with_values(((xs >= 0.7) & (xs < 1.7)).astype(float))
    out.append(check("claw/linear-advection", "exact-translation",
                     l1_distance(got, ref), 2 * dx))
    worst_contract, worst_tvd = -math.inf, -math.inf
    for _ in range(50):
        u1 = _random_step_data(rng, grid)
        u2 = _random_step_data(rng, grid)
        v1 = claw_solve_many(burgers, [u1], None, 0.0, 0.25)[0]
        v2 = claw_solve_many(burgers, [u2], None, 0.0, 0.25)[0]
        worst_contract = max(worst_contract,
                             l1_distance(v1, v2) - l1_distance(u1, u2))
        worst_tvd = max(worst_tvd, v1.tv() - u1.tv())
    out.append(check("claw/l1-contraction", "monotone-contraction",
                     worst_contract, 1e-10))
    out.append(check("claw/tvd", "variation-diminishing", worst_tvd, 1e-10))
    u0 = _random_step_data(rng, grid)
    got = claw_solve_many(burgers, [u0], None, 0.0, 0.5)[0]
    out.append(check("claw/conservation", "telescoping-fluxes",
                     abs(got.mass() - u0.mass()), 1e-12))
    dt = 0.9 * dx / burgers.lip
    stepped = claw_solve_many(burgers, [u0], None, 0.0, dt)[0]
    worst_entropy = math.inf
    for k in [rng.uniform(-1.0, 1.0) for _ in range(5)]:
        res = entropy_residuals(burgers, u0.values, stepped.values,
                                k, dt, dx, None)
        worst_entropy = min(worst_entropy, float(np.min(res)))
    out.append(check("claw/entropy-residual", "discrete-entropy",
                     -worst_entropy, 1e-10))
    c = claw_constants(2.0, 3.0)
    out.append(check("claw/constants", "contraction-modulus-zero",
                     abs(c.c_u) + abs(c.c_t - 6.0) + abs(c.c_w - 6.0), 0.0))
    return out


def frozen_random_step_data(rng, grid, n_steps=6):
    """``_random_step_data`` before the ``searchsorted`` build: one scalar
    draw and one masked add per step."""
    xs = grid.axis_centers(0)
    vals = np.zeros(xs.shape[0])
    edges = sorted(rng.uniform(-0.8, 1.8) for _ in range(2 * n_steps))
    for i in range(n_steps):
        lo, hi = edges[2 * i], edges[2 * i + 1]
        vals += rng.uniform(-1, 1) * ((xs >= lo) & (xs < hi))
    return grid.with_values(vals)


@pytest.mark.parametrize("seed", [0, 3, 601])
def test_random_step_data_matches_frozen_copy(seed):
    # the claw suite's grid, the bv suite's grid, and a coarse one on which
    # most steps hold no cell centre
    grids = [GridFunction.uniform((-2.0, 3.0), 2000),
             GridFunction.uniform((0.0, 4.0), 160),
             GridFunction.uniform((-1.0, 2.0), 3)]
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(20):
        for grid in grids:
            for n_steps in (6, 1):
                got = _random_step_data(rng, grid, n_steps)
                want = frozen_random_step_data(ref, grid, n_steps)
                assert got.values.tobytes() == want.values.tobytes()
                assert rng.getstate() == ref.getstate()


def test_random_step_data_on_shared_edges():
    # a step whose two edges coincide is empty, and a step that starts
    # where the previous one ends holds its left edge
    class Edges:
        def __init__(self, draws):
            self.draws = list(draws)

        def uniform(self, lo, hi):
            return self.draws.pop(0)

    grid = GridFunction.uniform((-0.5, 1.5), 4)   # centres -0.25 ... 1.25
    draws = [-0.25, -0.25, 0.25, 0.75, 0.75, 1.25, 0.5, -0.5, 0.25]
    got = _random_step_data(Edges(draws), grid, 3)
    want = frozen_random_step_data(Edges(draws), grid, 3)
    assert got.values.tobytes() == want.values.tobytes()
    assert list(got.values) == [0.0, -0.5, 0.25, 0.0]


class TestVerifyReports:
    def test_deterministic_bytes(self):
        cfg = base_config(verify=["ode", "claw", "bv"])
        r1 = verify(cfg).to_json()
        r2 = verify(cfg).to_json()
        assert r1 == r2

    def test_checks_sorted_and_anchored(self):
        cfg = base_config(verify=["ode"])
        report = verify(cfg)
        data = json.loads(report.to_json())
        names = [c["name"] for c in data["checks"]]
        assert names == sorted(names)
        assert all(c["anchor"] for c in data["checks"])

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="suite"):
            verify(base_config(verify=["nope"]))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_claw_suite_matches_one_solve_per_datum(self, seed):
        got = suite_claw(seed, cells_per_unit=40)
        want = reference_suite_claw(seed, cells_per_unit=40)
        assert [c.name for c in got] == [c.name for c in want]
        for a, b in zip(got, want):
            assert (a.lhs, a.rhs) == (b.lhs, b.rhs), a.name

    def test_all_pass(self):
        cfg = base_config(verify=["metric", "ode", "renewal", "ibvp",
                                  "claw", "measures", "bv"])
        report = verify(cfg)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == []

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_all_pass_at_other_seeds(self, seed):
        # seeds 0 and 3 are the golden reports
        cfg = base_config(verify=list(harness.SUITE_NAMES), seed=seed)
        failing = [c.name for c in verify(cfg).checks if not c.passed]
        assert failing == []


def counting_flow(flow: LocalFlow) -> tuple[LocalFlow, list]:
    """``flow`` with a list that grows by one at each step it takes."""
    steps = []

    def evaluate(tau, t0, x):
        steps.append((tau, t0))
        return flow.evaluate(tau, t0, x)

    return LocalFlow(evaluate=evaluate, delta=flow.delta,
                     distance=flow.distance), steps


class TestVerifyWorkCounts:
    """The suites run each distinct piece of work once."""

    def test_tangency_ladders_share_their_steps(self):
        flow, steps = counting_flow(rotation_flow(ball=4.0, horizon=1.0))
        x0 = (np.array([1.0]), np.array([0.0]))
        suites._tangency_ladders(flow, x0)
        # unshared, the refinements take 762 steps and the one-step
        # polygonals 6 more
        assert len(steps) == 447

    def test_tangency_ladders_match_unshared_refinements(self):
        flow = rotation_flow(ball=4.0, horizon=1.0)
        x0 = (np.array([1.0]), np.array([0.0]))
        ladders = suites._tangency_ladders(flow, x0)
        assert [k for k, _, _ in ladders] == list(range(3, 9))
        for k, got, one in ladders:
            tq = 2.0 ** -k
            want = refine_to_process(flow, tq, 0.0, x0,
                                     RefineSchedule(0, 14, 1e-2 * tq * tq))
            assert (got.level, got.converged) == (want.level, want.converged)
            assert got.gap.hex() == want.gap.hex()
            for a, b in zip(got.point, want.point):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(one, euler_polygonal(flow, tq, 0.0, x0, tq)):
                assert a.tobytes() == b.tobytes()

    def test_measures_suite_evolves_each_trajectory_once(self, monkeypatch):
        steps = []
        step = measures.measure_step

        def counted(*args):
            steps.append(args[4])
            return step(*args)

        monkeypatch.setattr(measures, "measure_step", counted)
        suites.suite_measures(0)
        # the pure-drift check's one step, then the trajectories of dt =
        # 1/64 (mass envelope and finest weak residual), 1/8, 1/16, 1/32
        assert len(steps) == 1 + 64 + 8 + 16 + 32


class TestRotationParameters:
    @pytest.mark.parametrize("state", [([1.0], [0.0]), (1.0, 0.0),
                                       ([0.25], [-0.5])])
    def test_state_kinds_give_the_array_bits(self, state):
        flow = rotation_flow()
        want = flow.evaluate(0.1, 0.0, tuple(np.array(v, dtype=float, ndmin=1)
                                             for v in state))
        got = flow.evaluate(0.1, 0.0, state)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestCli:
    def test_run_epidemic_writes_outputs(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        cfg["params"]["cells"] = 100
        cfg["time"] = {"horizon": 0.2, "macro_step": 0.04}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "epidemic_trajectory.csv").exists()
        assert (tmp_path / "out" / "epidemic_cohort_final.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["scenario"] == "epidemic"
        assert "runtime_s" in summary
        header = (tmp_path / "out"
                  / "epidemic_trajectory.csv").read_text().splitlines()[0]
        for col in ("t", "S", "I", "R", "l1", "linf", "tv", "alpha1_margin",
                    "alphainf_margin", "alphatv_margin"):
            assert col in header.split(",")

    def test_negative_state_warnings_in_summary(self, tmp_path):
        # aggressive vaccination drives S below zero: the summary lists one
        # warning per negative sample, with the runner's exact wording
        cfg = {"schema": 1, "scenario": "epidemic",
               "time": {"horizon": 0.4, "macro_step": 0.04},
               "refine": {"j0": 0, "j_max": 2, "tol": 1e-6},
               "params": {"infection_rate": 1.5, "recovery_rate": 0.3,
                          "mortality_rate": 0.1, "immunization_lag": 1.0,
                          "cells": 100, "s0": 0.2, "i0": 0.2,
                          "admissible_radius": 4.0,
                          "vaccination_rate": {"times": [0.0],
                                               "values": [3.0]}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        checks = json.loads((tmp_path / "out" / "summary.json").read_text())[
            "checks"]
        warned = [c for c in checks if c["name"] == "negative-state-warning"]
        assert warned == [
            {"name": "negative-state-warning",
             "detail": f"negative state at t={t}: S={s} I={i}"}
            for t, s, i in [("0.08", "-0.0419", "0.196"),
                            ("0.12", "-0.161", "0.191"),
                            ("0.16", "-0.278", "0.186"),
                            ("0.2", "-0.395", "0.179"),
                            ("0.24", "-0.51", "0.172"),
                            ("0.28", "-0.624", "0.163"),
                            ("0.32", "-0.738", "0.154"),
                            ("0.36", "-0.85", "0.145"),
                            ("0.4", "-0.963", "0.135")]]
        assert checks[:len(warned)] == warned

    def test_run_predator_prey_monotone_mass(self, tmp_path):
        code = main(["run", str(CONFIG_DIR / "predator_prey_1d.json"),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        mono = [c for c in summary["checks"]
                if c["name"] == "prey-mass-monotone"]
        assert mono and mono[0]["value"] is True
        traj = (tmp_path / "out" / "predator_prey_trajectory.csv").read_text()
        assert traj.splitlines()[0].split(",")[0] == "t"

    def test_summary_says_what_the_run_did(self, tmp_path):
        epi = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        epi["params"]["cells"] = 100
        epi["time"] = {"horizon": 0.2, "macro_step": 0.04}
        epi_path = tmp_path / "epidemic.json"
        epi_path.write_text(json.dumps(epi))
        runs = {"epidemic": epi_path,
                "predator_prey": CONFIG_DIR / "predator_prey_2d.json"}
        meta = {}
        for name, path in runs.items():
            assert main(["run", str(path), "--out", str(tmp_path / name),
                         "--quiet"]) == 0
            text = (tmp_path / name / "summary.json").read_text()
            assert "NaN" not in text and "Infinity" not in text
            meta[name] = json.loads(text)["meta"]
            for key in ("j0", "j_max", "envelope", "macro_step",
                        "refine_gap"):
                assert key in meta[name], (name, key)
        assert meta["epidemic"]["envelope"] == "admissible"
        assert meta["epidemic"]["macro_step"] == 0.04
        assert meta["epidemic"]["radius_v"] > 0
        assert meta["epidemic"]["j0"] <= meta["epidemic"]["j_max"]
        # the bundled 2D pursuit runs without an envelope and unrefined
        pursuit = meta["predator_prey"]
        assert pursuit["envelope"] == "inadmissible-at-macro-length"
        assert pursuit["radius_rho"] == "nan"
        assert pursuit["radius_p"] > 0
        assert (pursuit["j0"], pursuit["j_max"]) == (0, 0)
        assert pursuit["refine_gap"] == "inf"

    def test_summary_counts_converged_steps(self, tmp_path):
        # the crossing-time clamp cuts j_max = 6 to 0, so no step converges
        cfg = json.loads((CONFIG_DIR / "epidemic_sir.json").read_text())
        cfg["time"]["horizon"] = 0.05
        path = tmp_path / "sir.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        meta = json.loads((tmp_path / "out" / "summary.json").read_text())[
            "meta"]
        assert meta["j_max"] == 0
        assert meta["macro_steps"] == 5
        assert meta["converged_steps"] == 0
        checks = json.loads((tmp_path / "out" / "summary.json").read_text())[
            "checks"]
        clamped = [c for c in checks if c["name"] == "refine-depth-clamped"]
        assert len(clamped) == 1
        assert "6 requested, 0 run" in clamped[0]["detail"]

    def test_epidemic_without_envelope_records_nan_margins(self, tmp_path):
        # an alternating infectivity has a variation too large for any
        # invariant envelope at the macro length
        cfg = json.loads((CONFIG_DIR / "epidemic.json").read_text())
        cells = cfg["params"]["cells"]
        cfg["params"]["vaccinated_infectivity"] = [float(k % 2)
                                                   for k in range(cells)]
        path = tmp_path / "alternating.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert meta["envelope"] == "inadmissible-at-macro-length"
        assert meta["radius_v"] == "nan"
        with open(out / "epidemic_trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == meta["macro_steps"] + 1
        for name in ("alpha1_margin", "alphainf_margin", "alphatv_margin"):
            assert all(math.isnan(float(row[name])) for row in rows)
        assert main(["converge", str(path), "--out", str(tmp_path / "conv"),
                     "--levels", "3", "--quiet"]) == 0

    def test_domain_exit_maps_to_exit_2(self, tmp_path, monkeypatch):
        from polyflow import epidemic
        from polyflow.errors import DomainExit

        def boom(params, schedule):
            raise DomainExit("left the ball", step=3, time=0.25)

        monkeypatch.setattr(epidemic, "run_epidemic", boom)
        cfg = json.loads((CONFIG_DIR / "epidemic_sir.json").read_text())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("prey_center", [0.95]),
                                            ("prey_radius", 5.0)])
    def test_prey_at_the_box_edge_exit_2(self, tmp_path, capsys, key,
                                         value):
        # the prey's support reaches the truncated box, where the transport
        # solver is no longer valid
        cfg = json.loads((CONFIG_DIR / "predator_prey_1d.json").read_text())
        cfg["params"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        out = capsys.readouterr().err
        assert out.startswith("domain exit: support clearance")
        assert out.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_domain_exit_reported_under_quiet(self, tmp_path, capsys):
        # --quiet silences the progress lines, not the reason for exit 2
        cfg = json.loads((CONFIG_DIR / "predator_prey_1d.json").read_text())
        cfg["params"]["prey_radius"] = 0.95
        cfg["time"] = {"horizon": 0.3, "macro_step": 0.3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain exit: support clearance")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config(time={"horizon": -2.0})))
        code = main(["run", str(path), "--quiet"])
        assert code == 3
        assert "time.horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["epidemic.json",
                                      "predator_prey_1d.json"])
    def test_horizon_not_a_multiple_of_macro_step_exit_3(self, tmp_path,
                                                         capsys, name):
        cfg = json.loads((CONFIG_DIR / name).read_text())
        cfg["time"] = {"horizon": 0.3, "macro_step": 0.2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 3
        assert "time.macro_step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["epidemic.json",
                                      "predator_prey_1d.json"])
    def test_too_many_macro_steps_exit_3(self, tmp_path, capsys, name,
                                         monkeypatch):
        # a billion macro steps is refused by validation, before the
        # driver would list their start times
        import polyflow.epidemic
        import polyflow.pursuit
        import polyflow.scenarios

        def never(*args, **kwargs):
            raise AssertionError("the macro-step driver was entered")

        for module in (polyflow.scenarios, polyflow.epidemic,
                       polyflow.pursuit):
            monkeypatch.setattr(module, "_run_coupled", never)
        code = run_edited(tmp_path, name, ("time",),
                          {"horizon": 1e6, "macro_step": 1e-3})
        assert code == 3
        err = capsys.readouterr().err
        assert ("asks for 1000000000 macro steps, above the cap of 1048576"
                in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, path, value, field", [
        ("epidemic.json", ("params", "s0"), 1e6, "s0"),
        ("epidemic.json", ("params", "r0"), [1], "params.r0"),
        ("epidemic.json", ("params", "vaccination_rate", "times"), [0, 0],
         "params.vaccination_rate"),
        ("epidemic.json", ("refine", "j_max"), "x", "refine.j_max"),
        ("epidemic.json", ("refine", "j_max"), -1, "refine.j_max"),
        ("epidemic.json", ("refine", "j0"), -2, "refine.j0"),
        ("epidemic.json", ("refine", "j_max"), 2.5, "refine.j_max"),
        ("epidemic.json", ("refine", "j0"), 4, "refine.j0"),
        ("predator_prey_1d.json", ("params", "search_radius"), 100,
         "params.search_radius"),
        ("predator_prey_1d.json", ("params", "predator_start"), [0.1, 0.2],
         "params.predator_start must hold one entry per axis"),
        ("predator_prey_1d.json", ("params", "prey_center"), "x",
         "params.prey_center must be a list"),
        ("predator_prey_1d.json", ("params", "prey_center"), [0.0, 1.0],
         "params.prey_center must hold one entry per axis"),
        # caught when the config is validated
        ("epidemic.json", ("time",), {"horizon": 0.5, "macro_step": 0.5},
         "exceeds the certified segment"),
        # non-finite numbers, which json accepts
        ("epidemic.json", ("time", "horizon"), NAN, "time.horizon"),
        ("rotation.json", ("time", "horizon"), NAN, "time.horizon"),
        ("epidemic.json", ("params", "infection_rate"), NAN,
         "params.infection_rate"),
        ("epidemic.json", ("params", "vaccination_rate", "values"),
         [NAN, 0.15], "params.vaccination_rate.values"),
        ("predator_prey_1d.json", ("params", "alpha"), NAN, "params.alpha"),
        ("predator_prey_1d.json", ("params", "prey_amp"), INF,
         "params.prey_amp"),
        ("predator_prey_1d.json", ("params", "prey_center"), [NAN],
         "params.prey_center"),
        ("epidemic.json", ("refine", "tol"), NAN, "refine.tol"),
        ("epidemic.json", ("params", "vaccination_rate", "times"),
         [0.0, NAN], "params.vaccination_rate.times"),
        ("epidemic.json", ("refine", "tol"), INF, "refine.tol"),
        ("epidemic.json", ("params", "immunization_lag"), 0,
         "params.immunization_lag must be positive"),
        ("epidemic.json", ("params", "cells"), True, "params.cells"),
        ("epidemic.json", ("params", "s0"), 10 ** 400, "params.s0"),
        *[(name, path, value, ".".join(path))
          for name, path in [
              ("epidemic.json", ("params", "recovery_rate")),
              ("epidemic_sir.json", ("params", "s0")),
              ("predator_prey_1d.json", ("params", "feeding_rate")),
              ("predator_prey_2d.json", ("params", "escape_radius")),
              ("rotation.json", ("refine", "tol"))]
          for value in (NAN, INF, -INF)],
    ], ids=["s0-above-radius", "r0-list", "repeated-rate-time", "j_max-string",
            "j_max-negative", "j0-negative", "j_max-fraction",
            "j0-above-j_max",
            "kernel-out-of-box", "predator-start-too-long",
            "prey-center-string", "prey-center-too-long",
            "uncertified-macro-step",
            "horizon-nan", "rotation-horizon-nan", "infection-rate-nan",
            "rate-value-nan", "alpha-nan", "prey-amp-inf", "prey-center-nan",
            "tol-nan", "rate-time-nan", "tol-inf", "lag-zero", "cells-bool",
            "s0-beyond-float",
            *[f"{name}-{field}-{value}"
              for name, field in [("epidemic", "recovery_rate"),
                                  ("epidemic_sir", "s0"),
                                  ("predator_prey_1d", "feeding_rate"),
                                  ("predator_prey_2d", "escape_radius"),
                                  ("rotation", "tol")]
              for value in ("nan", "inf", "-inf")]])
    def test_config_mistake_exit_3(self, tmp_path, capsys, name, path,
                                   value, field):
        assert run_edited(tmp_path, name, path, value) == 3
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # finite numbers whose moduli, spans or cell counts overflow a float
    @pytest.mark.parametrize("name, path, value, cause", [
        ("predator_prey_1d.json", ("params", "feeding_rate"), 1e300,
         "Lipschitz moduli of the coupled processes overflow"),
        ("predator_prey_1d.json", ("params", "alpha"), 1e-300,
         "Lipschitz moduli of the coupled processes overflow"),
        ("predator_prey_1d.json", ("params", "prey_amp"), 1e300,
         "Lipschitz moduli of the coupled processes overflow"),
        # a modulus that overflows to inf without math.exp
        ("predator_prey_1d.json", ("params", "feeding_rate"), 1e308,
         "Lipschitz moduli of the coupled processes overflow"),
        ("predator_prey_1d.json", ("time",),
         {"horizon": 1e300, "macro_step": 1e300},
         "overflow over time.macro_step 1e+300"),
        ("predator_prey_1d.json", ("params", "box"), [[-1e308, 1e308]],
         "field params.box spans hi - lo must be finite"),
        ("epidemic.json", ("params", "immunization_lag"), 1e-320,
         "crosses too many grid cells"),
    ], ids=["feeding-rate", "alpha", "prey-amp", "feeding-rate-inf-modulus",
            "horizon", "box", "lag"])
    def test_finite_config_beyond_float_exit_3(self, tmp_path, capsys, name,
                                               path, value, cause):
        assert run_edited(tmp_path, name, path, value) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and cause in err, err
        assert not (tmp_path / "out").exists()

    # the predator's norm overflows, so its ODE ball would have an infinite
    # radius and the run would write nan margins, without a warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, start", [
        ("predator_prey_2d.json", [1e300, 0.0]),
        ("predator_prey_1d.json", [1.7e308])], ids=["2d", "1d"])
    def test_far_predator_exit_3(self, tmp_path, capsys, name, start):
        assert run_edited(tmp_path, name, ("params", "predator_start"),
                          start) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: params.predator_start"), err
        assert not (tmp_path / "out").exists()

    # 100 cells of width 2 or 2e298: no cell centre lies within the prey
    # radius 0.7 of the prey, so the run would carry mass 0 throughout;
    # the far centres square to inf without an overflow warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("box", [[[-100, 100]], [[-1e300, 1e300]]],
                             ids=["wide", "beyond-float-squares"])
    def test_prey_between_cell_centres_exit_3(self, tmp_path, capsys, box):
        assert run_edited(tmp_path, "predator_prey_1d.json",
                          ("params", "box"), box) == 3
        assert "field params.prey_radius" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cells_narrower_than_a_float_exit_3(self, tmp_path, capsys):
        # 4 cells over a span of 1e-323 would each be 2.5e-324 wide, which
        # rounds to 0, and the grid's own check ended the run with exit 1
        params = json.loads(
            (CONFIG_DIR / "predator_prey_1d.json").read_text())["params"]
        tiny = 5e-324
        params.update(box=[[0.0, 1e-323]], cells=[4], escape_radius=tiny,
                      search_radius=tiny, feeding_radius=tiny,
                      prey_center=[0.0], predator_start=[0.0])
        assert run_edited(tmp_path, "predator_prey_1d.json", ("params",),
                          params) == 3
        assert ("field params.cells must leave each cell a positive width"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    # a grid of more than spaces.MAX_GRID_CELLS cells is refused before
    # anything grid-sized is allocated: the pursuit run died in np.zeros
    # with exit 1, and the epidemic's validation raised NumPy's memory error
    @pytest.mark.parametrize("name, cells", [
        ("predator_prey_2d.json", [1000000000, 1000000000]),
        ("predator_prey_1d.json", [2 ** 20 + 1]),
        ("epidemic.json", 10 ** 12)], ids=["pursuit-2d", "pursuit-1d",
                                           "epidemic"])
    def test_grid_above_the_cell_cap_exit_3(self, tmp_path, capsys,
                                            monkeypatch, name, cells):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid-sized array was allocated")

        for alloc in ("zeros", "empty", "full", "ones", "meshgrid"):
            monkeypatch.setattr(np, alloc, refuse)
        assert run_edited(tmp_path, name, ("params", "cells"), cells) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: field params.cells ask for "), err
        assert "above the cap of 1048576" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["3", "[1]", "null"])
    def test_config_not_an_object_exit_3(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["verify", str(path), "--seed", "1", "--out",
                     str(tmp_path / "out"), "--quiet"]) == 3
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_3(self):
        assert main(["run", "/nonexistent/cfg.json", "--quiet"]) == 3

    @pytest.mark.parametrize("in_config", [True, False],
                             ids=["config", "override"])
    def test_negative_seed_exit_3(self, tmp_path, capsys, in_config):
        # NumPy's generators reject a negative seed; the config check names
        # it whether the config or the --seed override gives it
        path = tmp_path / "cfg.json"
        cfg = base_config(verify=["bv"])
        argv = ["verify", str(path), "--out", str(tmp_path / "out"),
                "--quiet"]
        if in_config:
            cfg["seed"] = -1
        else:
            argv += ["--seed", "-1"]
        path.write_text(json.dumps(cfg))
        assert main(argv) == 3
        assert "field seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_writes_report(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(verify=["bv"])))
        code = main(["verify", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]

    @pytest.mark.parametrize("suites, message", [
        ([], "non-empty list"),
        ("bv", "non-empty list"),
        (["bv", "claw", "bv"], "repeat"),
        (["bv", "nope"], "unknown verify suite: nope"),
    ], ids=["empty", "string", "duplicate", "unknown"])
    def test_verify_suites_exit_3(self, tmp_path, capsys, monkeypatch,
                                  suites, message):
        ran = []
        monkeypatch.setitem(harness.SUITES, "bv",
                            lambda seed: ran.append(seed) or [])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(verify=suites)))
        code = main(["verify", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 3
        assert message in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    def test_converge_levels_beyond_the_cap_exit_3(self, tmp_path, capsys):
        started = time.perf_counter()
        code = main(["converge", str(CONFIG_DIR / "rotation.json"), "--out",
                     str(tmp_path / "out"), "--levels", "40"])
        assert code == 3 and time.perf_counter() - started < 1.0
        assert "2**39 coupled steps, above the cap of 2**20" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_converge_below_three_levels_exit_3(self, tmp_path, capsys):
        code = main(["converge", str(CONFIG_DIR / "rotation.json"), "--out",
                     str(tmp_path / "out"), "--levels", "2"])
        assert code == 3
        assert "levels must be at least 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_converge_translation(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(scenario="translation")))
        code = main(["converge", str(path), "--out", str(tmp_path / "out"),
                     "--levels", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact" in out
        assert (tmp_path / "out" / "convergence.csv").exists()

    def test_bundled_configs_validate(self):
        for name in ("epidemic.json", "epidemic_sir.json",
                     "predator_prey_1d.json", "predator_prey_2d.json",
                     "rotation.json", "verify_all.json"):
            load_config(CONFIG_DIR / name)


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    src = str(Path(polyflow.__file__).resolve().parent.parent)
    code = ("import sys, polyflow, polyflow.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
    # no verify suite needs scipy at all, and the suites draw their data
    # from the standard library's generator, not numpy.random
    path = CONFIG_DIR / "verify_all.json"
    code = ("import sys; from polyflow.cli import main; "
            f"rc = main(['verify', {str(path)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}, '--quiet']); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'), 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0 [] False"


SRC = Path(polyflow.__file__).resolve().parent
# what only ``verify`` runs: the suites and the two solvers no scenario uses
VERIFY_ONLY = {"claw", "measures", "suites"}
# modules outside polyflow that no bundled command loads: the thread pool of
# an overlapped coupled step, for which no bundled grid is large enough, and
# numpy.ma, which np.median imports
WATCHED = ("concurrent.futures", "numpy.ma")


def loaded_after(tmp_path, argv: list[str] | None) -> set[str]:
    """polyflow modules, and ``WATCHED`` ones, that a fresh process loads
    for ``polyflow argv``.

    ``None`` only imports the CLI.
    """
    code = "import sys, polyflow.cli; "
    if argv is not None:
        code += f"assert polyflow.cli.main({argv!r}) == 0; "
    code += ("print(*sorted(m for m in sys.modules "
             f"if m.startswith('polyflow.') or m in {WATCHED!r}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return {m.removeprefix("polyflow.") for m in out.stdout.split()}


def cli_argv(command: str, config: str) -> list[str]:
    return [command, str(CONFIG_DIR / config), "--out", "out", "--quiet"]


@pytest.mark.parametrize("argv, model, absent", [
    (None, None, VERIFY_ONLY | {"epidemic", "pursuit", "ibvp", *WATCHED}),
    (cli_argv("run", "epidemic.json"), "epidemic",
     VERIFY_ONLY | {"pursuit", "concurrent.futures"}),
    (cli_argv("run", "predator_prey_1d.json"), "pursuit",
     VERIFY_ONLY | {"epidemic", "ibvp", "concurrent.futures"}),
    (cli_argv("run", "predator_prey_2d.json"), "pursuit",
     VERIFY_ONLY | {"epidemic", "ibvp", "concurrent.futures"}),
], ids=["import", "run-epidemic", "run-pursuit", "run-pursuit-2d"])
def test_a_command_loads_only_what_it_runs(tmp_path, argv, model, absent):
    loaded = loaded_after(tmp_path, argv)
    assert not loaded & absent, loaded & absent
    assert model is None or model in loaded


def test_verify_loads_every_module_but_the_scenario_models(tmp_path):
    # no suite runs a coupled scenario or writes its trajectory, and none
    # takes a median through numpy.ma
    loaded = loaded_after(tmp_path, cli_argv("verify", "verify_all.json"))
    every = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert not loaded & set(WATCHED), loaded & set(WATCHED)
    assert loaded == every - {"epidemic", "pursuit", "trajectory"}


def test_suite_names_name_the_suites():
    from polyflow.suites import SUITES
    assert tuple(SUITES) == harness.SUITE_NAMES
    assert harness.SUITES is SUITES


# the names ``polyflow`` exports, each from its defining module
EXPORTS = (
    "AtomicMeasure", "BvTimeSeries", "ClearanceViolated", "ConfigError",
    "CouplingBounds", "DomainExit", "EpidemicParams", "GridFunction",
    "GridMismatch", "HorizonExceeded", "InadmissibleHorizon",
    "InflowBoundary", "KernelOutOfBox", "LocalFlow", "MassBlowup",
    "MeasureCoefficients", "NegativeRadius", "NoCrossing", "OdeField",
    "ParamFlux", "PolyflowError", "PredatorPreyParams", "Process",
    "ProcessConstants", "RefineSchedule", "RefinementResult",
    "RenewalCoefficients", "StepTooLarge", "SupportClearanceViolated",
    "Trajectory", "UndefinedBoundaryDatum", "boundary_crossing_time",
    "bv_estimate_checks", "characteristic", "claw_constants",
    "claw_solve_many", "couple", "coupling_bounds", "entropy_residuals",
    "epidemic_cohort_reference", "euclidean_distance", "euler_polygonal",
    "flat_distance", "godunov_flux", "ibvp_domain_bounds",
    "ibvp_lipschitz_constants", "ibvp_solve", "ivp_domain_bounds",
    "ivp_lipschitz_constants", "l1_distance", "make_ibvp_process",
    "make_ode_process", "make_renewal_process", "measure_domain_bound",
    "measure_step", "merge_constants", "ode_constants", "ode_domain_radius",
    "ode_solve", "predator_prey_fields", "product_distance",
    "refine_to_process", "renewal_solve", "run_epidemic",
    "run_predator_prey", "total_variation", "weak_residual",
)


def test_every_export_resolves_to_its_defining_module(tmp_path):
    code = f"""
import importlib, sys, polyflow
print(*sorted(m for m in sys.modules if m.startswith('polyflow.')))
listed = set(dir(polyflow))
for name in {EXPORTS!r}:
    obj = getattr(polyflow, name)
    home = importlib.import_module(obj.__module__)
    assert obj.__module__ == 'polyflow.' + polyflow._HOMES[name], name
    assert getattr(home, name) is obj and name in listed, name
print(sorted(polyflow.__all__) == sorted({EXPORTS!r}))
"""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    first, last = out.stdout.splitlines()
    # the package itself imports only its forwarding helper
    assert first == "polyflow._lazy" and last == "True"


@pytest.mark.parametrize("module, name, home", [
    ("harness", "SUITES", "suites"),
    ("harness", "VerificationReport", "suites"),
    ("scenarios", "Bump", "pursuit"),
    ("scenarios", "predator_prey_fields", "pursuit"),
    ("scenarios", "epidemic_cohort_reference", "epidemic"),
    ("spaces", "flat_distance", "measures"),
    ("spaces", "AtomicMeasure", "measures"),
    ("spaces", "bv_estimate_checks", "suites"),
])
def test_moved_names_are_served_from_their_old_module(module, name, home):
    # only the names the benchmark reads from their old module are still
    # served there; every other moved name is read from its home
    import importlib
    old = importlib.import_module(f"polyflow.{module}")
    new = importlib.import_module(f"polyflow.{home}")
    if name in {"SUITES", "Bump", "predator_prey_fields",
                "epidemic_cohort_reference", "flat_distance"}:
        assert getattr(old, name) is getattr(new, name)
    else:
        assert hasattr(new, name)
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(old, name)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(old, "nope")
