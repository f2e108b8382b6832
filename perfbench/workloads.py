"""Benchmark workloads: CLI configs drawn from a seed, and output checks.

Each workload is one polyflow CLI command on a generated config file.  The
seed draws initial data only, never the grid or the refinement settings, so
every seed asks for the same amount of work.  The configs are complete
copies rather than edits of ``configs/``, so the benchmark's inputs do not
move when the bundled examples change.

Why these three:

* ``epidemic``  - call-overhead bound (5 macro steps refined to level 5,
  315 small coupled steps at 1,600 age cells); exercises ``ibvp`` and
  ``renewal`` per-call work, leaves the 2D kernel alone.
* ``pursuit2d`` - arithmetic bound (three coupled steps over 40k cells);
  exercises the predator's kernel gradient and the 2D transport.
* ``verify``    - the only user of ``claw``, ``measures`` and the flat
  distance (scipy LP); runs the solvers standalone, not coupled.

The coupler's own per-step overhead is reported by the trace
(``metric.step_overhead_us``) on all three.  The epidemic horizon is
shorter than the bundled example's so that one call takes about 0.3 s: on
a shared host whose speed drifts within seconds, a run of many short calls
in short-lived processes gives medians that move less between runs.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

NAMES = ("epidemic", "pursuit2d", "verify")

# problem size per workload: epidemic age cells, pursuit cells per axis;
# verify has no size knob
FULL_SIZE = {"epidemic": 1600, "pursuit2d": 200, "verify": None}
SMALL_SIZE = {"epidemic": 200, "pursuit2d": 50, "verify": None}
# warm calls after the first call of each benchmark process; few, so that
# a run starts many processes and so has many setup_s and cold_s samples
WARM_CALLS = {"epidemic": 3, "pursuit2d": 1, "verify": 1}

# acceptance criterion 7 bounds the cohort error by this
EPIDEMIC_ERROR_BOUND = 1e-3
# verify checks whose measured side is an L1 distance to a closed-form
# solution; their sum is the workload's accuracy figure
VERIFY_CLOSED_FORM = ("claw/burgers-shock", "claw/burgers-rarefaction",
                      "claw/linear-advection", "renewal/translation",
                      "renewal/decay", "renewal/source", "ibvp/inflow-fill",
                      "ibvp/boundary-decay")


# The seed moves initial data only a little: every end-to-end metric,
# ``error`` included, must spread by well under its bound across seeds.
# Rates and amounts move by a share, positions by a shift of half a cell
# of the 200x200 grid (the pursuit refinement gap follows the geometry).
JITTER = 0.02
POSITION_JITTER = 0.005


def _jitter(rng: random.Random, value: float, share: float = JITTER) -> float:
    return value * rng.uniform(1.0 - share, 1.0 + share)


def _shift(rng: random.Random) -> float:
    return rng.uniform(-POSITION_JITTER, POSITION_JITTER)


def make_config(name: str, seed: int, size=None) -> dict:
    """Config for workload ``name``; ``size`` overrides the problem size."""
    rng = random.Random(f"{name}:{seed}")
    size = FULL_SIZE[name] if size is None else size
    if name == "epidemic":
        return {
            "schema": 1, "scenario": "epidemic", "seed": seed,
            "time": {"horizon": 0.1, "macro_step": 0.02},
            "refine": {"j0": 0, "j_max": 5, "tol": 1e-8},
            "params": {
                "infection_rate": 1.5, "recovery_rate": 0.3,
                "mortality_rate": 0.1, "immunization_lag": 1.0,
                "cells": size,
                "s0": _jitter(rng, 0.7), "i0": _jitter(rng, 0.2), "r0": 0.0,
                "admissible_radius": 1.0,
                "vaccination_rate": {
                    "times": [0.0, 0.25],
                    "values": [_jitter(rng, 0.3), _jitter(rng, 0.15)]},
                "vaccinated_infectivity": {"constant": 0.5},
                "v0": {"constant": _jitter(rng, 0.2)},
            },
        }
    if name == "pursuit2d":
        return {
            "schema": 1, "scenario": "predator_prey", "seed": seed,
            "time": {"horizon": 0.3, "macro_step": 0.3},
            "refine": {"j0": 0, "j_max": 1, "tol": 1e-6},
            "params": {
                "dim": 2, "alpha": 1.2, "escape_radius": 0.8,
                "search_radius": 0.6, "feeding_radius": 0.4,
                "feeding_rate": 0.5,
                "box": [[-1.0, 1.0], [-1.0, 1.0]], "cells": [size, size],
                "prey_center": [_shift(rng), _shift(rng)],
                "prey_radius": 0.7, "prey_amp": 1.0,
                "predator_start": [0.15 + _shift(rng), _shift(rng)],
            },
        }
    if name == "verify":
        return {
            "schema": 1, "scenario": "rotation", "seed": seed,
            "time": {"horizon": 1.0},
            "verify": ["metric", "ode", "renewal", "ibvp", "claw",
                       "measures", "bv"],
        }
    raise ValueError(f"unknown workload {name}")


def cli_argv(name: str, seed: int, config_path: str, out_dir: str,
             size=None) -> list[str]:
    """Arguments for ``polyflow.cli.main`` running workload ``name``."""
    size = FULL_SIZE[name] if size is None else size
    if name == "verify":
        head = ["verify", config_path, "--seed", str(seed)]
    else:
        head = ["run", config_path]
    return head + ["--out", out_dir, "--quiet"]


def work_cells(name: str, size) -> int:
    """Grid cells of one call, the x axis of the scale sweep."""
    return size * size if name == "pursuit2d" else size


class OutputCheck:
    """Checks one call's output files; keeps reference values between calls.

    ``check`` returns ``(passed, error, detail)``.  ``error`` is the
    workload's accuracy figure (lower is better) and is only meaningful
    when ``passed`` is true.
    """

    def __init__(self, name: str, cfg: dict):
        self.name = name
        self.cfg = cfg
        self._references: dict[bytes, object] = {}

    def check(self, rc, out_dir) -> tuple[bool, float, str]:
        if rc != 0:
            return False, math.nan, f"exit code {rc}"
        out = Path(out_dir)
        try:
            return getattr(self, "_" + self.name)(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return False, math.nan, f"unreadable output: {exc!r}"

    def _epidemic(self, out: Path):
        import numpy as np
        traj_bytes = (out / "epidemic_trajectory.csv").read_bytes()
        rows = list(csv.DictReader(traj_bytes.decode().splitlines()))
        cohort = np.loadtxt(out / "epidemic_cohort_final.csv", delimiter=",",
                            skiprows=1, ndmin=2)[:, 1]
        ref = self._references.get(traj_bytes)
        if ref is None:
            # the closed-form profile along age characteristics, driven by
            # the I history the run itself reported
            from polyflow.harness import epidemic_params_from_config
            from polyflow.scenarios import epidemic_cohort_reference
            params = epidemic_params_from_config(self.cfg)
            times = [float(r["t"]) for r in rows]
            infected = [float(r["I"]) for r in rows]
            ref = epidemic_cohort_reference(params, times, infected,
                                            times[-1])
            self._references[traj_bytes] = ref
        if cohort.shape != ref.values.shape:
            return False, math.nan, "cohort has the wrong number of cells"
        error = float(np.sum(np.abs(cohort - ref.values)) * ref.dx[0])
        if not error <= EPIDEMIC_ERROR_BOUND:
            return False, error, f"cohort error {error:.3g} above bound"
        return True, error, ""

    def _pursuit2d(self, out: Path):
        import numpy as np
        with open(out / "predator_prey_trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        masses = [float(r["mass"]) for r in rows]
        if any(b > a + 1e-9 for a, b in zip(masses, masses[1:])):
            return False, math.nan, "prey mass increased"
        density = np.loadtxt(out / "prey_density_final.csv", delimiter=",",
                             skiprows=1, ndmin=2)[:, 2]
        n = self.cfg["params"]["cells"]
        if density.size != n[0] * n[1]:
            return False, math.nan, "density has the wrong number of cells"
        if not (np.all(np.isfinite(density)) and np.all(density >= 0.0)):
            return False, math.nan, "density not finite and nonnegative"
        gap = float(rows[-1]["refine_gap"])
        if not math.isfinite(gap):
            return False, math.nan, "final refinement gap not finite"
        return True, gap, ""

    def _verify(self, out: Path):
        report = json.loads((out / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        failed = sorted(n for n, c in checks.items()
                        if c["passed"] is not True)
        if failed:
            return False, math.nan, "failed checks: " + ", ".join(failed)
        absent = [n for n in VERIFY_CLOSED_FORM if n not in checks]
        if absent:
            return False, math.nan, "missing checks: " + ", ".join(absent)
        error = sum(float(checks[n]["lhs"]) for n in VERIFY_CLOSED_FORM)
        return True, error, ""
