"""polyflow benchmark: CLI workloads in fresh single-threaded processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify --seed 0 --seconds 42 --trace 0

``--workload`` is one of ``epidemic``, ``pursuit2d``, ``verify`` (see
``workloads.py`` for what each stresses).  The seed draws
the workload's initial data.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and every sample behind each metric.

``--trace 0`` measures the end-to-end metrics for ``--seconds``: it starts
fresh worker processes one after another, each of which imports
``polyflow.cli`` (a ``setup_s`` sample), makes a first CLI call (a
``cold_s`` sample: process start to import, plus the first call) and then a
few warm calls (``solve_s`` samples).  Every metric is the median of its
samples.

The shared 2-CPU host this benchmark was built on runs everything up to 2x
slower for a minute or more when its neighbours are busy, and the median
of a run follows that.  So before every call the worker also times a fixed
calibration task that polyflow never runs, and the three timings are
scaled by ``CALIBRATION_REF_S / median(calibration time of the run)``:
they are seconds at the host speed where the task takes
``CALIBRATION_REF_S``.  The raw medians and the scale factor are printed
on the line before the result.

``--trace 1`` reports the per-layer metrics instead: one worker makes
untraced calls, then traced ones with spans around polyflow's public
functions (``spans.py``); two more workers sweep the problem size of
``epidemic`` and ``pursuit2d`` and fit the scaling exponents.

Every call's outputs are checked (``workloads.OutputCheck``); a call that
exits non-zero, raises, or fails its check counts in ``failed`` and its
timing is dropped.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".perfbench_work")
# the traced run: untraced warm calls, then traced calls, in one worker
TRACE_UNTRACED, TRACE_TRACED = 2, 2
SWEEPS = {"epidemic": (400, 800, 1600, 3200), "pursuit2d": (50, 100, 200)}
SWEEP_REPEATS = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 170.0
# calibration task time at the reference speed: its median over many runs
# on a shared 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4)
CALIBRATION_REF_S = 0.020
TIMINGS = ("setup_s", "cold_s", "solve_s")


class Run:
    """One benchmark run: its work directory, child environment and tally."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        WORK_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                         dir=WORK_ROOT))
        self.env = dict(os.environ)
        src = str(Path("src").resolve())
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.n_workers = 0
        self.n_calls = 0
        self.checkers: dict[tuple, workloads.OutputCheck] = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds other files

    def call(self, workload: str, size=None, traced: bool = False) -> dict:
        """A CLI call on the seeded config, writing to a fresh directory."""
        cfg = workloads.make_config(workload, self.seed, size)
        path = self.dir / f"{workload}-{size}.json"
        if not path.exists():
            path.write_text(json.dumps(cfg, indent=1))
        self.n_calls += 1
        out = str(self.dir / f"c{self.n_calls}")
        return {"argv": workloads.cli_argv(workload, self.seed, str(path),
                                           out, size),
                "traced": traced, "out": out, "workload": workload,
                "cfg": cfg, "size": size}

    def worker(self, calls: list[dict]) -> tuple[float, dict]:
        """Run ``calls`` in one fresh process.

        Returns the spawn time and the worker's result, or an empty dict if
        the process died.
        """
        self.n_workers += 1
        tag = self.dir / f"w{self.n_workers}"
        spec, result = Path(f"{tag}.spec.json"), Path(f"{tag}.result.json")
        spec.write_text(json.dumps({
            "workload": self.workload,
            "calls": [{"argv": c["argv"], "traced": c["traced"]}
                      for c in calls]}))
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        with open(f"{tag}.err", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec),
                 str(result)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=max(budget, 1.0))
            except subprocess.TimeoutExpired:
                self.failures.append(f"{tag.name}: killed at the time limit")
                return spawned, {}
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not result.exists():
            message = Path(f"{tag}.err").read_text(errors="replace")
            self.failures.append(
                f"{tag.name}: exit {proc.returncode}: {message[-400:]}")
            return spawned, {}
        return spawned, json.loads(result.read_text())

    def check(self, calls: list[dict], result: dict) -> list[dict]:
        """Check every call's outputs and tally the failures.

        Returns the worker's records of the calls that passed, each with
        ``index`` (its position in ``calls``), ``out`` and ``value`` (the
        workload's accuracy figure) added.
        """
        records = result.get("calls", [])
        passed = []
        for i, call in enumerate(calls):
            self.attempted += 1
            key = (call["workload"], call["size"])
            checker = self.checkers.setdefault(
                key, workloads.OutputCheck(call["workload"], call["cfg"]))
            if i >= len(records):
                ok, detail = False, "not run"
            elif records[i]["error"] is not None:
                ok, detail = False, records[i]["error"]
            else:
                ok, records[i]["value"], detail = checker.check(
                    records[i]["rc"], call["out"])
            if not ok:
                self.failed += 1
                self.failures.append(f"{call['workload']} call {i}: {detail}")
                continue
            records[i].update(index=i, out=call["out"])
            passed.append(records[i])
        return passed

    @staticmethod
    def discard(calls: list[dict]) -> None:
        for call in calls:
            shutil.rmtree(call["out"], ignore_errors=True)


def median(values):
    return statistics.median(values) if values else math.nan


def measure(run: Run, seconds: int) -> tuple[dict, dict]:
    """End-to-end metrics from workers started one after another."""
    samples = {"setup_s": [], "cold_s": [], "solve_s": [], "peak_rss_mb": [],
               "error": []}
    calibration = []
    deadline = time.monotonic() + seconds
    while True:
        calls = [run.call(run.workload)
                 for _ in range(1 + workloads.WARM_CALLS[run.workload])]
        spawned, result = run.worker(calls)
        passed = run.check(calls, result)
        run.discard(calls)
        if result:
            setup = result["import_done"] - spawned
            samples["setup_s"].append(setup)
            samples["peak_rss_mb"].append(result["maxrss_kb"] / 1024.0)
            calibration += [c["calibration_s"] for c in result["calls"]]
        for rec in passed:
            if rec["index"] == 0:
                samples["cold_s"].append(setup + rec["end"] - rec["start"])
            else:
                samples["solve_s"].append(rec["end"] - rec["start"])
            samples["error"].append(rec["value"])
        took = time.monotonic() - spawned
        if time.monotonic() + took > deadline:
            break
    values = {k: median(v) for k, v in samples.items()}
    scale = CALIBRATION_REF_S / median(calibration)
    detail = {"samples": samples, "calibration_s": calibration,
              "scale": scale, "raw_medians": {k: values[k] for k in TIMINGS}}
    for k in TIMINGS:
        values[k] *= scale
    return values, detail


def outputs_equal(a: str, b: str) -> bool:
    """Same files with the same bytes; ``summary.json`` minus its runtime."""
    pa, pb = Path(a), Path(b)
    names = sorted(p.name for p in pa.iterdir())
    if names != sorted(p.name for p in pb.iterdir()):
        return False
    for name in names:
        if name == "summary.json":
            da = json.loads((pa / name).read_text())
            db = json.loads((pb / name).read_text())
            da.pop("runtime_s", None)
            db.pop("runtime_s", None)
            if da != db:
                return False
        elif (pa / name).read_bytes() != (pb / name).read_bytes():
            return False
    return True


def sweep(run: Run, workload: str) -> float:
    """Scaling exponent of warm call time in grid cells (log-log fit)."""
    sizes = SWEEPS[workload]
    # the first call pays one-off costs; it runs at the smallest size
    calls = [run.call(workload, sizes[0])] + [
        run.call(workload, size) for size in sizes
        for _ in range(SWEEP_REPEATS)]
    _, result = run.worker(calls)
    times: dict[int, list[float]] = {}
    for rec in run.check(calls, result):
        if rec["index"] > 0:
            times.setdefault(calls[rec["index"]]["size"], []).append(
                rec["end"] - rec["start"])
    run.discard(calls)
    if len(times) != len(sizes):
        return 0.0
    xs = [math.log(workloads.work_cells(workload, s)) for s in sizes]
    ys = [math.log(median(times[s])) for s in sizes]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def trace(run: Run) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from one traced worker plus the two sweeps."""
    calls = [run.call(run.workload, traced=i > TRACE_UNTRACED)
             for i in range(1 + TRACE_UNTRACED + TRACE_TRACED)]
    _, result = run.worker(calls)
    passed = run.check(calls, result)
    untraced = [r for r in passed if not r["traced"]]
    traced = []
    for rec in passed:
        if not rec["traced"]:
            continue
        # tracing must not perturb results
        if untraced and not outputs_equal(untraced[-1]["out"], rec["out"]):
            run.failed += 1
            run.failures.append("traced outputs differ from untraced ones")
            continue
        traced.append(rec)
    run.discard(calls)

    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            # counts repeat exactly; keep them whole numbers
            pick = (statistics.median_low
                    if all(isinstance(v, int) for v in values) else median)
            layers[name] = pick(values)
    warm = [r["end"] - r["start"] for r in untraced[1:]]
    traced_s = [r["end"] - r["start"] for r in traced]
    missing = result.get("missing", ["<worker failed>"])
    layers.update({
        "import.polyflow_s": result.get("import_s", math.nan),
        "import.scipy_modules": result.get("scipy_modules", math.nan),
        "trace.overhead_ratio": median(traced_s) / median(warm)
        if warm and traced_s else math.nan,
        "trace.missing_targets": len(missing),
    })
    for name in SWEEPS:
        layers[f"sweep.{name}_cells_exponent"] = sweep(run, name)
    detail = {"untraced_warm_calls": len(warm), "traced_calls": len(traced),
              "sweep_repeats_per_size": SWEEP_REPEATS}
    return layers, detail, missing


def environment(run: Run) -> dict:
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": run.workload, "seed": run.seed, "git_commit": commit,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "child_threads": {var: run.env[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/polyflow/cli.py").is_file():
        print("run from the repository root: src/polyflow/cli.py not found",
              file=sys.stderr)
        return 2
    # the epidemic output check evaluates polyflow's closed-form reference
    sys.path.insert(0, str(Path("src").resolve()))
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed)
    try:
        # compile bytecode and warm the file cache before timing anything
        run.worker([])
        if args.trace:
            values, detail, missing = trace(run)
        else:
            values, detail = measure(run, args.seconds)
            missing = []
        env = environment(run)
    finally:
        run.close()

    metrics, absent = {}, []
    for m in wanted:
        value = values.get(m["name"], math.nan)
        if not math.isfinite(value):
            absent.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"env": env, "detail": detail,
                      "missing_targets": missing,
                      "failures": run.failures[:20]}))
    if absent:
        print("no valid samples for: " + ", ".join(absent), file=sys.stderr)
        for line in run.failures[:5]:
            print(line, file=sys.stderr)
        return 1
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
