"""Self-test of the benchmark (not of polyflow), at reduced problem sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that

* every call passes its output check;
* the output checks reject a corrupted copy of a passing output;
* traced and untraced calls write byte-identical outputs;
* two traced runs with the same seed count exactly the same work;
* every trace target resolves and fires.

Prints one line per workload and exits 0 when everything holds.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import run as bench
import workloads

SEED = 7


def corrupt(workload: str, out: Path) -> None:
    """Damage one output so that its check must fail."""
    if workload == "epidemic":
        path = out / "epidemic_cohort_final.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[1:] = [[x, repr(float(v) * 1.05)] for x, v in rows[1:]]
    elif workload == "pursuit2d":
        path = out / "prey_density_final.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[1][2] = "-0.5"
    else:
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["checks"][0]["passed"] = False
        path.write_text(json.dumps(report))
        return
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def counts(record: dict) -> dict:
    return {k: v for k, v in record["layers"].items() if isinstance(v, int)}


def check_workload(workload: str) -> list[str]:
    size = workloads.SMALL_SIZE[workload]
    run = bench.Run(workload, SEED)
    problems = []
    try:
        first = [run.call(workload, size) for _ in range(2)] + [
            run.call(workload, size, traced=True)]
        _, result_a = run.worker(first)
        passed_a = run.check(first, result_a)
        second = [run.call(workload, size, traced=True)]
        _, result_b = run.worker(second)
        passed_b = run.check(second, result_b)
        if run.failed:
            return [f"{run.failed} of {run.attempted} calls failed: "
                    + "; ".join(run.failures)[:600]]

        untraced, traced_a = passed_a[1], passed_a[2]
        if not bench.outputs_equal(untraced["out"], traced_a["out"]):
            problems.append("traced outputs differ from untraced ones")
        if counts(traced_a) != counts(passed_b[0]):
            problems.append("work counts differ between traced runs")
        for result in (result_a, result_b):
            if result["missing"]:
                problems.append("missing targets: "
                                + ", ".join(result["missing"]))

        broken = Path(untraced["out"] + "-broken")
        shutil.copytree(untraced["out"], broken)
        corrupt(workload, broken)
        checker = workloads.OutputCheck(workload, first[0]["cfg"])
        if checker.check(0, broken)[0]:
            problems.append("output check accepted a corrupted output")
        if checker.check(1, untraced["out"])[0]:
            problems.append("output check accepted a non-zero exit")
    finally:
        run.close()
    return problems


def main() -> int:
    if not Path("src/polyflow/cli.py").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    ok = True
    for workload in workloads.NAMES:
        problems = check_workload(workload)
        ok = ok and not problems
        print(f"{workload:10s} {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"    {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
