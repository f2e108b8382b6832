"""One fresh benchmark process: import the CLI, then run a list of calls.

Usage: ``python3 perfbench/worker.py SPEC RESULT`` with ``src`` on
``PYTHONPATH``.  ``SPEC`` is a JSON object ``{"workload": name, "calls":
[{"argv": [...], "traced": bool}, ...]}``; traced calls come last.  The
result JSON holds the clock readings the parent turns into timings, and
before each call the time of a fixed calibration task.  The import comes
first so that ``import_done`` marks the end of set-up.
"""

import sys
import time

started = time.monotonic()
import polyflow.cli  # noqa: E402

import_done = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

CALIBRATION_POINTS = numpy.linspace(0.0, 1.0, 20000)


def calibrate() -> float:
    """Seconds taken by fixed Python and NumPy work that polyflow never runs.

    The time tracks the shared host's speed at that moment.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    values = CALIBRATION_POINTS
    for _ in range(120):
        values = numpy.sqrt(values * values + 1.0) - 0.5
    return time.perf_counter() - start


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {
        "import_done": import_done,
        "import_s": import_done - started,
        "scipy_modules": sum(1 for m in sys.modules
                             if m == "scipy" or m.startswith("scipy.")),
        "calls": [],
    }
    tracer = None
    for call in spec["calls"]:
        if call["traced"] and tracer is None:
            # untraced calls are over: their peak memory is the workload's
            result["maxrss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        record = {"traced": call["traced"], "error": None,
                  "calibration_s": calibrate()}
        record["start"] = time.monotonic()
        try:
            if tracer is not None:
                rc = tracer.call(polyflow.cli.main, call["argv"])
            else:
                rc = polyflow.cli.main(call["argv"])
        except Exception:  # a crash is a failed operation, not a lost run
            rc = None
            record["error"] = traceback.format_exc(limit=3)
        record["end"] = time.monotonic()
        record["rc"] = rc
        if tracer is not None:
            metrics, fired = tracer.summary()
            record["layers"] = metrics
            record["fired"] = sorted(fired)
        result["calls"].append(record)
    if tracer is None:
        result["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        result["missing"] = []
    else:
        fired = set().union(*(c["fired"] for c in result["calls"]
                              if c["traced"]))
        result["missing"] = tracer.missing(spec["workload"], fired)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
