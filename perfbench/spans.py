"""Spans around polyflow's public functions, installed from outside.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
traced function by a wrapper in every polyflow module namespace and every
dict registry that binds it (so ``backward_transport`` is caught when
``ibvp`` calls it, and a verify suite when ``harness.SUITES`` dispatches
it).  Besides the named targets below, every public module-level function
of the traced modules gets a span, so a layer's self time stays accurate
when code moves between functions.

A span is ``[target, start, end, parent, count]``; ``count`` comes from the
call's arguments (and, for refinement, its result), so it repeats exactly
between runs.  A target that no longer resolves, whose counter no longer
matches its signature, or that never fires on a workload that should reach
it is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import types

from workloads import NAMES

ALL = frozenset(NAMES)
TRACED_MODULES = ("metric", "ode", "renewal", "ibvp", "claw", "measures",
                  "spaces", "scenarios", "harness", "trajectory")
SUITES = ("metric", "ode", "renewal", "ibvp", "claw", "measures", "bv")


def polygonal_steps(tau: float, eps: float) -> int:
    """Coupled steps ``euler_polygonal(tau, eps)`` takes (same arithmetic)."""
    if tau == 0.0:
        return 0
    k = int(math.floor(tau / eps))
    return k + (1 if tau - k * eps > 0.0 else 0)


def _count_polygonal(result, flow, tau, t0, x, eps):
    return polygonal_steps(tau, eps)


def _count_refine(result, flow, tau, t0, x, tol, j0=0, j_max=20):
    # (coupled steps of the returned level, converged)
    return (polygonal_steps(tau, tau / 2.0 ** result.level),
            int(bool(result.converged)))


def _count_ode(result, field, t0, t, u0, w, n_sub=16, horizon=None):
    return 0 if t == t0 else 4 * n_sub


def _count_transport(result, coef, w, t, t_lo, x, n_sub, dx):
    return len(x) * n_sub


def _count_interfaces(result, flux, u_left, u_right, w):
    return int(getattr(u_left, "size", 1))


def _count_atoms(result, coef, mu, w, t, dt, merge_eps=None):
    return mu.n_atoms


def _count_points(result, bump, s):
    return int(getattr(s, "size", 1))


class Target:
    """One traced function: where it lives and what it counts."""

    def __init__(self, key, module, path, layer, count=None, expect=ALL):
        self.key = key            # name used in the metrics
        self.module = module      # polyflow submodule defining it
        self.path = path          # attribute path, or ("SUITES", name)
        self.layer = layer
        self.count = count
        self.expect = frozenset(expect)


TARGETS = (
    Target("euler_polygonal", "metric", ("euler_polygonal",), "metric",
           _count_polygonal),
    Target("refine_to_process", "metric", ("refine_to_process",), "metric",
           _count_refine, {"epidemic", "pursuit2d", "verify"}),
    Target("ode_solve", "ode", ("ode_solve",), "ode", _count_ode),
    Target("backward_transport", "renewal", ("backward_transport",),
           "renewal", _count_transport, {"epidemic", "pursuit2d", "verify"}),
    Target("characteristic", "renewal", ("characteristic",), "renewal",
           expect={"epidemic", "verify"}),
    Target("ibvp_solve", "ibvp", ("ibvp_solve",), "ibvp",
           expect={"epidemic", "verify"}),
    Target("boundary_crossing_time", "ibvp", ("boundary_crossing_time",),
           "ibvp", expect={"epidemic", "verify"}),
    Target("godunov_flux", "claw", ("godunov_flux",), "claw",
           _count_interfaces, {"verify"}),
    Target("measure_step", "measures", ("measure_step",), "measures",
           _count_atoms, {"verify"}),
    Target("flat_distance", "spaces", ("flat_distance",), "spaces",
           expect={"verify"}),
    Target("l1_distance", "spaces", ("l1_distance",), "spaces",
           expect={"epidemic", "pursuit2d", "verify"}),
    Target("bump_value", "scenarios", ("Bump", "__call__"), "scenarios",
           _count_points, {"pursuit2d"}),
    Target("bump_slope", "scenarios", ("Bump", "slope"), "scenarios",
           _count_points, {"pursuit2d"}),
    Target("predator_prey_fields", "scenarios", ("predator_prey_fields",),
           "scenarios", expect={"pursuit2d"}),
    Target("load_config", "harness", ("load_config",), "harness"),
    *(Target(f"suite.{name}", "harness", ("SUITES", name), "harness",
             expect={"verify"}) for name in SUITES),
    # output writers; the harness owns the I/O, so it owns their time
    Target("io.trajectory", "trajectory", ("Trajectory", "write_csv"),
           "harness", expect={"epidemic", "pursuit2d"}),
    Target("io.grid", "spaces", ("GridFunction", "to_csv"), "harness",
           expect={"epidemic", "pursuit2d"}),
)
ROOT = Target("cli", "cli", ("main",), "cli")


def _resolve(target: Target):
    """``(container, attribute, function)`` of a target, or ``None``."""
    try:
        module = importlib.import_module(f"polyflow.{target.module}")
    except ImportError:
        return None
    container = module
    *head, last = target.path
    for name in head:
        container = getattr(container, name, None)
    if isinstance(container, dict):
        fn = container.get(last)
    elif inspect.isclass(container):
        # only plain functions bind ``self`` the way the wrapper expects
        fn = inspect.getattr_static(container, last, None)
    else:
        fn = getattr(container, last, None)
    if not isinstance(fn, types.FunctionType):
        return None
    return container, last, fn


class Tracer:
    """Installs the wrappers and keeps the spans of the current call."""

    def __init__(self):
        self.targets: list[Target] = [ROOT]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unresolved: list[str] = []
        self.broken: set[str] = set()

    def _wrap(self, tid: int, fn, counter):
        spans, stack, broken = self.spans, self.stack, self.broken
        key = self.targets[tid].key
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [tid, 0.0, 0.0, stack[-1] if stack else -1,
                    1 if counter is None else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(result, *args, **kwargs)
                except (TypeError, AttributeError):
                    broken.add(key)
            return result
        return traced

    def install(self) -> None:
        """Wrap the named targets, then every other public function."""
        wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.unresolved.append(target.key)
                continue
            container, attr, fn = found
            self.targets.append(target)
            wrapper = self._wrap(len(self.targets) - 1, fn, target.count)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(container):
                setattr(container, attr, wrapper)
        for short in TRACED_MODULES:
            module = sys.modules.get(f"polyflow.{short}")
            if module is None:
                continue
            for name, fn in list(vars(module).items()):
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__
                        and not name.startswith("_")
                        and id(fn) not in wrappers):
                    self.targets.append(Target(name, short, (name,), short))
                    wrappers[id(fn)] = (fn, self._wrap(len(self.targets) - 1,
                                                       fn, None))

        def replacement(value):
            entry = wrappers.get(id(value))
            return entry[1] if entry is not None and entry[0] is value \
                else None

        # rebind in every namespace and registry that holds an original
        for name, module in list(sys.modules.items()):
            if not (isinstance(module, types.ModuleType)
                    and (name == "polyflow" or name.startswith("polyflow."))):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        if replacement(v) is not None:
                            value[k] = replacement(v)
                elif replacement(value) is not None:
                    setattr(module, attr, replacement(value))

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one traced CLI call."""
        del self.spans[:]
        return self._wrap(0, fn, None)(*args)

    def summary(self) -> tuple[dict, set]:
        """Per-layer metrics of the current call, and the keys that fired."""
        return summarize(self.spans, self.targets), {
            self.targets[s[0]].key for s in self.spans}

    def missing(self, workload: str, fired: set) -> list[str]:
        """Targets that are gone, broken, or silent where they should fire."""
        silent = [t.key for t in self.targets[1:]
                  if t in TARGETS and workload in t.expect
                  and t.key not in fired]
        return sorted(set(self.unresolved) | self.broken | set(silent))


def summarize(spans: list[list], targets: list[Target]) -> dict:
    """Fold one call's spans into the per-layer metrics."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_time: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    count: dict[str, int] = {}
    overhead = 0.0
    useful = converged = refine_steps = 0
    for i, (tid, start, end, parent, c) in enumerate(spans):
        target = targets[tid]
        key, dur = target.key, end - start
        self_time[target.layer] = (self_time.get(target.layer, 0.0)
                                   + dur - child[i])
        total[key] = total.get(key, 0.0) + dur
        calls[key] = calls.get(key, 0) + 1
        if key == "refine_to_process":
            useful += c[0] if isinstance(c, tuple) else 0
            converged += c[1] if isinstance(c, tuple) else 0
            continue
        count[key] = count.get(key, 0) + c
        if key == "euler_polygonal":
            overhead += dur - child[i]
            if parent >= 0 and targets[spans[parent][0]].key == \
                    "refine_to_process":
                refine_steps += c

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    steps = count.get("euler_polygonal", 0)
    cell_substeps = count.get("backward_transport", 0)
    interfaces = count.get("godunov_flux", 0)
    m = {
        "metric.coupled_steps": steps,
        "metric.polygonals": calls.get("euler_polygonal", 0),
        "metric.self_s": self_time.get("metric", 0.0),
        "metric.step_overhead_us": ratio(overhead, steps, 1e6),
        "metric.refine_useful_ratio": ratio(useful, refine_steps),
        "metric.refine_converged_ratio": ratio(
            converged, calls.get("refine_to_process", 0)),
        "ode.calls": calls.get("ode_solve", 0),
        "ode.rhs_evals": count.get("ode_solve", 0),
        "ode.self_s": self_time.get("ode", 0.0),
        "ode.us_per_call": ratio(total.get("ode_solve", 0.0),
                                 calls.get("ode_solve", 0), 1e6),
        "renewal.cell_substeps": cell_substeps,
        "renewal.characteristic_calls": calls.get("characteristic", 0),
        "renewal.self_s": self_time.get("renewal", 0.0),
        "renewal.ns_per_cell_substep": ratio(
            total.get("backward_transport", 0.0), cell_substeps, 1e9),
        "ibvp.calls": calls.get("ibvp_solve", 0),
        "ibvp.crossing_calls": calls.get("boundary_crossing_time", 0),
        "ibvp.self_s": self_time.get("ibvp", 0.0),
        "ibvp.us_per_call": ratio(total.get("ibvp_solve", 0.0),
                                  calls.get("ibvp_solve", 0), 1e6),
        "claw.cell_steps": interfaces,
        "claw.self_s": self_time.get("claw", 0.0),
        "claw.ns_per_cell_step": ratio(self_time.get("claw", 0.0),
                                       interfaces, 1e9),
        "measures.atom_steps": count.get("measure_step", 0),
        "measures.self_s": self_time.get("measures", 0.0),
        "spaces.flat_calls": calls.get("flat_distance", 0),
        "spaces.flat_s": total.get("flat_distance", 0.0),
        "spaces.distance_calls": (calls.get("flat_distance", 0)
                                  + calls.get("l1_distance", 0)),
        "spaces.self_s": self_time.get("spaces", 0.0),
        "scenarios.kernel_points": (count.get("bump_value", 0)
                                    + count.get("bump_slope", 0)),
        "scenarios.kernel_s": (total.get("bump_value", 0.0)
                               + total.get("bump_slope", 0.0)),
        "scenarios.fields_s": total.get("predator_prey_fields", 0.0),
        "harness.config_s": total.get("load_config", 0.0),
        "harness.io_s": sum(v for k, v in total.items()
                            if k.startswith("io.")),
    }
    for name in SUITES:
        m[f"harness.suite.{name}_s"] = total.get(f"suite.{name}", 0.0)
    return m
