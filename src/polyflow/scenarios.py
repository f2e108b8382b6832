"""The macro-step driver shared by the coupled application models.

``_run_coupled`` runs one coupled model over refined macro steps; the models
themselves live in ``polyflow.pursuit`` (prey density and predator) and
``polyflow.epidemic`` (staged vaccination), and each is imported only when
it is used.  Three of their names are also served from here, because the
benchmark reads them here: ``perfbench/spans.py`` traces ``Bump`` and
``predator_prey_fields``, and ``perfbench/workloads.py`` checks the epidemic
output with ``epidemic_cohort_reference``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

from ._lazy import forwarder
from .errors import ConfigError, InadmissibleHorizon
from .metric import Process, couple, refine_to_process
from .spaces import GridFunction


@dataclass(frozen=True)
class RefineSchedule:
    """Dyadic refinement schedule for the coupled polygonals; breaking a
    rule (``tol > 0``, ``0 <= j0 <= j_max``) raises ``ValueError``."""

    j0: int = 0
    j_max: int = 8
    tol: float = 1e-5

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.j0 < 0:
            raise ValueError("j0 must be nonnegative")
        if self.j0 > self.j_max:
            raise ValueError(f"j0 {self.j0} must not exceed refine.j_max "
                             f"{self.j_max}")


def _memo_last(fn: Callable) -> Callable:
    """``fn`` recomputed only when an argument is not the object of the
    previous call.

    For values computed from frozen inputs that a solver hands in again and
    again: the parameter of one solve, the midpoint at which
    ``backward_transport`` evaluates both growth and divergence, the
    cached midpoints of every constant-speed transport of one step length
    (``renewal._constant_speed_transport``, which ``ibvp_solve`` runs), or
    the cohort that one ODE solve hands to every RK4 stage.  The memo holds
    the previous arguments, so their ids cannot be reused, and it keeps
    them and the result alive until the next miss.  So it must not be
    keyed on a large grid function such as the 200x200 prey density: it
    would keep the last density, its cached centres and the result alive
    (about 1 MB with its centres) and raise the peak memory.  The
    epidemic's 1,600-cell cohort holds about 13 KB.
    """
    last_args, last = (), None

    def memo(*args):
        nonlocal last_args, last
        if len(args) != len(last_args) or not all(
                map(operator.is_, args, last_args)):
            last_args, last = args, fn(*args)
        return last

    return memo


def _macro_count(horizon: float, macro: float) -> int:
    """Number of macro steps; the horizon must be a multiple of the step."""
    n_macro = int(round(horizon / macro))
    if (n_macro < 1
            or abs(n_macro * macro - horizon) > 1e-9 * max(1.0, horizon)):
        raise ConfigError("time.horizon must be a multiple of time.macro_step")
    return n_macro


def _fit_radius(envelope: Callable[[float], tuple[float, float, float]],
                norms: tuple[float, float, float]) -> float:
    """Smallest doubling radius whose envelope admits the datum's norms.

    ``envelope(radius)`` returns the bounds ``(alpha_1, alpha_inf,
    alpha_tv)`` at the start time, or raises ``InadmissibleHorizon``;
    ``norms`` are the datum's matching ``(L1, sup, variation)`` measures.
    """
    radius = max(max(norms), 1e-6) * 2.0
    for _ in range(60):
        try:
            if all(n <= b for n, b in zip(norms, envelope(radius))):
                return radius
        except InadmissibleHorizon:
            pass
        radius *= 2.0
    raise InadmissibleHorizon(
        "no admissible radius: horizon too long for the coefficient bounds")


def _run_coupled(build: Callable[[float], tuple[Process, Process]], state,
                 index: int,
                 bounds: Callable[[float, float, float],
                                  tuple[float, float, float]],
                 norms: Callable[[float, GridFunction],
                                 tuple[float, float, float]],
                 macro: float, horizon: float, schedule: RefineSchedule,
                 speed: float):
    """Run one coupled model over the refined macro steps of ``horizon``.

    ``state[index]`` is the grid field that one of the two processes
    transports; ``bounds(t, radius, horizon)`` is its invariant envelope
    (``ivp_domain_bounds`` or ``ibvp_domain_bounds``) and ``norms(t,
    field)`` the matching ``(L1, sup, variation)`` measures.  The driver
    fits the smallest doubling radius whose envelope admits the datum over
    one macro step and hands it to ``build(moduli_radius)``, which returns
    the two processes.  Sharp coefficients can make the envelope
    inadmissible at the macro length: the radius and margins are then NaN,
    and the moduli radius is ``2 max(norms, 1)``.

    Step ``k`` shifts both processes to ``[k macro, (k + 1) macro]`` and
    refines the coupled polygonal dyadically between the schedule's levels;
    its ``RefinementResult`` is the step's record.  Polygonal steps shorter
    than the crossing time ``dx / speed``, with ``dx`` the field's narrowest
    cell, make the cell lookup quantize the transport away, so ``j_max`` is
    clamped to the deepest level whose step still crosses a cell (no clamp
    when ``speed`` is 0), and ``j0`` to that ``j_max``.  Moduli that
    overflow a float, and a grid too fine for the cells one macro step
    crosses to be counted, are a ``ConfigError``.

    Returns the fitted radius, the times, the states, the field's columns
    ``l1, linf, tv``, ``alpha*_margin`` (end-of-step bound minus norm) and
    ``refine_gap`` (0 at the start), and the meta ``macro_step``,
    ``envelope``, ``j0``, ``j_max`` (as applied), ``macro_steps``,
    ``converged_steps`` and the last ``refine_gap``.
    """
    n_macro = _macro_count(horizon, macro)
    datum = norms(0.0, state[index])
    try:
        radius = _fit_radius(lambda r: bounds(0.0, r, macro), datum)
        moduli_radius, envelope = radius, "admissible"
        end_bounds = bounds(macro, radius, macro)
    except InadmissibleHorizon:
        radius, end_bounds = math.nan, (math.nan,) * 3
        moduli_radius = 2.0 * max(*datum, 1.0)
        envelope = "inadmissible-at-macro-length"
    try:
        proc_u, proc_w = build(moduli_radius)
    except OverflowError:
        # from math.exp of an exponent such as rate * macro_step, or
        # from ProcessConstants given a modulus that overflowed to inf
        raise ConfigError(
            f"the Lipschitz moduli of the coupled processes overflow over "
            f"time.macro_step {macro:g}: a params rate or amplitude, or "
            f"the step, is too large") from None

    j_max = schedule.j_max
    if speed > 0:
        dx = min(state[index].dx)
        crossed = macro * speed / dx  # grid cells one macro step crosses
        if not math.isfinite(crossed):
            raise ConfigError(
                f"time.macro_step {macro:g} crosses too many grid cells of "
                f"width {dx:.3g} to count at speed {speed:.3g}: the params "
                f"grid is too fine")
        j_max = min(j_max, max(0, int(math.floor(
            math.log2(max(crossed, 1.0)) + 1e-9))))
    j0 = min(schedule.j0, j_max)
    states, steps = [state], []
    for k in range(n_macro):
        t = k * macro
        flow = couple(
            replace(proc_u, interval=(t, t + macro)),
            replace(proc_w, interval=(t, t + macro)))
        steps.append(refine_to_process(flow, macro, t, states[-1],
                                       schedule.tol, j0, j_max))
        states.append(steps[-1].point)
    times = [k * macro for k in range(n_macro + 1)]

    fields = [s[index] for s in states]
    cols = {"l1": [f.l1() for f in fields],
            "linf": [f.linf() for f in fields],
            "tv": [f.tv() for f in fields]}
    for name, bound, col in zip(
            ("alpha1_margin", "alphainf_margin", "alphatv_margin"),
            end_bounds, zip(*map(norms, times, fields))):
        cols[name] = [bound - n for n in col]
    cols["refine_gap"] = [0.0] + [res.gap for res in steps]
    meta = {"macro_step": macro, "envelope": envelope, "j0": j0,
            "j_max": j_max, "macro_steps": n_macro,
            "converged_steps": sum(res.converged for res in steps),
            "refine_gap": cols["refine_gap"][-1]}
    return radius, times, states, cols, meta


__getattr__ = forwarder(__name__, {
    "Bump": "pursuit", "predator_prey_fields": "pursuit",
    "epidemic_cohort_reference": "epidemic"})
