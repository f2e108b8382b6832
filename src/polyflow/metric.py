"""Local flows and global processes on metric spaces, and their coupling.

A *local flow* is a short-time solution-like map ``F(tau, t0) x`` with
``F(0, t0) x = x``; a *global process* is a two-time solution operator
``P(t, t0) x`` satisfying identity and the semigroup law.
Two parametrized processes are coupled into one local flow on the product
space by freezing each component's parameter at the step's start time; Euler
polygonals of that flow converge (as the step goes to zero) to the process
solving the coupled problem, with explicit stability and tangency bounds
driven by the three Lipschitz moduli of the component processes.  A space
enters only through its distance function; the product's is the sum
``product_distance``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

from .errors import DomainExit, StepTooLarge


# --------------------------------------------------------------------------
# Distances
# --------------------------------------------------------------------------

def product_distance(first: Callable[[Any, Any], float],
                     second: Callable[[Any, Any], float]
                     ) -> Callable[[Any, Any], float]:
    """The sum distance ``d = d_U + d_W`` on pairs, from the two factors'."""

    def distance(a, b) -> float:
        return first(a[0], b[0]) + second(a[1], b[1])

    return distance


# --------------------------------------------------------------------------
# Handles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessConstants:
    """Lipschitz moduli of a parametrized process and its horizon.

    ``c_u`` bounds dependence on data (rate ``exp(c_u tau)`` over a step
    ``tau``), ``c_t`` dependence on time, ``c_w`` dependence on the frozen
    parameter; all for any step up to ``horizon`` long, from any start
    time.  A modulus that is not finite raises ``OverflowError``, a
    negative one ``ValueError``.
    """

    c_u: float
    c_t: float
    c_w: float
    horizon: float

    def __post_init__(self):
        for name in ("c_u", "c_t", "c_w"):
            v = getattr(self, name)
            if not math.isfinite(v):
                # the moduli grow like exp(rate * horizon), so a float
                # overflow is what makes one infinite or NaN
                raise OverflowError(f"{name} is not finite: {v}")
            if not v >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")


@dataclass(frozen=True)
class LocalFlow:
    """Short-time flow handle.

    ``evaluate(tau, t0, x)`` advances ``x`` from any start time ``t0`` by
    ``tau``, with ``tau <= delta``, the one bound on a step;
    ``evaluate(0, t0, x)`` must return ``x`` unchanged.  ``distance(a, b)``
    is the metric of the state space.
    """

    evaluate: Callable[[float, float, Any], Any]
    delta: float
    distance: Callable[[Any, Any], float]


@dataclass(frozen=True)
class Process:
    """Global process handle, parametrized by a frozen external state.

    ``solve(t0, tau, x, param)`` returns the state at ``t0 + tau`` of the
    evolution started from ``x`` at ``t0`` with the parameter held fixed;
    the step length comes exactly as the flow was handed it, and
    ``constants`` certify every step up to their ``horizon``.
    ``distance(a, b)`` is the metric of the state space.  The two handles
    of a ``couple`` pair may solve at the same time on two threads, so
    they must share no mutable state; the states they are handed are
    shared, and read only.
    """

    solve: Callable[[float, float, Any, Any], Any]
    constants: ProcessConstants
    distance: Callable[[Any, Any], float]


# --------------------------------------------------------------------------
# Euler polygonals
# --------------------------------------------------------------------------

def euler_polygonal(flow: LocalFlow, tau: float, t0: float, x,
                    eps: float):
    """Compose ``eps``-length steps of ``flow`` to advance by ``tau``.

    With ``k = floor(tau / eps)``, applies ``k`` full steps at times
    ``t0 + h*eps`` in increasing ``h`` and one final step of length
    ``tau - k*eps``; no reassociation, so results are reproducible bit for
    bit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if eps > flow.delta * (1 + 1e-12):
        raise StepTooLarge(f"eps={eps} exceeds flow step bound {flow.delta}")
    if tau == 0.0:
        return x
    k = int(math.floor(tau / eps))
    for h in range(k):
        x = flow.evaluate(eps, t0 + h * eps, x)
    rem = tau - k * eps
    if rem > 0.0:
        x = flow.evaluate(rem, t0 + k * eps, x)
    return x


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


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of a dyadic polygonal refinement."""

    point: Any
    gap: float
    converged: bool
    level: int


def refine_to_process(flow: LocalFlow, tau: float, t0: float, x,
                      schedule: RefineSchedule) -> RefinementResult:
    """Approximate the limit process by dyadic halving of the polygonal step.

    Evaluates polygonals at ``eps_j = tau / 2**j`` for ``j = j0, j0+1, ...``
    of ``schedule`` and stops when the distance between successive results
    drops below its ``tol`` (or at its ``j_max``, returning the best iterate
    with ``converged=False``).  An infinite ``tol`` degenerates to the
    coarsest polygonal, with gap ``inf`` and ``converged=False``: no two
    levels were compared.  The schedule is deterministic, and its rules
    were checked when it was built.
    """
    j0, j_max, tol = schedule.j0, schedule.j_max, schedule.tol
    if tau == 0.0:
        return RefinementResult(x, 0.0, True, j0)
    prev = euler_polygonal(flow, tau, t0, x, tau / 2.0 ** j0)
    if math.isinf(tol):
        return RefinementResult(prev, math.inf, False, j0)
    gap = math.inf
    for j in range(j0 + 1, j_max + 1):
        cur = euler_polygonal(flow, tau, t0, x, tau / 2.0 ** j)
        gap = flow.distance(prev, cur)
        if gap < tol:
            return RefinementResult(cur, gap, True, j)
        prev = cur
    return RefinementResult(prev, gap, False, j_max)


# --------------------------------------------------------------------------
# Coupling two processes
# --------------------------------------------------------------------------

# a grid of at least this many cells in a step's state makes the step
# overlap its two solves: below it, handing the interpreter lock between the
# threads costs more than the NumPy calls it hides (warm 2D pursuit runs on
# a 2-vCPU x86-64 host: 100x100 cells slower by a fifth, 150x150 even,
# 200x200 faster by about a quarter)
_OVERLAP_CELLS = 2 ** 15


def _overlaps(u, w) -> bool:
    """Whether a coupled step from ``(u, w)`` runs its two solves at once.

    It does when a grid function in the state (a component with a
    ``values`` array) holds at least ``_OVERLAP_CELLS`` cells, the process
    may run on two CPUs, and the step runs on the main thread, so the one
    worker serves one caller and a solve on the worker never waits for it.
    """
    if max(getattr(getattr(u, "values", None), "size", 0),
           getattr(getattr(w, "values", None), "size", 0)) < _OVERLAP_CELLS:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    import threading
    return cpus >= 2 and threading.current_thread() is threading.main_thread()


@functools.cache
def _worker(pid: int):
    """The one thread that runs the second solve of an overlapped step,
    made on the first such step of process ``pid`` (a forked child makes
    its own)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1)


def couple(process_u: Process, process_w: Process) -> LocalFlow:
    """Pair two parametrized processes into a local flow on the product.

    ``process_u`` evolves the first component with the second frozen as its
    parameter, and vice versa: one step of the returned flow is
    ``(tau, t0, (u, w)) -> (P_u(t0, tau; w) u, P_w(t0, tau; u) w)``.  Its
    step bound ``delta`` is the shorter of the two horizons, the one bound
    on its steps, so one flow serves every step of a run; its distance is
    ``product_distance`` of the two processes' distances.  Domain exits
    are re-raised tagged with the failing component.

    Both solves read only the step's start state, so a step whose state
    holds a large grid (see ``_overlaps``) runs the ``w`` solve on a
    worker thread while the ``u`` solve runs on the caller's: the two
    handles must share no mutable state.  Each solve does the same
    arithmetic on the same inputs either way, so the step's result is the
    same bit for bit.  The step returns or raises only once both solves
    have ended, and raises what the sequential order would: the ``u``
    solve's exception if it raised one, else the ``w`` solve's.
    """

    def evaluate(tau, t0, state):
        u, w = state
        pending = (_worker(os.getpid()).submit(process_w.solve, t0, tau, w, u)
                   if _overlaps(u, w) else None)
        try:
            u_next = process_u.solve(t0, tau, u, w)
        except DomainExit as exc:
            raise DomainExit(str(exc), step=exc.step, time=exc.time,
                             component="u") from exc
        finally:
            if pending is not None:
                pending.exception()  # waits for the w solve to end
        try:
            w_next = (process_w.solve(t0, tau, w, u) if pending is None
                      else pending.result())
        except DomainExit as exc:
            raise DomainExit(str(exc), step=exc.step, time=exc.time,
                             component="w") from exc
        return (u_next, w_next)

    return LocalFlow(
        evaluate=evaluate,
        delta=min(process_u.constants.horizon, process_w.constants.horizon),
        distance=product_distance(process_u.distance, process_w.distance),
    )


# --------------------------------------------------------------------------
# Stability / tangency bound bookkeeping
# --------------------------------------------------------------------------

def merge_constants(c1: ProcessConstants, c2: ProcessConstants
                    ) -> ProcessConstants:
    """Component-wise maximum; a shared constant set valid for both."""
    return ProcessConstants(
        c_u=max(c1.c_u, c2.c_u),
        c_t=max(c1.c_t, c2.c_t),
        c_w=max(c1.c_w, c2.c_w),
        horizon=max(c1.horizon, c2.horizon),
    )


@dataclass(frozen=True)
class CouplingBounds:
    """Closed-form bounds for a coupled flow built from shared constants.

    ``stability`` bounds the data-to-data amplification of every polygonal;
    ``omega_coeff`` is the slope of the one-step commutation modulus
    ``omega(tau) = omega_coeff * tau``.
    """

    constants: ProcessConstants
    stability: float       # exp((c_u + c_w) * horizon)
    omega_coeff: float     # c_t * c_u

    def omega(self, tau: float) -> float:
        return self.omega_coeff * tau

    def stability_factor(self, tau: float) -> float:
        return math.exp((self.constants.c_u + self.constants.c_w) * tau)

    def tangency_rhs(self, tau: float) -> float:
        """Bound on d(limit process, one flow step) / tau.

        The commutation modulus integrates in closed form:
        (2 L / ln 2) * int_0^tau omega(s)/s ds = (2 L / ln 2) * coeff * tau.
        """
        return (2.0 * self.stability / math.log(2.0)) * self.omega_coeff * tau

    def tangency_distance_rhs(self, tau: float) -> float:
        """Bound on the raw distance d(limit process, one flow step)."""
        return tau * self.tangency_rhs(tau)


def coupling_bounds(c1: ProcessConstants, c2: ProcessConstants
                    ) -> CouplingBounds:
    """Stability/tangency bounds for the coupling of two processes."""
    c = merge_constants(c1, c2)
    return CouplingBounds(
        constants=c,
        stability=math.exp((c.c_u + c.c_w) * c.horizon),
        omega_coeff=c.c_t * c.c_u,
    )
