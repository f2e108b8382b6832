"""Local flows and global processes on metric spaces, and their coupling.

A *local flow* is a short-time solution-like map ``F(tau, t0) x`` with
``F(0, t0) x = x``; a *global process* is a two-time solution operator
``P(t, t0) x`` satisfying identity and the semigroup law.
Two parametrized processes are coupled into one local flow on the product
space by freezing each component's parameter at the step's start time; Euler
polygonals of that flow converge (as the step goes to zero) to the process
solving the coupled problem, with explicit stability and tangency bounds
driven by the three Lipschitz moduli of the component processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainExit, HorizonExceeded, StepTooLarge
from .spaces import GridFunction, l1_distance


# --------------------------------------------------------------------------
# Metric spaces
# --------------------------------------------------------------------------

class MetricSpace:
    """Minimal metric-space interface: a distance between two states."""

    def distance(self, a, b) -> float:
        raise NotImplementedError


class EuclideanSpace(MetricSpace):
    """R^n with the Euclidean norm; states are floats or arrays."""

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(np.asarray(a, dtype=float)
                                    - np.asarray(b, dtype=float)))


class GridFunctionSpace(MetricSpace):
    """L1 distance between grid functions on a shared grid."""

    def distance(self, a: GridFunction, b: GridFunction) -> float:
        return l1_distance(a, b)


class ProductSpace(MetricSpace):
    """Product of two spaces with the sum distance d = d_U + d_W."""

    def __init__(self, first: MetricSpace, second: MetricSpace):
        self.first = first
        self.second = second

    def distance(self, a, b) -> float:
        return (self.first.distance(a[0], b[0])
                + self.second.distance(a[1], b[1]))


# --------------------------------------------------------------------------
# Handles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessConstants:
    """Lipschitz moduli of a parametrized process and its horizon.

    ``c_u`` bounds dependence on data (rate ``exp(c_u (t - t0))``), ``c_t``
    dependence on time, ``c_w`` dependence on the frozen parameter; all over
    the horizon ``[0, horizon]``.  A modulus that is not finite raises
    ``OverflowError``, a negative one ``ValueError``.
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

    ``evaluate(tau, t0, x)`` advances ``x`` from ``t0`` by ``tau``, with
    ``tau <= delta``; ``evaluate(0, t0, x)`` must return ``x`` unchanged.
    ``interval`` is the time horizon on which the flow is defined.
    """

    evaluate: Callable[[float, float, Any], Any]
    delta: float
    space: MetricSpace
    interval: tuple[float, float] = (0.0, math.inf)


@dataclass(frozen=True)
class Process:
    """Global process handle, parametrized by a frozen external state.

    ``solve(t, t0, x, param)`` returns the state at ``t`` of the evolution
    started from ``x`` at ``t0`` with the parameter held fixed.
    """

    solve: Callable[[float, float, Any, Any], Any]
    constants: ProcessConstants
    space: MetricSpace
    interval: tuple[float, float] | None = None

    def time_interval(self) -> tuple[float, float]:
        if self.interval is not None:
            return self.interval
        return (0.0, self.constants.horizon)


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
    lo, hi = flow.interval
    if t0 < lo - 1e-12 or t0 + tau > hi + 1e-12:
        raise HorizonExceeded(
            f"[{t0}, {t0 + tau}] outside flow horizon [{lo}, {hi}]")
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
class RefinementResult:
    """Outcome of a dyadic polygonal refinement."""

    point: Any
    gap: float
    converged: bool
    level: int


def refine_to_process(flow: LocalFlow, tau: float, t0: float, x,
                      tol: float, j0: int = 0, j_max: int = 20
                      ) -> RefinementResult:
    """Approximate the limit process by dyadic halving of the polygonal step.

    Evaluates polygonals at ``eps_j = tau / 2**j`` for ``j = j0, j0+1, ...``
    and stops when the distance between successive results drops below
    ``tol`` (or at ``j_max``, returning the best iterate with
    ``converged=False``).  An infinite ``tol`` degenerates to the coarsest
    polygonal, with gap ``inf`` and ``converged=False``: no two levels were
    compared.  The schedule is deterministic; ``j0`` must not exceed
    ``j_max``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if j0 > j_max:
        raise ValueError(f"j0 {j0} exceeds j_max {j_max}")
    if tau == 0.0:
        return RefinementResult(x, 0.0, True, j0)
    prev = euler_polygonal(flow, tau, t0, x, tau / 2.0 ** j0)
    if math.isinf(tol):
        return RefinementResult(prev, math.inf, False, j0)
    gap = math.inf
    for j in range(j0 + 1, j_max + 1):
        cur = euler_polygonal(flow, tau, t0, x, tau / 2.0 ** j)
        gap = flow.space.distance(prev, cur)
        if gap < tol:
            return RefinementResult(cur, gap, True, j)
        prev = cur
    return RefinementResult(prev, gap, False, j_max)


# --------------------------------------------------------------------------
# Coupling two processes
# --------------------------------------------------------------------------

def couple(process_u: Process, process_w: Process) -> LocalFlow:
    """Pair two parametrized processes into a local flow on the product.

    ``process_u`` evolves the first component with the second frozen as its
    parameter, and vice versa: one step of the returned flow is
    ``(tau, t0, (u, w)) -> (P_u(t0+tau, t0; w) u, P_w(t0+tau, t0; u) w)``.
    Domain exits are re-raised tagged with the failing component.
    """
    lo = max(process_u.time_interval()[0], process_w.time_interval()[0])
    hi = min(process_u.time_interval()[1], process_w.time_interval()[1])
    if hi <= lo:
        raise ValueError("processes share no horizon interval")

    def evaluate(tau, t0, state):
        u, w = state
        try:
            u_next = process_u.solve(t0 + tau, t0, u, w)
        except DomainExit as exc:
            raise DomainExit(str(exc), step=exc.step, time=exc.time,
                             component="u") from exc
        try:
            w_next = process_w.solve(t0 + tau, t0, w, u)
        except DomainExit as exc:
            raise DomainExit(str(exc), step=exc.step, time=exc.time,
                             component="w") from exc
        return (u_next, w_next)

    return LocalFlow(
        evaluate=evaluate,
        delta=hi - lo,
        space=ProductSpace(process_u.space, process_w.space),
        interval=(lo, hi),
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
