"""Parametrized ODE process: fixed-step RK4 on certified invariant balls.

The right-hand side ``f(t, u, w)`` carries user-supplied certificates (joint
Lipschitz constant, sup bound, ball radius); the solver never infers them.
The process is Lipschitz in data with rate ``exp(lip * (t - t0))``, in time
with constant ``sup``, and in the frozen parameter with constant
``lip * exp(lip * horizon)``; its invariant domain at time ``t`` is the ball
of radius ``radius - (horizon - t) * sup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainExit, HorizonExceeded, NegativeRadius
from .metric import EuclideanSpace, Process, ProcessConstants


@dataclass(frozen=True)
class OdeField:
    """Right-hand side with certified bounds on a closed ball.

    ``f(t, u, w) -> du/dt`` for ``u`` in the ball of radius ``radius``;
    ``lip`` bounds the joint (u, w)-Lipschitz modulus, ``sup`` the norm of f.
    """

    f: Callable[[float, np.ndarray, Any], np.ndarray]
    lip: float
    sup: float
    radius: float

    def audit(self, rng: np.random.Generator, n: int = 64, dim: int = 1,
              params: tuple = (0.0,),
              param_distance: Callable[[Any, Any], float] | None = None,
              t_range: tuple[float, float] = (0.0, 1.0)) -> float:
        """Randomized certificate audit; returns the worst violation (<= 0 ok).

        Samples state pairs inside the ball and parameter pairs from
        ``params``, then measures the sup bound and the joint Lipschitz
        quotient against the certificates.  An audit is evidence, not proof.
        """
        if param_distance is None:
            param_distance = lambda a, b: abs(float(a) - float(b))
        params = tuple(params)
        worst = -math.inf
        for _ in range(n):
            t = rng.uniform(*t_range)
            u1 = rng.uniform(-1, 1, dim)
            u2 = rng.uniform(-1, 1, dim)
            scale = self.radius / max(1.0, float(np.linalg.norm(u1)),
                                      float(np.linalg.norm(u2)))
            u1, u2 = u1 * scale, u2 * scale
            w1 = params[rng.integers(len(params))]
            w2 = params[rng.integers(len(params))]
            f1 = np.asarray(self.f(t, u1, w1), dtype=float)
            f2 = np.asarray(self.f(t, u2, w2), dtype=float)
            worst = max(worst, float(np.linalg.norm(f1)) - self.sup)
            gap = float(np.linalg.norm(u1 - u2)) + param_distance(w1, w2)
            if gap > 1e-12:
                quotient = float(np.linalg.norm(f1 - f2)) / gap
                worst = max(worst, quotient - self.lip)
        return worst


def _rk4(f: Callable[[float, np.ndarray], np.ndarray], t: float,
         u: np.ndarray, h: float, t_first: float | None = None
         ) -> np.ndarray:
    """One classical RK4 step from ``t``; the first stage reads ``f`` at
    ``t_first`` when given (``ode_solve`` passes the right limit of ``t``)."""
    k1 = f(t if t_first is None else t_first, u)
    k2 = f(t + 0.5 * h, u + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, u + 0.5 * h * k2)
    k4 = f(t + h, u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _leaves_ball(u: np.ndarray, reach: float) -> bool:
    """Whether ``|u| <= reach`` fails, as it does for a NaN norm.

    ``sqrt(v.dot(v))`` of the flattened state is what ``np.linalg.norm``
    computes, bit for bit.
    """
    flat = u if u.ndim == 1 else u.ravel()
    return not math.sqrt(flat.dot(flat)) <= reach


def ode_solve(field: OdeField, t0: float, t: float, u0, w,
              n_sub: int = 16, horizon: float | None = None) -> np.ndarray:
    """Classical fixed-step RK4 with the parameter held frozen.

    Each substep ``[t_k, t_k + h]`` reads the field from inside itself: the
    first stage at the right limit ``nextafter(t_k, inf)``, the last at
    ``t_k + h``, which a left-continuous forcing reads as the left limit.  A
    forcing that jumps at ``t_k`` therefore enters the substep with its
    value after the jump, as the exact (Caratheodory) solution does.  The
    ball constraint is checked at substep boundaries only; a state whose
    norm is not finite (a NaN or infinite entry) has left the ball.
    """
    if t < t0:
        raise ValueError("t must be >= t0")
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    if horizon is not None and t - t0 > horizon * (1 + 1e-12):
        raise HorizonExceeded(f"t - t0 = {t - t0} exceeds horizon {horizon}")
    u = np.array(u0, dtype=float, ndmin=1)
    reach = field.radius * (1 + 1e-12)
    if _leaves_ball(u, reach):
        raise DomainExit("initial state outside ball", step=0, time=t0)
    if t == t0:
        return u
    h = (t - t0) / n_sub
    f = field.f
    rhs = lambda s, v: np.asarray(f(s, v, w), dtype=float)
    for k in range(n_sub):
        t_k = t0 + k * h
        u = _rk4(rhs, t_k, u, h, math.nextafter(t_k, math.inf))
        if _leaves_ball(u, reach):
            raise DomainExit(f"state left ball at substep {k + 1}",
                             step=k + 1, time=t0 + (k + 1) * h)
    return u


def ode_domain_radius(t: float, horizon: float, radius: float,
                      sup: float) -> float:
    """Invariant-ball radius at time ``t``: radius - (horizon - t) * sup.

    Requires ``horizon <= radius / (2 sup)`` so the ball never degenerates.
    """
    if not 0 <= t <= horizon * (1 + 1e-12):
        raise ValueError("t must lie in [0, horizon]")
    if sup > 0 and horizon > radius / (2.0 * sup) * (1 + 1e-12):
        raise NegativeRadius(
            f"horizon {horizon} exceeds radius/(2*sup) = {radius / (2 * sup)}")
    return radius - (horizon - t) * sup


def ode_constants(field: OdeField, horizon: float) -> ProcessConstants:
    """Process moduli: (lip, sup, lip * e^(lip * horizon)) over ``horizon``."""
    return ProcessConstants(
        c_u=field.lip,
        c_t=field.sup,
        c_w=field.lip * math.exp(field.lip * horizon),
        horizon=horizon,
    )


def make_ode_process(field: OdeField, horizon: float,
                     steps_per_unit: float) -> Process:
    """Wrap the RK4 solver as a process handle.

    ``ode_solve`` raises ``DomainExit`` when a substep leaves the ball.
    """

    def solve(t, t0, x, w):
        n = max(1, int(math.ceil((t - t0) * steps_per_unit - 1e-12)))
        return ode_solve(field, t0, t, x, w, n_sub=n, horizon=horizon)

    return Process(solve=solve, constants=ode_constants(field, horizon),
                   space=EuclideanSpace(), interval=(0.0, horizon))
