"""Scalar 1D conservation law with parametrized flux: exact-Riemann Godunov.

The numerical flux is the exact scalar Godunov flux (interval extremum of
the flux function, searched over the endpoints and the supplied critical
points), which is consistent and monotone and therefore selects entropy
solutions.  The update is the explicit finite-volume step under a CFL
restriction; the last step is shortened to land exactly on the target time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ClearanceViolated
from .metric import ProcessConstants
from .spaces import GridFunction


@dataclass(frozen=True)
class ParamFlux:
    """Flux ``f(u, w)`` with a Lipschitz certificate and critical points.

    ``critical_points`` is a caller certificate: it must list every interior
    extremum of ``u -> f(u, w)`` (empty for monotone fluxes), because the
    Godunov flux searches only those points and the interval endpoints.
    """

    f: Callable[[np.ndarray, Any], np.ndarray]
    lip: float
    critical_points: tuple[float, ...] = ()

    def __call__(self, u, w):
        return np.asarray(self.f(np.asarray(u, dtype=float), w), dtype=float)


def audit_flux(flux: ParamFlux, lo: float, hi: float, w,
               rng: np.random.Generator, n: int = 64) -> float:
    """Sampled Lipschitz-quotient audit (worst violation, <= 0 ok)."""
    worst = -math.inf
    for _ in range(n):
        u1, u2 = rng.uniform(lo, hi, 2)
        if abs(u1 - u2) < 1e-12:
            continue
        quotient = abs(float(flux(np.array([u1]), w)[0])
                       - float(flux(np.array([u2]), w)[0])) / abs(u1 - u2)
        worst = max(worst, quotient - flux.lip)
    return worst


def godunov_flux(flux: ParamFlux, u_left, u_right, w) -> np.ndarray:
    """Exact scalar Godunov flux, vectorized over interface states.

    ``min f`` over ``[u_left, u_right]`` when ``u_left <= u_right``, else
    ``max f`` over ``[u_right, u_left]``; extrema searched over the interval
    endpoints plus the supplied critical points.
    """
    ul = np.atleast_1d(np.asarray(u_left, dtype=float))
    ur = np.atleast_1d(np.asarray(u_right, dtype=float))
    fl = flux(ul, w)
    fr = flux(ur, w)
    vmin = np.minimum(fl, fr)
    vmax = np.maximum(fl, fr)
    lo = np.minimum(ul, ur)
    hi = np.maximum(ul, ur)
    for c in flux.critical_points:
        inside = (lo < c) & (c < hi)
        if np.any(inside):
            fc = float(flux(np.array([c]), w)[0])
            vmin = np.where(inside, np.minimum(vmin, fc), vmin)
            vmax = np.where(inside, np.maximum(vmax, fc), vmax)
    need_min = ul <= ur
    out = np.where(need_min, vmin, vmax)
    return out if np.ndim(u_left) else float(out[0])


def _edge_collar_constant(u: GridFunction, width: float) -> bool:
    """True when the datum is constant on both edge collars of ``width``."""
    vals = u.values
    n = vals.shape[0]
    k = min(n, int(math.ceil(width / u.dx[0])) + 1)
    if k <= 1:
        return True
    return (np.all(vals[:k] == vals[0]) and np.all(vals[-k:] == vals[-1]))


def claw_solve(flux: ParamFlux, u0: GridFunction, w, t0: float, t: float,
               cfl: float = 0.9) -> GridFunction:
    """Explicit Godunov evolution from ``t0`` to ``t`` with frozen parameter.

    Time step ``cfl * dx / lip``; requires the datum to be constant on edge
    collars of width ``lip * (t - t0)`` so the truncation boundary never
    influences the interior.
    """
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    if t < t0:
        raise ValueError("t must be >= t0")
    if u0.dim != 1:
        raise ValueError("scalar law is one-dimensional")
    span = flux.lip * (t - t0)
    if not _edge_collar_constant(u0, span):
        raise ClearanceViolated(
            f"datum not constant on edge collars of width {span:.3g}")
    u = u0.values.copy()
    if t == t0:
        return u0
    dx = u0.dx[0]
    dt_max = cfl * dx / flux.lip if flux.lip > 0 else (t - t0)
    now = t0
    while now < t - 1e-15 * max(1.0, abs(t)):
        dt = min(dt_max, t - now)
        padded = np.concatenate([u[:1], u, u[-1:]])
        f_iface = godunov_flux(flux, padded[:-1], padded[1:], w)
        u = u - (dt / dx) * (f_iface[1:] - f_iface[:-1])
        now += dt
    return u0.with_values(u)


def claw_constants(lip: float, radius: float, horizon: float = 1.0
                   ) -> ProcessConstants:
    """Process moduli of the entropy-solution process on the TV ball.

    Data dependence is a plain contraction (modulus zero); time and
    parameter moduli are both ``lip * radius``.
    """
    return ProcessConstants(c_u=0.0, c_t=lip * radius, c_w=lip * radius,
                            horizon=horizon)


def entropy_residuals(flux: ParamFlux, u_before: np.ndarray,
                      u_after: np.ndarray, k: float, dt: float, dx: float,
                      w) -> np.ndarray:
    """Per-cell entropy residuals of one Godunov step for the level ``k``.

    Uses the Godunov numerical entropy flux
    ``G(a, b) = F(a max k, b max k) - F(a min k, b min k)``; monotone schemes
    under CFL make every residual nonnegative up to roundoff.
    """
    ub = np.concatenate([u_before[:1], u_before, u_before[-1:]])
    g = (godunov_flux(flux, np.maximum(ub[:-1], k), np.maximum(ub[1:], k), w)
         - godunov_flux(flux, np.minimum(ub[:-1], k), np.minimum(ub[1:], k), w))
    return (np.abs(u_before - k) - np.abs(u_after - k)
            - (dt / dx) * (g[1:] - g[:-1]))
