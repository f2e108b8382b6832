"""Balance law on the half line with strict inflow at the origin.

Solves ``du/dt + d/dx(v(t,x) u) = m(t,x,w) u + q(t,x,w)`` for ``x >= 0``
with boundary trace ``u(t, 0) = b(t)``.  The balance law is the renewal
problem's, so its coefficients are a ``RenewalCoefficients``; the boundary
datum and its certificates are an ``InflowBoundary``.  The speed does not
depend on the parameter: a callable ``velocity(t, x, w)`` must not read
``w``.  The explicit solution splits at the curve traced by the
characteristic leaving the origin at the start time: to its right the
interior representation applies (datum carried backward along
characteristics), to its left the state is seeded by the boundary series at
the crossing time.  The speed lies in ``[speed_min, v_sup]`` with
``speed_min > 0``, so every backward characteristic from the left region
reaches the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InadmissibleHorizon, NoCrossing,
                     SupportClearanceViolated, UndefinedBoundaryDatum)
from .metric import Process, ProcessConstants
from .ode import _rk4
from .renewal import (RenewalCoefficients, _constant_speed_transport,
                      backward_transport, characteristic)
from .spaces import BvTimeSeries, GridFunction, l1_distance


@dataclass(frozen=True)
class InflowBoundary:
    """The boundary datum of the inflow problem with its certificates.

    ``series`` is the left-continuous boundary series ``b``; ``speed_min >
    0`` bounds the transport speed from below, so every backward
    characteristic left of the origin curve reaches the boundary;
    ``b_l1`` bounds the L1 norm of ``b`` over the horizon and ``b_sup_tv``
    its ``sup + TV``.
    """

    series: BvTimeSeries
    speed_min: float
    b_l1: float = 0.0
    b_sup_tv: float = 0.0


def boundary_crossing_time(velocity, t: float, x, t0: float,
                           n_sub: int = 10) -> np.ndarray:
    """Time at which the backward characteristic through ``(t, x)`` hits 0.

    For a callable speed ``velocity(t, x, w)``, which must not read the
    parameter ``w``, integrates ``dt/dx = 1 / velocity`` from ``x`` down to
    the boundary (``n_sub`` RK4 steps in the space variable, vectorized over
    points); for a constant speed ``c`` (a number) the crossing is the
    closed form ``t - x / c``.  Raises ``NoCrossing`` when the crossing
    happens before ``t0`` beyond a small consistency tolerance, which means
    the caller should have used the interior branch.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        xs = xs.reshape(1)
    if callable(velocity):
        tau = np.full(xs.shape, float(t))
        h = -xs / n_sub
        pos = xs.copy()
        # dt/dx at position p and time s; the space variable is the RK4 clock
        rhs = lambda p, s: 1.0 / np.asarray(
            velocity(s, np.maximum(p, 0.0), None), dtype=float)
        for _ in range(n_sub):
            tau = _rk4(rhs, pos, tau, h)
            pos = pos + h
    else:
        tau = t - xs / velocity
    tol = 1e-9 * max(1.0, t - t0)
    if (tau < t0 - tol).any():
        raise NoCrossing("backward characteristic exits through the initial "
                         "time; use the interior branch")
    return np.minimum(np.maximum(tau, t0), t)


def ibvp_solve(coef: RenewalCoefficients, inflow: InflowBoundary,
               u0: GridFunction, w, t0: float, tau: float, n_sub: int = 10,
               outflow_edge: bool = False) -> GridFunction:
    """Advance the datum from ``t0`` over ``tau`` with the parameter frozen,
    filling from the boundary.

    Every cell is integrated back to its own end time: ``t0`` for cells
    right of the origin characteristic, the boundary crossing time for
    cells left of it.  Cells are classified by their centers; the
    straddling cell takes its center's branch (the exact solution may
    genuinely jump there).  A boundary cell is seeded by the inflow series
    at its crossing time instead of the datum at its foot.  All cells are
    carried in one pass: by ``backward_transport`` for a callable speed,
    by the renewal module's ``_constant_speed_transport``, with the inflow
    cells as its prefix, for a constant one.  Either way the interior
    cells reproduce the free problem bit for bit.

    With ``outflow_edge`` the grid's right edge is a true model boundary
    with free outflow (mass crossing it is meant to leave), so no clearance
    is required there; otherwise the datum must keep ``v_sup * tau``
    clearance from the truncation edge.  Requires ``0 < speed_min <=
    v_sup``, and a constant speed in ``[speed_min, v_sup]``.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if u0.dim != 1:
        raise ValueError("half-line problem is one-dimensional")
    if inflow.speed_min <= 0:
        raise ValueError("speed_min must be strictly positive (inflow)")
    if coef.v_sup < inflow.speed_min:
        raise ValueError("v_sup must be >= speed_min")
    if (not callable(coef.velocity)
            and not inflow.speed_min <= coef.velocity <= coef.v_sup):
        raise ValueError(f"constant speed {coef.velocity} lies outside "
                         f"[speed_min, v_sup]")
    if inflow.series is None:
        raise UndefinedBoundaryDatum("boundary series is missing")
    if not outflow_edge:
        needed = coef.v_sup * tau
        clear_right = _right_clearance(u0)
        if clear_right < needed - 1e-12:
            raise SupportClearanceViolated(
                f"right-edge clearance {clear_right:.3g} below required "
                f"{needed:.3g}")
    if tau == 0:
        return u0

    t = t0 + tau
    sigma = float(characteristic(coef.velocity, t0, np.array([0.0]), t, w,
                                 n_sub=n_sub)[0])
    centers = u0.centers()
    # the centres ascend, so the cells left of sigma are a prefix
    n_bdy = int(centers.searchsorted(sigma))
    t_in = boundary_crossing_time(coef.velocity, t, centers[:n_bdy], t0,
                                  n_sub=n_sub)
    seeds = inflow.series(t_in)
    if not callable(coef.velocity):
        return _constant_speed_transport(coef, u0, w, t0, tau, n_sub, t_in,
                                         seeds)
    t_lo = np.full(centers.shape[0], float(t0))
    t_lo[:n_bdy] = t_in
    foot, factor, src = backward_transport(coef, w, t, t_lo, centers, n_sub,
                                           u0.dx)
    seed = u0.lookup(foot, outside="zero")
    seed[:n_bdy] = seeds
    return u0.with_values(seed * factor + src)


def _right_clearance(u: GridFunction) -> float:
    nz = np.nonzero(u.values)[0]
    if nz.size == 0:
        return math.inf
    return (u.values.shape[0] - 1 - int(nz.max())) * u.dx[0]


# --------------------------------------------------------------------------
# Invariant domain and process moduli
# --------------------------------------------------------------------------

def ibvp_domain_bounds(t: float, radius: float, horizon: float,
                       coef: RenewalCoefficients, inflow: InflowBoundary
                       ) -> tuple[float, float, float]:
    """Envelope (alpha_1, alpha_inf, alpha_tv) of the invariant domain at t.

    The variation component also controls the boundary mismatch
    ``TV(u) + |b(t) - u(0+)|`` (see ``_envelope_norms``) and subtracts the
    remaining variation of the boundary series on ``[t, horizon]``.
    """
    if not 0 <= t <= horizon * (1 + 1e-12):
        raise ValueError("t must lie in [0, horizon]")
    m = coef.m_sup_tv
    vl = coef.v_lip
    qi, q1 = coef.q_sup_tv, coef.q_l1
    b_sup = inflow.b_sup_tv
    rem = horizon - t
    a1 = (radius * math.exp(-m * rem)
          - (coef.v_sup * b_sup + q1) * rem * math.exp(m * t))
    ai = radius * math.exp(-m * rem) - qi * rem
    atv = (radius * (1.0 - (m + vl) * rem) * math.exp((m + vl) * rem)
           - 2.0 * qi * (1.0 + (m + vl) * t) * rem * math.exp((m + vl) * t)
           - b_sup * (m + vl) * rem * math.exp((m + vl) * t)
           - inflow.series.tv(t, horizon) * math.exp((m + vl) * t))
    if min(a1, ai, atv) <= 0:
        raise InadmissibleHorizon(
            f"domain envelope non-positive at t={t}: "
            f"({a1:.3g}, {ai:.3g}, {atv:.3g})")
    return a1, ai, atv


def _envelope_norms(inflow: InflowBoundary, t: float, u: GridFunction
                    ) -> tuple[float, float, float]:
    """The norms ``(L1, sup, TV + |b(t) - u(0+)|)`` bounded by the envelope."""
    trace_gap = abs(float(inflow.series(t)) - float(u.values[0]))
    return u.l1(), u.linf(), u.tv() + trace_gap


def ibvp_lipschitz_constants(coef: RenewalCoefficients,
                             inflow: InflowBoundary, horizon: float,
                             radius: float) -> ProcessConstants:
    """Process moduli (data, time, parameter) over ``horizon``."""
    m, vl = coef.m_sup_tv, coef.v_lip
    vmax = coef.v_sup
    c_t = ((vmax * (inflow.b_l1 + 2 * radius + radius * (m + vl) * horizon)
            + m * radius + coef.q_l1) * math.exp(m * horizon))
    c_w = ((inflow.b_sup_tv * coef.m_param_lip
            + vmax * coef.q_param_lip
            + 0.5 * vmax * coef.q_sup_tv * coef.m_param_lip * horizon
            + coef.m_param_lip * radius
            + coef.q_param_lip
            + 0.5 * coef.m_param_lip * coef.q_sup_tv * horizon)
           * math.exp(m * horizon))
    return ProcessConstants(c_u=m, c_t=c_t, c_w=c_w, horizon=horizon)


def make_ibvp_process(coef: RenewalCoefficients, inflow: InflowBoundary,
                      radius: float, horizon: float,
                      n_sub_per_unit: float) -> Process:
    """Wrap the solver as a process handle; ``radius`` sizes its moduli.

    The grid's right edge is an outflow boundary (``ibvp_solve``'s
    ``outflow_edge``): mass crossing it leaves the model."""

    def solve(t0, tau, u, w):
        n = max(2, int(math.ceil(tau * n_sub_per_unit - 1e-12)))
        return ibvp_solve(coef, inflow, u, w, t0, tau, n_sub=n,
                          outflow_edge=True)

    return Process(solve=solve,
                   constants=ibvp_lipschitz_constants(coef, inflow, horizon,
                                                      radius),
                   distance=l1_distance)
