"""Linear continuity equation with growth and source, solved on characteristics.

Solves ``du/dt + div(v(t,x,w) u) = m(t,x,w) u + q(t,x,w)`` on a truncated
grid (1D or 2D) by evaluating the exact representation formula per cell: the
datum is carried along the backward characteristic and multiplied by the
exponential of the accumulated ``m - div v``, plus the matching source
convolution.  Discretization error enters only through characteristic
integration (RK4, exact for a constant velocity), midpoint quadrature, and the
piecewise-constant lookup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import InadmissibleHorizon, SupportClearanceViolated
from .metric import Process, ProcessConstants
from .ode import _rk4
from .spaces import GridFunction, l1_distance


@dataclass(frozen=True)
class RenewalCoefficients:
    """Coefficient fields with certified bounds.

    The callables must be elementwise-vectorized: ``velocity(t, x, w)``
    returns an array shaped like ``x`` (1D positions ``(n,)`` or 2D points
    ``(n, 2)``); ``growth``, ``source`` and ``divergence`` return ``(n,)``.
    ``t`` may be a scalar or an ``(n,)`` array.  ``source`` is optional:
    ``None`` means no source term, and the solvers then skip its
    convolution (whose zero integral they still add, so the bytes are those
    of an explicit zero source).  A callable velocity comes
    with its ``divergence(t, x, w)``, the ``div v`` of the ``m - div v``
    exponent.  In 1D ``velocity`` may instead be a number ``c``: a constant
    speed, whose characteristics are the closed-form translations
    ``x + (t - t_bar) c``, whose divergence is zero and which takes no
    ``divergence``.  The same type describes the inflow problem of
    ``polyflow.ibvp`` (with an ``InflowBoundary``).

    ``support(w)``, optional with a callable velocity, returns ``(centre,
    radius)``: velocity, growth, divergence and source vanish at every
    ``t`` on the points at distance ``>= radius`` from ``centre`` under the
    frozen parameter ``w``.  ``renewal_solve`` then transports only the
    cells inside that ball; every other cell keeps its value.

    Certificates (never inferred, optionally audited): ``v_sup`` bounds
    ``|v|``, ``v_lip`` bounds the space gradient and the parameter modulus of
    v, ``v_div_lip`` the L1 norm of the divergence gradient; ``m_sup_tv``
    bounds ``|m| + TV(m)``, ``q_sup_tv`` bounds ``|q| + TV(q)``, ``q_l1`` the
    L1 norm of q; ``m_param_lip`` / ``q_param_lip`` the parameter moduli.
    """

    velocity: Callable[[Any, np.ndarray, Any], np.ndarray] | float
    growth: Callable[[Any, np.ndarray, Any], np.ndarray]
    source: Callable[[Any, np.ndarray, Any], np.ndarray] | None = None
    divergence: Callable[[Any, np.ndarray, Any], np.ndarray] | None = None
    v_sup: float = 0.0
    v_lip: float = 0.0
    v_div_lip: float = 0.0
    m_sup_tv: float = 0.0
    m_param_lip: float = 0.0
    q_sup_tv: float = 0.0
    q_l1: float = 0.0
    q_param_lip: float = 0.0
    support: Callable[[Any], tuple[Any, float]] | None = None

    def __post_init__(self):
        if callable(self.velocity) and not callable(self.divergence):
            raise ValueError("a callable velocity needs a callable divergence")
        if not callable(self.velocity) and self.divergence is not None:
            raise ValueError("a constant velocity takes no divergence")
        if not callable(self.velocity) and self.support is not None:
            raise ValueError("a constant velocity takes no support")


# cells this far past the certified radius (relative) are still transported,
# so rounding in the coefficients' own distances cannot reach a skipped cell
_SUPPORT_MARGIN = 1e-6


def _beyond_support(coef: RenewalCoefficients, w, grid: GridFunction,
                    margin: float = 0.0) -> np.ndarray:
    """Mask of the cell centres of ``grid``, in ``centers()`` order, at
    distance ``>= (1 + margin) radius`` from the centre of
    ``coef.support(w)``; without a ``support``, no cell is beyond it.

    The squared distances are summed from the per-axis offsets of the
    centres, so a 2D grid forms no ``(n, 2)`` offset array."""
    if coef.support is None:
        return np.zeros(grid.values.size, dtype=bool)
    centre, radius = coef.support(w)
    c = np.asarray(centre, dtype=float).reshape(-1)
    d = [grid.axis_centers(a) - c[a] for a in range(grid.dim)]
    dist_sq = (d[0] * d[0] if grid.dim == 1
               else np.add.outer(d[0] * d[0], d[1] * d[1]).ravel())
    reach = radius * (1.0 + margin)
    return dist_sq >= reach * reach


def audit_coefficients(coef: RenewalCoefficients, grid: GridFunction, w,
                       rng: np.random.Generator, n: int = 16,
                       t_range: tuple[float, float] = (0.0, 1.0)) -> float:
    """Randomized certificate audit on grid samples (worst violation, <=0 ok).

    Checks sup bounds of the velocity (a constant one without sampling),
    the sup+variation bound of the growth rate, and the L1 plus
    sup+variation bounds of the source, with the variation taken on the
    supplied grid.  With a ``support``, the largest ``|v|``, ``|m|``,
    ``|div v|`` and ``|q|`` on the grid centres outside its ball count as
    violations too.  A ``None`` source is audited as the zero field.
    Evidence, not proof.
    """
    source = coef.source or (lambda t, x, w: np.zeros(np.shape(x)[0]))
    sampled = callable(coef.velocity)
    worst = -math.inf if sampled else abs(coef.velocity) - coef.v_sup
    pts = grid.centers()
    outside = pts[_beyond_support(coef, w, grid)]
    for _ in range(n):
        t = float(rng.uniform(*t_range))
        if sampled:
            v = np.asarray(coef.velocity(t, pts, w), dtype=float)
            speeds = np.abs(v) if v.ndim == 1 else np.linalg.norm(v, axis=1)
            worst = max(worst, float(np.max(speeds)) - coef.v_sup)
        if len(outside):
            for field in (coef.velocity, coef.growth, coef.divergence,
                          source):
                worst = max(worst, float(np.max(np.abs(
                    np.asarray(field(t, outside, w), dtype=float)))))
        m = grid.with_values(np.asarray(coef.growth(t, pts, w), dtype=float)
                             .reshape(grid.values.shape))
        worst = max(worst, m.linf() + m.tv() - coef.m_sup_tv)
        q = grid.with_values(np.asarray(source(t, pts, w), dtype=float)
                             .reshape(grid.values.shape))
        worst = max(worst, q.l1() - coef.q_l1)
        worst = max(worst, q.linf() + q.tv() - coef.q_sup_tv)
    return worst


def characteristic(velocity, t_bar: float, x_bar, t: float, w,
                   n_sub: int = 16) -> np.ndarray:
    """Integrate ``dx/ds = velocity(s, x, w)`` from ``t_bar`` to ``t``.

    A callable velocity takes ``n_sub`` RK4 steps; a constant one (a
    number) is the closed form ``x_bar + (t - t_bar) * velocity``.
    Backward integration (``t < t_bar``) is supported; velocity stays
    bounded, so no domain bookkeeping is needed.
    """
    if t != t_bar and not callable(velocity):
        return np.asarray(x_bar, dtype=float) + (t - t_bar) * velocity
    x = np.asarray(x_bar, dtype=float).copy()
    if t == t_bar:
        return x
    h = (t - t_bar) / n_sub
    rhs = lambda s, y: np.asarray(velocity(s, y, w), dtype=float)
    s = t_bar
    for _ in range(n_sub):
        x = _rk4(rhs, s, x, h)
        s += h
    return x


def backward_transport(coef: RenewalCoefficients, w, t: float, t_lo,
                       x: np.ndarray, n_sub: int, dx: tuple[float, ...]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feet, growth factors and source integrals of backward characteristics.

    Integrates from ``(t, x)`` down to ``t_lo`` (scalar, or per-point array
    in 1D) in ``n_sub`` RK4 steps of the callable velocity, accumulating by
    the midpoint rule the exponent ``int (m - div v) ds`` and the source
    convolution ``int q * exp(int_s^t (m - div v)) ds``.  A constant
    velocity is a ``ValueError``: ``renewal_solve`` and ``ibvp_solve``
    carry it by ``_constant_speed_transport``.  ``dx``, the grid spacing,
    is not read.  ``x`` is read, never written, and not copied.

    Returns ``(foot, growth, source_integral)``.
    """
    if not callable(coef.velocity):
        raise ValueError("a constant velocity is carried by renewal_solve "
                         "or ibvp_solve, not backward_transport")
    pts = np.asarray(x, dtype=float)
    del x  # a temporary of the caller is freed once the first step is done
    scalar_lo = np.ndim(t_lo) == 0
    if pts.ndim == 2 and not scalar_lo:
        raise ValueError("per-point end times only supported in 1D")
    lo = float(t_lo) if scalar_lo else np.asarray(t_lo, dtype=float)
    ds = (t - lo) / n_sub
    n_pts = pts.shape[0]
    exponent = np.zeros(n_pts)
    source_acc = np.zeros(n_pts)
    rhs = lambda s, y: np.asarray(coef.velocity(s, y, w), dtype=float)
    h = -ds
    half_h = 0.5 * h
    for j in range(n_sub):
        s_hi = t - j * ds
        nxt = _rk4(rhs, s_hi, pts, h)
        s_mid = s_hi + half_h
        # 0.5 * (pts + nxt) and (growth - divergence) * ds, in place
        p_mid = np.add(pts, nxt)
        p_mid *= 0.5
        contrib = np.subtract(
            np.asarray(coef.growth(s_mid, p_mid, w), dtype=float),
            np.asarray(coef.divergence(s_mid, p_mid, w), dtype=float))
        contrib *= ds
        if coef.source is not None:
            factor_mid = np.exp(exponent + 0.5 * contrib)
            source_acc += (np.asarray(coef.source(s_mid, p_mid, w),
                                      dtype=float) * factor_mid * ds)
        exponent += contrib
        pts = nxt
    return pts, np.exp(exponent), source_acc


class _Geometry(NamedTuple):
    """The state- and time-free part of a constant-speed transport."""

    mids: np.ndarray      # flat (n_sub * n,) substep midpoints
    feet: np.ndarray      # cell of each foot (0 in the prefix or off the grid)
    off_grid: np.ndarray  # the cells past the prefix whose foot is off the grid


# numbers ``n * (n_sub + 1)`` above which a geometry is built afresh instead
# of cached, so the midpoints and feet of the 16 entries take at most
# 16 * 8 * 2**14 bytes (2 MiB), and ``off_grid`` at most ``n`` more indices
_GEOMETRY_CACHE_CELLS = 2 ** 14


def _build_geometry(speed: float, tau: float, n_sub: int, n_bdy: int,
                    n: int, origin: float, dx: float) -> _Geometry:
    """The substep midpoints and the feet of a constant-speed transport.

    The cells past the first ``n_bdy`` step back over ``tau`` by
    ``n_sub`` translations ``x -> x - (tau / n_sub) speed``.  A prefix
    cell at ``x`` reaches the origin at its own end time, and its
    midpoints are the closed form ``x - x (j + 1/2) / n_sub`` rather than
    steps of its own substep length: equal up to rounding.
    """
    centers = origin + (np.arange(n) + 0.5) * dx
    mids = np.empty((n_sub, n))
    x_in = centers[:n_bdy]
    mids[:, :n_bdy] = x_in - ((np.arange(n_sub) + 0.5) / n_sub)[:, None] * x_in
    pts, h = centers[n_bdy:], -(tau / n_sub)
    for j in range(n_sub):
        nxt = pts + h * speed
        mids[j, n_bdy:] = 0.5 * (pts + nxt)
        pts = nxt
    # the index arithmetic of GridFunction.lookup(outside="zero"), whose
    # feet off the grid read zero
    idx = np.floor((pts - origin) / dx).astype(np.int64)
    off = (idx < 0) | (idx >= n)
    feet = np.zeros(n, dtype=np.int64)
    feet[n_bdy:] = np.where(off, 0, idx)
    off_grid = n_bdy + np.flatnonzero(off)
    for arr in (mids, feet, off_grid):
        arr.flags.writeable = False
    return _Geometry(mids.reshape(-1), feet, off_grid)


_cached_geometry = functools.lru_cache(maxsize=16)(_build_geometry)


def _constant_speed_transport(coef: RenewalCoefficients, u0: GridFunction,
                              w, t0: float, tau: float, n_sub: int,
                              t_lo: np.ndarray, seeds: np.ndarray
                              ) -> GridFunction:
    """``u0`` carried from ``t0`` over ``tau`` at the constant speed
    ``coef.velocity`` on a 1D grid.

    Every cell steps back to ``t0`` in ``n_sub`` steps of ``tau / n_sub``,
    except a prefix of ``len(t_lo)`` cells (empty for the free problem),
    whose backward characteristics reach the origin at their own end
    times ``t_lo`` and which start from ``seeds`` instead of the datum at
    their feet: the inflow cells of ``ibvp_solve``.  The midpoints and
    feet come from a geometry cached per step length ``tau`` while ``n
    (n_sub + 1)`` stays within ``_GEOMETRY_CACHE_CELLS``.  The growth, and
    the source when there is one, is called once on all substep
    midpoints, and the exponent and the source convolution are summed by
    the midpoint rule in substep order; a foot off the grid reads zero.
    """
    n = u0.values.shape[0]
    n_bdy = t_lo.shape[0]
    key = (coef.velocity, tau, n_sub, n_bdy, n, u0.origin[0], u0.dx[0])
    geometry = (_build_geometry(*key)
                if n * (n_sub + 1) > _GEOMETRY_CACHE_CELLS
                else _cached_geometry(*key))
    t = t0 + tau
    ds = tau / n_sub
    ds_bdy = (t - t_lo) / n_sub
    times = np.empty((n_sub, n))
    # ds * -0.5 is 0.5 * (-ds) bit for bit
    times[:, :n_bdy] = ((t - np.arange(n_sub, dtype=float)[:, None] * ds_bdy)
                        + ds_bdy * -0.5)
    for j in range(n_sub):
        # one time per substep past the prefix, in Python floats
        times[j, n_bdy:] = (t - j * ds) + ds * -0.5
    s = times.reshape(-1)
    growth = np.asarray(coef.growth(s, geometry.mids, w),
                        dtype=float).reshape(n_sub, n)
    q = (None if coef.source is None
         else np.asarray(coef.source(s, geometry.mids, w), dtype=float)
         .reshape(n_sub, n))
    contrib = growth * ds
    np.multiply(growth[:, :n_bdy], ds_bdy, out=contrib[:, :n_bdy])
    if q is not None:
        # the source integral reads each cell's substep length
        ds = np.full(n, ds)
        ds[:n_bdy] = ds_bdy
    exponent = np.zeros(n)
    source_acc = None if q is None else np.zeros(n)
    for j, row in enumerate(contrib):
        if q is not None:
            factor_mid = np.exp(exponent + 0.5 * row)
            source_acc = source_acc + q[j] * factor_mid * ds
        exponent += row
    vals = u0.values[geometry.feet]
    if geometry.off_grid.size:
        vals[geometry.off_grid] = 0.0
    vals[:n_bdy] = seeds
    # seed * factor + src, where no source adds an explicit 0.0
    vals *= np.exp(exponent)
    vals += 0.0 if source_acc is None else source_acc
    return u0.with_values(vals)


def renewal_solve(coef: RenewalCoefficients, u0: GridFunction, w,
                  t0: float, tau: float, n_sub: int = 10) -> GridFunction:
    """Advance the datum from ``t0`` over ``tau`` with the parameter frozen.

    Requires the datum's support to keep ``v_sup * tau`` clearance from
    the box edge, so no mass reaches the truncation boundary.  Only the
    cells inside ``coef.support``'s ball (widened by a relative
    ``_SUPPORT_MARGIN``), or every cell without a support, are transported;
    every other cell keeps ``u0 * 1.0 + 0.0``, which is what its standing
    characteristic gives.
    A constant speed is carried by ``_constant_speed_transport`` and needs
    a 1D grid.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    needed = coef.v_sup * tau
    if u0.support_clearance() < needed - 1e-12:
        raise SupportClearanceViolated(
            f"support clearance {u0.support_clearance():.3g} below "
            f"required {needed:.3g}")
    if tau == 0:
        return u0
    if not callable(coef.velocity):
        if u0.dim != 1:
            raise ValueError("a constant velocity is only supported in 1D")
        return _constant_speed_transport(coef, u0, w, t0, tau, n_sub,
                                         np.empty(0), np.empty(0))
    inside = ~_beyond_support(coef, w, u0, _SUPPORT_MARGIN)
    # the kept cells are copied after the transport, not alive through it
    moved = (_carried(u0, *backward_transport(coef, w, t0 + tau, t0,
                                              u0.centers()[inside], n_sub,
                                              u0.dx))
             if inside.any() else None)
    vals = u0.values.ravel() * 1.0
    vals += 0.0
    if moved is not None:
        vals[inside] = moved
    return u0.with_values(vals.reshape(u0.values.shape))


def _carried(u0: GridFunction, foot: np.ndarray, factor: np.ndarray,
             src: np.ndarray) -> np.ndarray:
    """``u0`` at the feet times the growth factors plus the source
    integrals, ``lookup * factor + src``, in the lookup's buffer."""
    vals = u0.lookup(foot, outside="zero")
    vals *= factor
    vals += src
    return vals


# --------------------------------------------------------------------------
# Invariant domain and process moduli
# --------------------------------------------------------------------------

def ivp_domain_bounds(t: float, radius: float, horizon: float,
                      coef: RenewalCoefficients
                      ) -> tuple[float, float, float]:
    """Envelope (alpha_1, alpha_inf, alpha_tv) of the invariant domain at t.

    Raises ``InadmissibleHorizon`` when any component is non-positive (the
    configured radius/horizon pair admits no invariant domain there).
    """
    if not 0 <= t <= horizon * (1 + 1e-12):
        raise ValueError("t must lie in [0, horizon]")
    m, vl, v1 = coef.m_sup_tv, coef.v_lip, coef.v_div_lip
    q1, qi = coef.q_l1, coef.q_sup_tv
    rem = horizon - t
    a1 = radius * math.exp(-m * rem) - q1 * rem * math.exp(m * t)
    ai = (radius * math.exp(-(m + vl) * rem)
          - qi * math.exp((m + vl) * t) * rem)
    atv = (radius * math.exp(-(m + vl) * rem) * (1.0 - (m + v1) * rem)
           - qi * math.exp((m + vl) * t) * (1.0 + (m + v1) * t) * rem)
    if min(a1, ai, atv) <= 0:
        raise InadmissibleHorizon(
            f"domain envelope non-positive at t={t}: "
            f"({a1:.3g}, {ai:.3g}, {atv:.3g})")
    return a1, ai, atv


def ivp_lipschitz_constants(coef: RenewalCoefficients, horizon: float,
                            radius: float) -> ProcessConstants:
    """Process moduli (data, time, parameter) over ``horizon``."""
    m, vl, v1, vs = coef.m_sup_tv, coef.v_lip, coef.v_div_lip, coef.v_sup
    c_t = (vs * radius * math.exp((m + 2 * vl) * horizon)
           + coef.q_l1 * math.exp(m * horizon)
           + (m + vl) * radius * math.exp((m + vl) * horizon))
    c_w = ((vl * (2 * radius + coef.q_sup_tv) * (1 + (v1 + m) * horizon)
            + (coef.q_param_lip
               + (coef.m_param_lip + vl) * (radius + coef.q_sup_tv * horizon)))
           * math.exp((m + vl) * horizon))
    return ProcessConstants(c_u=m, c_t=c_t, c_w=c_w, horizon=horizon)


def make_renewal_process(coef: RenewalCoefficients, radius: float,
                         horizon: float, n_sub_per_unit: float) -> Process:
    """Wrap the solver as a process handle; ``radius`` sizes its moduli."""

    def solve(t0, tau, u, w):
        n = max(2, int(math.ceil(tau * n_sub_per_unit - 1e-12)))
        return renewal_solve(coef, u, w, t0, tau, n_sub=n)

    return Process(solve=solve,
                   constants=ivp_lipschitz_constants(coef, horizon, radius),
                   distance=l1_distance)
