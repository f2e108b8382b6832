"""Scalar 1D conservation law with parametrized flux: exact-Riemann Godunov.

The numerical flux is the exact scalar Godunov flux (interval extremum of
the flux function, searched over the endpoints and the supplied critical
points), which is consistent and monotone and therefore selects entropy
solutions.  The update is the explicit finite-volume step under a CFL
restriction; the last step is shortened to land exactly on the target time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ClearanceViolated
from .metric import ProcessConstants
from .spaces import GridFunction


@dataclass(frozen=True)
class ParamFlux:
    """Flux ``f(u, w)`` with a Lipschitz certificate and critical points.

    ``f`` must act elementwise on the state array: each entry of
    ``f(u, w)`` depends on the same entry of ``u`` alone.  A Godunov step
    evaluates it once on a whole buffer and reads the values of both
    faces of each interface from that one result.

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
               rng: random.Random, n: int = 64) -> float:
    """Sampled Lipschitz-quotient audit (worst violation, <= 0 ok) on
    state pairs drawn with ``rng.uniform(lo, hi)``."""
    worst = -math.inf
    for _ in range(n):
        u1, u2 = rng.uniform(lo, hi), rng.uniform(lo, hi)
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
    endpoints plus the supplied critical points.  The states broadcast
    against each other, and the result is a float only when both are
    scalars.
    """
    ul = np.atleast_1d(np.asarray(u_left, dtype=float))
    ur = np.atleast_1d(np.asarray(u_right, dtype=float))
    shape = np.broadcast_shapes(ul.shape, ur.shape)
    out = _godunov_select(*(np.broadcast_to(v, shape).reshape(-1) for v in
                            (ul, ur, flux(ul, w), flux(ur, w))),
                          _critical_values(flux, w)).reshape(shape)
    if np.ndim(u_left) or np.ndim(u_right):
        return out
    return float(out[0])


def _critical_values(flux: ParamFlux, w) -> tuple[tuple[float, float], ...]:
    """``((c, f(c, w)), ...)`` over the flux's critical points."""
    return tuple((c, float(flux(np.array([c]), w)[0]))
                 for c in flux.critical_points)


def _godunov_select(ul: np.ndarray, ur: np.ndarray, fl: np.ndarray,
                    fr: np.ndarray, crit) -> np.ndarray:
    """Godunov flux from the 1D interface states, their flux values ``fl,
    fr`` (all four of one length) and the critical values ``crit = ((c,
    f(c)), ...)``.

    The endpoint extremum is selected into one buffer first.  Only an
    interface whose states lie on two sides of ``c`` can hold it strictly
    inside, and those are few, so the exact test ``min < c < max`` and the
    update with ``f(c)`` run on them alone, in the order of ``crit``.
    """
    rising = ul <= ur
    out = np.maximum(fl, fr)
    np.copyto(out, np.minimum(fl, fr), where=rising)
    for c, fc in crit:
        at = ((ul < c) != (ur < c)).nonzero()[0]
        if at.size:
            # one state of a candidate lies below c: c is inside when the
            # larger one (NaN if either is) lies above it
            at = at[np.maximum(ul[at], ur[at]) > c]
            vals = out[at]
            out[at] = np.where(rising[at], np.minimum(vals, fc),
                               np.maximum(vals, fc))
    return out


# claw_solve_many lays its spans out anew every this many steps, with this
# many cells of margin on each side of a jump cluster
_WINDOW_BLOCK = 32


def _span_layout(rows: np.ndarray, cols: np.ndarray, n: int, margin: int):
    """One flat buffer of spans around the jump clusters of the rows.

    ``rows, cols`` list the jumps of an array of ``n`` columns, cells
    ``(r, c)`` and ``(r, c + 1)`` that differ, in row-major order (at least
    one).  Jumps of a row at most ``2 * margin + 2`` cells apart form one
    cluster, laid out as a ghost, the cells ``first - margin ... last + 1 +
    margin`` clipped to the grid, and a ghost; so the spans of a row never
    overlap.  Returns ``src``, the flat index into the array that each
    buffer entry reads; ``inner``, the positions of span cells; ``ghosts``,
    those of the ghosts inside the grid; and ``edge_ghosts`` with
    ``edge_cells``, the ghosts clipped at a grid edge and the edge cells
    whose value they take.
    """
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] - cols[:-1] > 2 * margin + 2)
    first = np.flatnonzero(new)
    last = np.append(first[1:] - 1, rows.size - 1)
    lo = np.maximum(cols[first] - margin, 0)
    hi = np.minimum(cols[last] + 1 + margin, n - 1)
    size = hi - lo + 3
    left = np.cumsum(size) - size
    right = left + size - 1
    col = np.repeat(lo - 1 - left, size) + np.arange(int(size.sum()))
    src = np.repeat(rows[first] * n, size) + np.clip(col, 0, n - 1)
    ghost = np.zeros(src.size, dtype=bool)
    ghost[left] = ghost[right] = True
    at_lo, at_hi = lo == 0, hi == n - 1
    return (src, np.flatnonzero(~ghost),
            np.concatenate((left[~at_lo], right[~at_hi])),
            np.concatenate((left[at_lo], right[at_hi])),
            np.concatenate((left[at_lo] + 1, right[at_hi] - 1)))


def _edge_collar_constant(u: GridFunction, width: float) -> bool:
    """True when the datum is constant on both edge collars of ``width``."""
    vals = u.values
    n = vals.shape[0]
    k = min(n, int(math.ceil(width / u.dx[0])) + 1)
    if k <= 1:
        return True
    return (np.all(vals[:k] == vals[0]) and np.all(vals[-k:] == vals[-1]))


def claw_solve_many(flux: ParamFlux, data: list[GridFunction], w, t0: float,
                    tau: float, cfl: float = 0.9) -> list[GridFunction]:
    """Explicit Godunov evolution over ``[t0, t0 + tau]``, parameter frozen.

    The one conservation-law entry point: a single datum ``u0`` is evolved
    as ``claw_solve_many(flux, [u0], w, t0, tau)[0]``.  Evolves data that
    share one 1D grid together, as the rows of one padded buffer, and
    returns one result per datum in order.  Time step ``cfl * dx / lip``;
    the flux does not read the time, so the steps depend on ``tau`` alone.
    Requires every datum to be constant on edge collars of width
    ``lip * tau`` so the truncation boundary never influences the interior.

    A step updates only spans of cells around each datum's own jumps.  A
    cell whose three-point stencil reads one value ``a`` sees the same flux
    ``f(a)`` on both faces, and ``f(a) - f(a) == 0.0`` leaves it unchanged
    bit for bit, so a step changes only cells next to a jump and the hull of
    a jump cluster widens by at most one cell per side per step.  Every
    ``_WINDOW_BLOCK`` steps the spans are laid out anew: each row's jumps
    are grouped into clusters, and each cluster, widened by
    ``_WINDOW_BLOCK`` cells per side, becomes one stretch of a flat buffer
    between two ghost cells.  No cell outside a span and no ghost inside the
    grid can change before the next layout; a ghost clipped at a grid edge
    copies the edge cell after every step, as the full grid's pad does.  So
    each result equals the full-grid update of its datum alone exactly, and
    a constant datum is returned as is.  The flux values at the critical
    points are computed once per solve, and each step evaluates the flux
    once on the buffer, whose shifted views give both faces of every
    interface.
    """
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not data:
        raise ValueError("no data to evolve")
    first = data[0]
    for u in data:
        if u.dim != 1:
            raise ValueError("scalar law is one-dimensional")
        if not u.same_grid(first):
            raise ValueError("data must share one grid")
    span = flux.lip * tau
    for i, u in enumerate(data):
        if not _edge_collar_constant(u, span):
            raise ClearanceViolated(
                f"datum {i} not constant on edge collars of width {span:.3g}")
    if tau == 0:
        return list(data)
    full = np.stack([u.values for u in data])
    flat = full.reshape(-1)
    # neighbours are compared bit for bit: a step can turn a -0.0 next to a
    # 0.0 into 0.0, so that pair is a jump too
    bits = full.view(np.uint64)
    rows, cols = np.nonzero(bits[:, 1:] != bits[:, :-1])
    moved = np.zeros(len(data), dtype=bool)
    moved[rows] = True
    if not rows.size:
        return list(data)
    n = full.shape[1]
    dx = first.dx[0]
    dt_max = cfl * dx / flux.lip if flux.lip > 0 else tau
    crit = _critical_values(flux, w)
    elapsed = 0.0
    steps = 0
    while elapsed < tau - 1e-15 * max(1.0, tau):
        if steps % _WINDOW_BLOCK == 0:
            if steps:
                flat[cells] = buf[inner]
                rows, cols = np.nonzero(bits[:, 1:] != bits[:, :-1])
                if not rows.size:
                    break
            src, inner, ghosts, edge_ghosts, edge_cells = _span_layout(
                rows, cols, n, _WINDOW_BLOCK)
            buf = flat[src]
            cells = src[inner]
            held = buf[ghosts]
        dt = min(dt_max, tau - elapsed)
        fb = flux(buf, w)
        f_iface = _godunov_select(buf[:-1], buf[1:], fb[:-1], fb[1:], crit)
        diff = f_iface[1:] - f_iface[:-1]
        diff *= dt / dx
        buf[1:-1] -= diff
        buf[ghosts] = held
        buf[edge_ghosts] = buf[edge_cells]
        elapsed += dt
        steps += 1
    if steps:
        flat[cells] = buf[inner]
    return [u.with_values(full[i]) if moved[i] else u
            for i, u in enumerate(data)]


def claw_constants(lip: float, radius: float) -> ProcessConstants:
    """Process moduli of the entropy-solution process on the TV ball.

    Data dependence is a plain contraction (modulus zero); time and
    parameter moduli are both ``lip * radius``, over the unit horizon.
    """
    return ProcessConstants(c_u=0.0, c_t=lip * radius, c_w=lip * radius,
                            horizon=1.0)


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
