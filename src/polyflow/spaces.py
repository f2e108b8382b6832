"""Concrete metric spaces: grid functions, atomic measures, BV time series.

Grid functions are piecewise-constant cell-average representations of
L1-and-BV data on a truncated uniform grid (1D or 2D).  Atomic measures are
finite positive combinations of point masses on the half line, metrized by
the bounded-Lipschitz (flat) distance.  BV time series are left-continuous
step functions of time, used for boundary data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatch


# --------------------------------------------------------------------------
# Grid functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Cell averages of a function on a uniform 1D or 2D grid.

    ``values`` has shape ``(n,)`` or ``(nx, ny)``; cell ``i`` (1D) covers
    ``[origin + i*dx, origin + (i+1)*dx)`` (left-closed).  Instances are
    treated as immutable values.  The cell centres are computed once and
    shared, read-only, by every grid that ``with_values`` derives.
    """

    values: np.ndarray
    origin: tuple[float, ...]
    dx: tuple[float, ...]
    _centers: np.ndarray | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {vals.ndim}")
        origin, dx = self.origin, self.dx
        if not (type(origin) is tuple and type(dx) is tuple
                and all(type(v) is float for v in origin + dx)):
            origin = tuple(float(o) for o in np.atleast_1d(origin))
            dx = tuple(float(d) for d in np.atleast_1d(dx))
            object.__setattr__(self, "origin", origin)
            object.__setattr__(self, "dx", dx)
        if len(origin) != vals.ndim or len(dx) != vals.ndim:
            raise ValueError("origin/dx length must match dimension")
        if any(d <= 0 for d in dx):
            raise ValueError("dx must be positive")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")

    # -- geometry -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        return self.origin[axis] + (np.arange(n) + 0.5) * self.dx[axis]

    def centers(self) -> np.ndarray:
        """Cell centers, shape (n,) in 1D or (nx*ny, 2) in 2D (read-only)."""
        if self._centers is None:
            if self.dim == 1:
                pts = self.axis_centers(0)
            else:
                X, Y = np.meshgrid(self.axis_centers(0),
                                   self.axis_centers(1), indexing="ij")
                pts = np.column_stack([X.ravel(), Y.ravel()])
            pts.flags.writeable = False
            object.__setattr__(self, "_centers", pts)
        return self._centers

    def same_grid(self, other: "GridFunction") -> bool:
        return (self.values.shape == other.values.shape
                and self.origin == other.origin
                and self.dx == other.dx)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        out = GridFunction(values, self.origin, self.dx)
        if out.values.shape == self.values.shape:
            object.__setattr__(out, "_centers", self._centers)
        return out

    # -- functionals ---------------------------------------------------------

    def l1(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.cell_volume)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def tv(self) -> float:
        return total_variation(self)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.cell_volume)

    # -- evaluation ----------------------------------------------------------

    def lookup(self, points: np.ndarray, outside: str = "zero") -> np.ndarray:
        """Evaluate the piecewise-constant representative at ``points``.

        ``points`` has shape (m,) in 1D or (m, 2) in 2D.  ``outside`` is
        ``"zero"`` (extension by zero) or ``"clamp"`` (constant extension).
        """
        pts = np.asarray(points, dtype=float)
        if self.dim == 1:
            pts = pts.reshape(-1)
            idx = np.floor((pts - self.origin[0]) / self.dx[0]).astype(np.int64)
            n = self.values.shape[0]
            if outside == "clamp":
                return self.values[np.minimum(np.maximum(idx, 0), n - 1)]
            # one zero cell on each side takes every index off the grid
            padded = np.zeros(n + 2)
            padded[1:-1] = self.values
            return padded[np.minimum(np.maximum(idx, -1), n) + 1]
        pts = pts.reshape(-1, 2)
        ij = np.empty((pts.shape[0], 2), dtype=np.int64)
        for a in range(2):
            ij[:, a] = np.floor((pts[:, a] - self.origin[a]) / self.dx[a])
        if outside == "clamp":
            i = np.minimum(np.maximum(ij[:, 0], 0), self.values.shape[0] - 1)
            j = np.minimum(np.maximum(ij[:, 1], 0), self.values.shape[1] - 1)
            return self.values[i, j]
        inside = ((ij[:, 0] >= 0) & (ij[:, 0] < self.values.shape[0])
                  & (ij[:, 1] >= 0) & (ij[:, 1] < self.values.shape[1]))
        out = np.zeros(pts.shape[0])
        out[inside] = self.values[ij[inside, 0], ij[inside, 1]]
        return out

    def support_clearance(self) -> float:
        """Distance from the nonzero cells to the nearest box edge.

        Returns ``inf`` for the zero function.
        """
        nz = np.nonzero(self.values)
        if nz[0].size == 0:
            return math.inf
        clear = math.inf
        for a in range(self.dim):
            n = self.values.shape[a]
            lo, hi = int(np.min(nz[a])), int(np.max(nz[a]))
            clear = min(clear, lo * self.dx[a], (n - 1 - hi) * self.dx[a])
        return clear

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_callable(f: Callable[..., np.ndarray],
                      origin: Sequence[float], dx: Sequence[float],
                      shape: Sequence[int]) -> "GridFunction":
        """Sample ``f`` at cell centers.  1D: f(x); 2D: f(x, y), broadcast."""
        origin = tuple(float(o) for o in np.atleast_1d(origin))
        dx = tuple(float(d) for d in np.atleast_1d(dx))
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        if len(shape) == 1:
            x = origin[0] + (np.arange(shape[0]) + 0.5) * dx[0]
            vals = np.asarray(f(x), dtype=float)
        else:
            x = origin[0] + (np.arange(shape[0]) + 0.5) * dx[0]
            y = origin[1] + (np.arange(shape[1]) + 0.5) * dx[1]
            X, Y = np.meshgrid(x, y, indexing="ij")
            vals = np.asarray(f(X, Y), dtype=float)
        return GridFunction(np.broadcast_to(vals, shape).copy(), origin, dx)

    @staticmethod
    def uniform(box: Sequence[tuple[float, float]] | tuple[float, float],
                cells: Sequence[int] | int) -> "GridFunction":
        """Zero grid function over ``box`` with the given cell counts."""
        if isinstance(box[0], (int, float)):
            box = [box]  # type: ignore[list-item]
        cells_t = tuple(np.atleast_1d(cells).astype(int))
        origin = tuple(float(b[0]) for b in box)
        dx = tuple((float(b[1]) - float(b[0])) / n for b, n in zip(box, cells_t))
        return GridFunction(np.zeros(cells_t), origin, dx)

    # -- serialization ---------------------------------------------------------

    def to_csv(self, path) -> None:
        """Write ``x[,y],value`` rows with cell-center coordinates.

        The bytes are those of ``csv.writer`` rows of ``repr`` floats; the
        fields are written directly since a float repr needs no quoting.
        """
        xs = [repr(x) for x in self.axis_centers(0).tolist()]
        with open(path, "w", newline="") as fh:
            if self.dim == 1:
                fh.write("x,value\r\n")
                fh.writelines(f"{x},{v!r}\r\n"
                              for x, v in zip(xs, self.values.tolist()))
                return
            fh.write("x,y,value\r\n")
            ys = [repr(y) for y in self.axis_centers(1).tolist()]
            for x, row in zip(xs, self.values.tolist()):
                fh.writelines(f"{x},{y},{v!r}\r\n"
                              for y, v in zip(ys, row))

    @staticmethod
    def read_csv(path) -> "GridFunction":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        if header == ["x", "value"]:
            xs = np.array([float(r[0]) for r in data])
            vs = np.array([float(r[1]) for r in data])
            dx = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
            return GridFunction(vs, (float(xs[0] - dx / 2),), (dx,))
        if header == ["x", "y", "value"]:
            xs = np.array(sorted({float(r[0]) for r in data}))
            ys = np.array(sorted({float(r[1]) for r in data}))
            dx = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
            dy = float(ys[1] - ys[0]) if ys.size > 1 else 1.0
            vals = np.zeros((xs.size, ys.size))
            xi = {x: i for i, x in enumerate(xs)}
            yi = {y: j for j, y in enumerate(ys)}
            for r in data:
                vals[xi[float(r[0])], yi[float(r[1])]] = float(r[2])
            origin2 = (float(xs[0] - dx / 2), float(ys[0] - dy / 2))
            return GridFunction(vals, origin2, (dx, dy))
        raise ValueError(f"unrecognized grid CSV header: {header}")


def _require_same_grid(u: GridFunction, v: GridFunction) -> None:
    if not u.same_grid(v):
        raise GridMismatch(
            f"grids differ: shape {u.values.shape} origin {u.origin} dx {u.dx}"
            f" vs shape {v.values.shape} origin {v.origin} dx {v.dx}")


def l1_distance(u: GridFunction, v: GridFunction) -> float:
    """L1 distance between two grid functions on the same grid."""
    _require_same_grid(u, v)
    return float(np.sum(np.abs(u.values - v.values)) * u.cell_volume)


def total_variation(u: GridFunction) -> float:
    """Discrete total variation: sum of jumps over interior interfaces.

    In 2D this is the anisotropic variation, each directional jump weighted
    by the transverse cell width.
    """
    vals = u.values
    if vals.ndim == 1:
        return float(np.sum(np.abs(np.diff(vals))))
    tv_x = np.sum(np.abs(np.diff(vals, axis=0))) * u.dx[1]
    tv_y = np.sum(np.abs(np.diff(vals, axis=1))) * u.dx[0]
    return float(tv_x + tv_y)


def shifted_l1_difference(u: GridFunction, delta: GridFunction) -> float:
    """Exact integral of |u(x + delta(x)) - u(x)| over the grid (1D).

    ``delta`` is a nonnegative per-cell shift field on the same grid.  The
    integrand is piecewise constant, so each cell's contribution is the exact
    overlap of the shifted cell against the grid (constant extension beyond
    the edges).
    """
    _require_same_grid(u, delta)
    if u.dim != 1:
        raise ValueError("shift difference implemented for 1D grids")
    if np.any(delta.values < 0):
        raise ValueError("shift field must be nonnegative")
    vals = u.values
    n = vals.shape[0]
    if n == 0:
        return 0.0
    dx = u.dx[0]
    org = u.origin[0]
    # overlap of each shifted cell [a, b) against the grid cells j0..j1,
    # with constant extension; cell i adds its terms in the order j0, j0+1..
    a = org + np.arange(n) * dx + delta.values
    b = a + dx
    j0 = np.floor((a - org) / dx).astype(np.int64)
    j1 = np.floor((b - org) / dx - 1e-15).astype(np.int64)
    acc = np.zeros(n)
    for k in range(int(np.max(j1 - j0)) + 1):
        j = j0 + k
        lo = np.maximum(a, org + j * dx)
        hi = np.minimum(b, org + (j + 1) * dx)
        jj = np.minimum(np.maximum(j, 0), n - 1)
        term = (hi - lo) * np.abs(vals[jj] - vals)
        acc += np.where((j <= j1) & (hi > lo), term, 0.0)
    # cumsum adds the cells left to right; np.sum is pairwise (other bits)
    return float(np.cumsum(acc)[-1])


# --------------------------------------------------------------------------
# Atomic measures and the flat distance
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive atomic measure on the half line.

    Positions are kept sorted ascending; masses are nonnegative.
    """

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1)
        mas = np.asarray(self.masses, dtype=float).reshape(-1)
        if pos.shape != mas.shape:
            raise ValueError("positions and masses must have equal length")
        if np.any(mas < 0):
            raise ValueError("masses must be nonnegative")
        if np.any(pos < 0):
            raise ValueError("positions must be nonnegative")
        order = np.argsort(pos, kind="stable")
        object.__setattr__(self, "positions", pos[order])
        object.__setattr__(self, "masses", mas[order])

    @staticmethod
    def empty() -> "AtomicMeasure":
        return AtomicMeasure(np.zeros(0), np.zeros(0))

    @property
    def n_atoms(self) -> int:
        return int(self.positions.size)

    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def support_diameter(self) -> float:
        if self.n_atoms < 2:
            return 0.0
        return float(self.positions[-1] - self.positions[0])

    def merged(self, eps: float) -> "AtomicMeasure":
        """Merge clusters of atoms closer than ``eps``.

        Consecutive atoms with gaps < eps collapse to a single atom at the
        mass-weighted mean position; total mass is conserved exactly.
        """
        if self.n_atoms == 0 or eps <= 0:
            return self
        pos, mas = self.positions, self.masses
        new_pos, new_mas = [], []
        start = 0
        for i in range(1, self.n_atoms + 1):
            if i == self.n_atoms or pos[i] - pos[i - 1] >= eps:
                block_m = mas[start:i]
                block_p = pos[start:i]
                m = float(np.sum(block_m))
                if m > 0:
                    p = float(np.dot(block_p, block_m) / m)
                else:
                    p = float(np.mean(block_p))
                new_pos.append(p)
                new_mas.append(m)
                start = i
        return AtomicMeasure(np.array(new_pos), np.array(new_mas))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["position", "mass"])
            for p, m in zip(self.positions, self.masses):
                w.writerow([repr(float(p)), repr(float(m))])

    @staticmethod
    def read_csv(path) -> "AtomicMeasure":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["position", "mass"]:
            raise ValueError(f"unrecognized measure CSV header: {rows[0]}")
        pos = np.array([float(r[0]) for r in rows[1:]])
        mas = np.array([float(r[1]) for r in rows[1:]])
        return AtomicMeasure(pos, mas)


def flat_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Bounded-Lipschitz (flat) distance between two atomic measures.

    Maximizes ``sum phi(x_i) * (mu - nu)({x_i})`` over test functions with
    ``|phi| <= 1`` and ``|slope| <= 1``.  Only the values ``phi_i`` at the
    sorted distinct atom sites matter, under ``|phi_i| <= 1`` and
    ``|phi_{i+1} - phi_i| <= gap_i``, so an exact dynamic program along the
    chain solves it: the best partial sum as a function ``V`` of the current
    value ``phi`` is concave and piecewise linear on ``[-1, 1]``.  Each gap
    ``g`` widens ``V`` at a maximiser ``a`` into a flat top on
    ``[a - g, a + g]`` (breakpoints left of ``a`` move by ``-g``, right of
    it by ``+g``); the result is cut back to ``[-1, 1]`` and the next site's
    net mass times ``phi`` is added.  The distance is ``max V``.
    """
    if mu.n_atoms == 0 and nu.n_atoms == 0:
        return 0.0
    # net signed mass per distinct position
    pos = np.concatenate([mu.positions, nu.positions])
    sgn = np.concatenate([mu.masses, -nu.masses])
    support, inv = np.unique(pos, return_inverse=True)
    weights = np.zeros(support.size)
    np.add.at(weights, inv, sgn)

    phi = np.array([-1.0, 1.0])     # breakpoints of V
    val = weights[0] * phi          # V at the breakpoints
    for g, w in zip(np.diff(support), weights[1:]):
        a = int(np.argmax(val))
        xs = np.concatenate((phi[:a + 1] - g, phi[a:] + g))
        ys = np.concatenate((val[:a + 1], val[a:]))
        inside = np.abs(xs) < 1.0
        ends = np.interp((-1.0, 1.0), xs, ys)
        phi = np.concatenate(((-1.0,), xs[inside], (1.0,)))
        val = np.concatenate((ends[:1], ys[inside], ends[1:])) + w * phi
    return float(np.max(val))


# --------------------------------------------------------------------------
# BV time series (left-continuous step functions)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BvTimeSeries:
    """Left-continuous step function of time from (time, value) samples.

    The value at ``t`` is the value of the last sample strictly before ``t``
    (extended constantly on the left), so each sample time marks where the
    function changes just afterwards.
    """

    times: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        v = np.asarray(self.vals, dtype=float).reshape(-1)
        if t.shape != v.shape or t.size == 0:
            raise ValueError("need equally many times and values, at least one")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "vals", v)

    @staticmethod
    def constant(value: float, t0: float = 0.0) -> "BvTimeSeries":
        return BvTimeSeries(np.array([t0]), np.array([float(value)]))

    def __call__(self, t) -> np.ndarray:
        if isinstance(t, float):
            # the array path's index for one time; like it, searchsorted
            # places NaN after every sample
            return self.vals[max(int(self.times.searchsorted(t)) - 1, 0)]
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="left") - 1
        return self.vals[np.minimum(np.maximum(idx, 0), self.vals.size - 1)]

    def tv(self, a: float = -math.inf, b: float = math.inf) -> float:
        """Total variation over [a, b]; a jump at sample time s counts iff
        a <= s < b (the change happens just after s)."""
        if self.vals.size < 2:
            return 0.0
        jumps = np.abs(np.diff(self.vals))
        ts = self.times[1:]
        mask = (ts >= a) & (ts < b)
        return float(np.sum(jumps[mask]))

    def l1(self, a: float, b: float) -> float:
        """Integral of |b(t)| over [a, b]."""
        if b <= a:
            return 0.0
        inner = self.times[(self.times > a) & (self.times < b)]
        knots = np.concatenate([[a], inner, [b]])
        mids = 0.5 * (knots[:-1] + knots[1:])
        return float(np.sum(np.abs(self(mids)) * np.diff(knots)))

    def sup(self) -> float:
        return float(np.max(np.abs(self.vals)))


# --------------------------------------------------------------------------
# Discrete BV inequality checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityMargin:
    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class BvEstimateReport:
    checks: tuple[InequalityMargin, ...]

    def min_margin(self) -> float:
        return min(c.margin for c in self.checks)

    def all_hold(self, tol: float = 1e-12) -> bool:
        return all(c.margin >= -tol for c in self.checks)


def bv_estimate_checks(u: GridFunction, w: GridFunction,
                       delta: GridFunction,
                       lip_map: Callable[[np.ndarray], np.ndarray] = np.abs,
                       lip_const: float = 1.0) -> BvEstimateReport:
    """Evaluate the elementary BV inequalities on discrete representatives.

    Checks, with both sides computed on the grid data:
      * product rule      TV(u w)   <= TV(u) ||w||_inf + ||u||_inf TV(w)
      * composition       TV(g(u))  <= Lip(g) TV(u)
      * time integral     TV(u + w) <= TV(u) + TV(w)
      * shift bound       int |u(x + d(x)) - u(x)| dx <= TV(u) ||d||_inf

    All four hold exactly on piecewise-constant data, so every margin must
    be >= -1e-12.
    """
    _require_same_grid(u, w)
    _require_same_grid(u, delta)
    if np.any(delta.values < 0):
        raise ValueError("shift field must be nonnegative")
    checks = []

    prod = u.with_values(u.values * w.values)
    checks.append(InequalityMargin(
        "tv-product-rule", total_variation(prod),
        total_variation(u) * w.linf() + u.linf() * total_variation(w)))

    comp = u.with_values(np.asarray(lip_map(u.values), dtype=float))
    checks.append(InequalityMargin(
        "tv-composition", total_variation(comp),
        lip_const * total_variation(u)))

    summ = u.with_values(u.values + w.values)
    checks.append(InequalityMargin(
        "tv-time-integral", total_variation(summ),
        total_variation(u) + total_variation(w)))

    if u.dim == 1:
        lhs = shifted_l1_difference(u, delta)
        checks.append(InequalityMargin(
            "l1-shift-bound", lhs, total_variation(u) * delta.linf()))

    return BvEstimateReport(tuple(checks))
