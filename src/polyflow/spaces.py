"""Concrete metric spaces: grid functions and BV time series.

Grid functions are piecewise-constant cell-average representations of
L1-and-BV data on a truncated uniform grid (1D or 2D).  BV time series are
left-continuous step functions of time, used for boundary data.  Atomic
measures and the flat distance live in ``polyflow.measures``, and the
discrete BV inequality checks in ``polyflow.suites``.  ``flat_distance`` is
also served from here, because ``perfbench/spans.py`` traces it here.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._lazy import forwarder
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
        vals = _grid_values(self.values)
        object.__setattr__(self, "values", vals)
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
        if not all(math.isfinite(v) for v in origin + dx):
            raise ValueError("origin and dx must be finite")

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
        """The grid function of ``values`` on this grid.

        Values of this grid's shape inherit its validated origin, spacing
        and centres; any other shape is validated as a new grid.
        """
        vals = np.asarray(values, dtype=float)
        if vals.shape != self.values.shape:
            return GridFunction(vals, self.origin, self.dx)
        out = object.__new__(GridFunction)
        # a frozen dataclass refuses setattr, not its instance dict
        out.__dict__.update(values=_grid_values(vals), origin=self.origin,
                            dx=self.dx, _centers=self._centers)
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
        nx, ny = self.values.shape
        i, j = (np.floor((pts[:, a] - self.origin[a]) / self.dx[a])
                .astype(np.int64) for a in range(2))
        if outside == "clamp":
            return self.values[np.minimum(np.maximum(i, 0), nx - 1),
                               np.minimum(np.maximum(j, 0), ny - 1)]
        # one zero cell on each side takes every index off the grid; the
        # gather reads the flat index of (i + 1, j + 1) in the padded copy
        padded = np.zeros((nx + 2, ny + 2))
        padded[1:-1, 1:-1] = self.values
        np.minimum(np.maximum(i, -1, out=i), nx, out=i)
        np.minimum(np.maximum(j, -1, out=j), ny, out=j)
        i *= ny + 2
        i += j
        i += ny + 3
        return padded.ravel()[i]

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
        fields are written directly since a float repr needs no quoting,
        each row of the 2D grid as one string joined in C.
        """
        xs = [repr(x) + "," for x in self.axis_centers(0).tolist()]
        with open(path, "w", newline="") as fh:
            if self.dim == 1:
                fh.write("x,value\r\n")
                if xs:
                    fh.write("\r\n".join(map(operator.add, xs, map(
                        repr, self.values.tolist()))) + "\r\n")
                return
            fh.write("x,y,value\r\n")
            ys = [repr(y) + "," for y in self.axis_centers(1).tolist()]
            if not ys:
                return
            for head, row in zip(xs, self.values.tolist()):
                fh.write(head + ("\r\n" + head).join(
                    map(operator.add, ys, map(repr, row))) + "\r\n")


def _grid_values(values) -> np.ndarray:
    """``values`` as a float array, checked to be 1D or 2D and finite."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim not in (1, 2):
        raise ValueError(f"grid dimension must be 1 or 2, got {vals.ndim}")
    if not np.isfinite(vals).all():
        raise ValueError("grid values must be finite")
    return vals


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
    # the samples as lists, for the scalar lookup: the times as Python
    # floats, the values as the np.float64 items the array path returns
    _time_list: list = field(default=None, init=False, repr=False,
                             compare=False)
    _val_list: list = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        v = np.asarray(self.vals, dtype=float).reshape(-1)
        if t.shape != v.shape or t.size == 0:
            raise ValueError("need equally many times and values, at least one")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "vals", v)
        object.__setattr__(self, "_time_list", t.tolist())
        object.__setattr__(self, "_val_list", list(v))

    @staticmethod
    def constant(value: float) -> "BvTimeSeries":
        return BvTimeSeries(np.array([0.0]), np.array([float(value)]))

    def __call__(self, t) -> np.ndarray:
        """The value at ``t``: an ``np.float64`` for a float ``t``, else an
        array shaped like ``t``.

        A float is looked up by ``bisect`` in the cached sample lists, an
        array by ``searchsorted``; both put NaN after every sample, so it
        reads the last value.
        """
        if isinstance(t, float):
            i = (bisect.bisect_left(self._time_list, t) if t == t
                 else len(self._time_list))
            return self._val_list[max(i - 1, 0)]
        idx = self.times.searchsorted(np.asarray(t, dtype=float))
        # idx - 1 lies in [-1, size - 1]
        return self.vals[np.maximum(idx - 1, 0)]

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


__getattr__ = forwarder(__name__, {"flat_distance": "measures"})
