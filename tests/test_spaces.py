import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyflow.errors import GridMismatch
from polyflow.measures import AtomicMeasure, flat_distance
from polyflow.spaces import (BvTimeSeries, GridFunction, euclidean_distance,
                             l1_distance, total_variation)
from polyflow.suites import bv_estimate_checks, shifted_l1_difference


def compact_bump(n: int) -> np.ndarray:
    """An ``(n, n)`` bump ``(1 - |x - c|^2 / r^2)_+^4`` on [-1, 1]^2 whose
    support, a disc off the centre, leaves rows and margins at +0.0."""
    c = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    s = ((c[:, None] - 0.1) ** 2 + (c[None, :] + 0.2) ** 2) / 0.49
    return np.maximum(1.0 - s, 0.0) ** 4


def read_grid_csv(path) -> GridFunction:
    """The grid function that ``GridFunction.to_csv`` wrote to ``path``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    if header == ["x", "value"]:
        xs = np.array([float(r[0]) for r in data])
        vs = np.array([float(r[1]) for r in data])
        dx = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
        return GridFunction(vs, (float(xs[0] - dx / 2),), (dx,))
    assert header == ["x", "y", "value"], header
    xs = np.array(sorted({float(r[0]) for r in data}))
    ys = np.array(sorted({float(r[1]) for r in data}))
    dx = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
    dy = float(ys[1] - ys[0]) if ys.size > 1 else 1.0
    vals = np.zeros((xs.size, ys.size))
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    for r in data:
        vals[xi[float(r[0])], yi[float(r[1])]] = float(r[2])
    return GridFunction(vals, (float(xs[0] - dx / 2), float(ys[0] - dy / 2)),
                        (dx, dy))


def frozen_support_clearance(u: GridFunction) -> float:
    """``GridFunction.support_clearance`` from ``np.nonzero`` index arrays,
    as it was before it read per-axis spans."""
    nz = np.nonzero(u.values)
    if nz[0].size == 0:
        return math.inf
    clear = math.inf
    for a in range(u.dim):
        n = u.values.shape[a]
        lo, hi = int(np.min(nz[a])), int(np.max(nz[a]))
        clear = min(clear, lo * u.dx[a], (n - 1 - hi) * u.dx[a])
    return clear


def frozen_from_callable(f, origin, dx, shape) -> GridFunction:
    """``GridFunction.from_callable`` as it was before it passed open axes:
    a zero grid first, and a 2D ``f`` given the full coordinate arrays."""
    centres = [o + (np.arange(n) + 0.5) * d
               for o, d, n in zip(origin, dx, shape)]
    if len(shape) == 1:
        vals = np.asarray(f(centres[0]), dtype=float)
    else:
        vals = np.asarray(f(*np.meshgrid(*centres, indexing="ij")),
                          dtype=float)
    return GridFunction(np.broadcast_to(vals, shape).copy(), origin, dx)


def indicator(grid, lo, hi):
    return GridFunction.from_callable(
        lambda x: ((x >= lo) & (x < hi)).astype(float),
        grid.origin, grid.dx, grid.values.shape)


class TestGridFunction:
    def test_l1_distance_zero_for_equal(self):
        g = GridFunction(np.array([1.0, 2.0, 3.0]), (0.0,), (0.5,))
        assert l1_distance(g, g) == 0.0

    def test_l1_distance_unit_rectangle(self):
        g = GridFunction(np.ones(10), (0.0,), (0.1,))
        z = g.with_values(np.zeros(10))
        assert l1_distance(g, z) == pytest.approx(1.0)

    def test_l1_distance_shifted_indicator(self):
        grid = GridFunction.uniform((-1.0, 2.0), 300)  # dx = 0.01
        u = indicator(grid, 0.0, 1.0)
        v = indicator(grid, 0.3, 1.3)
        # brute-force cell sum oracle
        expect = float(np.sum(np.abs(u.values - v.values)) * 0.01)
        assert expect == pytest.approx(0.6, abs=1e-12)
        assert l1_distance(u, v) == pytest.approx(expect)

    def test_l1_distance_grid_mismatch(self):
        a = GridFunction(np.ones(4), (0.0,), (1.0,))
        b = GridFunction(np.ones(5), (0.0,), (1.0,))
        with pytest.raises(GridMismatch):
            l1_distance(a, b)

    def test_tv_constant(self):
        g = GridFunction(np.full(20, 3.7), (0.0,), (0.1,))
        assert total_variation(g) == 0.0

    def test_tv_indicator_two_jumps(self):
        grid = GridFunction.uniform((-1.0, 2.0), 300)
        assert total_variation(indicator(grid, 0.0, 1.0)) == pytest.approx(2.0)

    def test_tv_monotone_staircase(self):
        g = GridFunction(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), (0.0,), (1.0,))
        assert total_variation(g) == pytest.approx(1.0)

    def test_tv_2d_weighted(self):
        vals = np.zeros((4, 4))
        vals[1:3, 1:3] = 1.0  # 2x2 block
        g = GridFunction(vals, (0.0, 0.0), (0.5, 0.25))
        # x-direction: 2 interfaces x 2 rows... jumps along axis0: 4 of size 1,
        # each weighted by dy; axis1: 4 weighted by dx
        assert total_variation(g) == pytest.approx(4 * 0.25 + 4 * 0.5)

    def test_lookup_left_closed(self):
        g = GridFunction(np.array([1.0, 2.0]), (0.0,), (1.0,))
        vals = g.lookup(np.array([0.0, 0.999, 1.0, 1.999, 2.0, -0.1]))
        assert list(vals) == [1.0, 1.0, 2.0, 2.0, 0.0, 0.0]

    def test_lookup_clamp(self):
        g = GridFunction(np.array([1.0, 2.0]), (0.0,), (1.0,))
        vals = g.lookup(np.array([-5.0, 5.0]), outside="clamp")
        assert list(vals) == [1.0, 2.0]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lookup_rejects_an_unknown_mode(self, dim):
        # a misspelt mode would otherwise read as zero extension
        g = GridFunction.uniform(((0.0, 1.0),) * dim, (4,) * dim)
        with pytest.raises(ValueError,
                           match="'clmap' is not 'zero' or 'clamp'"):
            g.lookup(np.zeros((1, dim)), outside="clmap")

    def test_support_clearance(self):
        grid = GridFunction.uniform((0.0, 1.0), 10)
        u = grid.with_values(np.array([0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
                                      dtype=float))
        assert u.support_clearance() == pytest.approx(0.2)
        assert grid.support_clearance() == math.inf

    @pytest.mark.parametrize("values", [
        np.zeros(0), np.zeros((0, 3)),
        np.zeros(7), np.full(7, -0.0), np.zeros((4, 5)),
        np.full((4, 5), -0.0),
        np.array([-0.0, 0.0, 1.0, 0.0, -0.0]),
        np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, -3.0]),
        np.array([0.5]), np.array([[0.5]]),
        np.array([[-0.0, 0.0, 0.0], [0.0, 1.0, -0.0], [0.0, -0.0, 0.0]]),
        # support touching each edge cell of one axis, and a corner
        np.eye(4, 6, 2), np.eye(6, 4, -2), np.eye(5, 5)[:, ::-1],
        np.pad([[1.0]], ((0, 3), (2, 1))), np.pad([[1.0]], ((3, 0), (0, 4))),
    ], ids=lambda v: f"{v.shape}-{v.tobytes().hex()[:12]}")
    def test_support_clearance_against_frozen_copy(self, values):
        for dx in ((0.1,) * values.ndim, (0.3, 0.07)[:values.ndim]):
            u = GridFunction(values, (-1.0,) * values.ndim, dx)
            assert u.support_clearance() == frozen_support_clearance(u)

    @pytest.mark.parametrize("shape", [(40,), (23, 31), (31, 1), (1, 9)])
    def test_support_clearance_random_against_frozen_copy(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        for density in (0.0, 0.01, 0.2, 1.0):
            vals = np.where(rng.uniform(size=shape) < density,
                            rng.normal(size=shape), -0.0)
            u = GridFunction(vals, (0.0,) * len(shape),
                             (0.25, 0.125)[:len(shape)])
            assert u.support_clearance() == frozen_support_clearance(u)

    @pytest.mark.parametrize("f, shape", [
        (lambda x: np.clip(1 - np.abs(x), 0, None) ** 2, (21,)),
        (lambda x: 3.0, (5,)),
        (lambda x, y: np.clip(1 - 8 * (x ** 2 + y ** 2), 0, None), (17, 12)),
        (lambda x, y: np.hypot(x - 0.1, y + 0.2), (9, 14)),
        (lambda x, y: x, (6, 4)),
        (lambda x, y: y * 2.0, (3, 8)),
        (lambda x, y: -0.0, (4, 4)),
    ])
    def test_from_callable_against_frozen_copy(self, f, shape):
        origin, dx = (-1.0, -0.5)[:len(shape)], (0.1, 0.075)[:len(shape)]
        got = GridFunction.from_callable(f, origin, dx, shape)
        want = frozen_from_callable(f, origin, dx, shape)
        assert got.same_grid(want)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.flags.writeable and got.values.flags.owndata

    def test_norms_are_computed_once_per_grid(self, monkeypatch):
        from polyflow import spaces
        calls = []

        def counted(u):
            calls.append(u)
            return total_variation(u)

        monkeypatch.setattr(spaces, "total_variation", counted)
        u = GridFunction(compact_bump(30), (-1.0, -1.0), (2 / 30, 2 / 30))
        vol = u.cell_volume
        want = (float(np.sum(np.abs(u.values)) * vol),
                float(np.max(np.abs(u.values))), total_variation(u))
        assert (u.l1(), u.linf(), u.tv()) == want
        assert (u.l1(), u.linf(), u.tv()) == want
        assert calls == [u]
        # a derived grid holds other values, and measures them afresh
        v = u.with_values(-2.0 * u.values)
        assert (v.l1(), v.linf(), v.tv()) == tuple(2.0 * w for w in want)
        assert len(calls) == 2 and calls[1] is v
        assert (u.l1(), u.linf(), u.tv()) == want

    def test_csv_roundtrip_1d(self, tmp_path):
        g = GridFunction(np.array([1.5, -2.0, 0.25]), (-1.0,), (0.5,))
        g.to_csv(tmp_path / "g.csv")
        back = read_grid_csv(tmp_path / "g.csv")
        assert back.same_grid(g)
        assert np.array_equal(back.values, g.values)

    def test_csv_roundtrip_2d(self, tmp_path):
        g = GridFunction(np.arange(6, dtype=float).reshape(2, 3),
                         (0.0, 1.0), (0.5, 0.25))
        g.to_csv(tmp_path / "g.csv")
        back = read_grid_csv(tmp_path / "g.csv")
        assert back.same_grid(g)
        assert np.array_equal(back.values, g.values)


    @pytest.mark.parametrize("g", [
        GridFunction(np.array([1.5, -2.0, 0.0, -0.0, 5e-324, 1e-17, 1e300,
                               -3.0e-7]), (-1.0,), (0.1,)),
        GridFunction(np.array([[0.0, -1e-310, 2.5], [-7.25, 1e-12, 3.0]]),
                     (-0.3, 1.0), (0.1, 1.0 / 3.0)),
        GridFunction(np.array([-0.0]), (0.5,), (0.25,)),
        GridFunction(np.array([[1.5, -0.0, 2.0]]), (-0.3, 1.0), (0.1, 0.2)),
        GridFunction(np.array([[1.5], [-0.0], [2.0]]), (-0.3, 1.0),
                     (0.1, 0.2)),
        # the 2D rows call repr only between their first and last cells
        # whose bits are not +0.0, and take the margins from one list
        GridFunction(compact_bump(24), (-1.0, -1.0), (2 / 24, 2 / 24)),
        GridFunction(np.random.default_rng(5).standard_normal((7, 9)),
                     (0.25, -3.0), (0.5, 0.125)),
        GridFunction(np.zeros((4, 5)), (0.0, 0.0), (1.0, 0.1)),
        GridFunction(np.array([[0.0, -0.0, 0.0, 1.5, 0.0, 0.0],
                               [-0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, 0.0, 0.0, -0.0],
                               [0.0, 2.0, -0.0, 0.0, 3.0, 0.0],
                               [-0.0, 0.0, 1e-300, 0.0, 0.0, -0.0]]),
                     (-0.3, 1.0), (0.1, 0.2)),
        GridFunction(np.array([[0.0, 1.0, 0.0, 0.0, 2.0, 0.0],
                               [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                               [5e-324, 0.0, 0.0, 0.0, 0.0, 7.0]]),
                     (-0.3, 1.0), (0.1, 0.2)),
        GridFunction(np.array([[0.0, 0.0, -4.5, 0.0, 1.0, 0.0, 0.0]]),
                     (-0.3, 1.0), (0.1, 0.2)),
        GridFunction(np.array([[0.0], [0.0], [1.5], [0.0], [-0.0], [0.0]]),
                     (-0.3, 1.0), (0.1, 0.2)),
    ], ids=["1d", "2d", "1d-one-cell", "2d-one-row", "2d-one-column",
            "2d-compact-bump", "2d-dense", "2d-all-zero", "2d-negative-zero",
            "2d-zero-inside-span", "2d-1xn", "2d-nx1"])
    def test_csv_bytes_match_csv_writer(self, tmp_path, g):
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            xs = g.axis_centers(0)
            if g.dim == 1:
                w.writerow(["x", "value"])
                for x, v in zip(xs, g.values):
                    w.writerow([repr(float(x)), repr(float(v))])
            else:
                w.writerow(["x", "y", "value"])
                for i, x in enumerate(xs):
                    for j, y in enumerate(g.axis_centers(1)):
                        w.writerow([repr(float(x)), repr(float(y)),
                                    repr(float(g.values[i, j]))])
        g.to_csv(tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == ref.read_bytes()


def masked_zero_lookup(u, points):
    """The 1D zero-extension lookup as a boolean mask of the cells hit."""
    pts = np.asarray(points, dtype=float).reshape(-1)
    idx = np.floor((pts - u.origin[0]) / u.dx[0]).astype(np.int64)
    inside = (idx >= 0) & (idx < u.values.shape[0])
    out = np.zeros(pts.shape[0])
    out[inside] = u.values[idx[inside]]
    return out


def frozen_lookup_2d(u, points, outside):
    """The 2D lookup before the padded gather: indices in one ``(m, 2)``
    array, and a mask of the points on the grid for the zero extension."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ij = np.empty((pts.shape[0], 2), dtype=np.int64)
    for a in range(2):
        ij[:, a] = np.floor((pts[:, a] - u.origin[a]) / u.dx[a])
    if outside == "clamp":
        i = np.minimum(np.maximum(ij[:, 0], 0), u.values.shape[0] - 1)
        j = np.minimum(np.maximum(ij[:, 1], 0), u.values.shape[1] - 1)
        return u.values[i, j]
    inside = ((ij[:, 0] >= 0) & (ij[:, 0] < u.values.shape[0])
              & (ij[:, 1] >= 0) & (ij[:, 1] < u.values.shape[1]))
    out = np.zeros(pts.shape[0])
    out[inside] = u.values[ij[inside, 0], ij[inside, 1]]
    return out


def fresh_centers(u):
    """Cell centres computed from the geometry alone."""
    axes = [u.origin[a] + (np.arange(u.values.shape[a]) + 0.5) * u.dx[a]
            for a in range(u.dim)]
    if u.dim == 1:
        return axes[0]
    X, Y = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestGridFastPaths:
    """The padded zero lookup, the shared centres and the geometry check."""

    def test_zero_lookup_matches_the_masked_lookup(self):
        u = GridFunction(np.array([1.5, -0.0, -2.0, 4.0, 0.25]), (-0.5,),
                         (0.25,))
        edges = -0.5 + 0.25 * np.arange(6)
        pts = np.concatenate([
            edges, edges - 1e-15, edges + 1e-15,         # on the cell edges
            [-0.6, -5.0, -1e300, 0.75 + 1e-12, 3.0, 1e300],  # off the grid
            [-np.inf, np.inf, np.nan, -0.0, 0.0],
            np.random.default_rng(0).uniform(-1.0, 1.5, 64)])
        with np.errstate(invalid="ignore"):
            got = u.lookup(pts, outside="zero")
            want = masked_zero_lookup(u, pts)
        assert same_bits(got, want)
        assert same_bits(got[-64 - 5:-64], [0.0, 0.0, 0.0, -2.0, -2.0])

    @pytest.mark.parametrize("outside", ["zero", "clamp"])
    @pytest.mark.parametrize("shape", [(4, 3), (1, 1), (1, 5), (6, 1)])
    def test_2d_lookup_matches_the_frozen_copy(self, outside, shape):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-2.0, 2.0, shape)
        vals[0, 0], vals[-1, -1] = -0.0, 0.0
        u = GridFunction(vals, (-0.5, 0.25), (0.25, 0.5))
        edges = [u.origin[a] + u.dx[a] * np.arange(shape[a] + 1)
                 for a in range(2)]
        e0, e1 = np.meshgrid(np.concatenate([edges[0], edges[0] - 1e-15]),
                             np.concatenate([edges[1], edges[1] + 1e-15]),
                             indexing="ij")
        special = [-np.inf, np.inf, np.nan, -0.0, 1e300, -1e300, -5.0, 9.0]
        s0, s1 = np.meshgrid(special, special + [0.3], indexing="ij")
        pts = np.concatenate([
            np.column_stack([e0.ravel(), e1.ravel()]),  # on the cell edges
            np.column_stack([s0.ravel(), s1.ravel()]),  # off grid and NaN
            rng.uniform(-1.0, 3.5, (64, 2))])
        with np.errstate(invalid="ignore"):
            got = u.lookup(pts, outside=outside)
            want = frozen_lookup_2d(u, pts, outside)
        assert same_bits(got, want)
        assert same_bits(u.lookup(pts[:0], outside=outside),
                         frozen_lookup_2d(u, pts[:0], outside))

    def test_zero_lookup_of_a_single_cell(self):
        u = GridFunction(np.array([3.0]), (0.0,), (1.0,))
        pts = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
        assert same_bits(u.lookup(pts), masked_zero_lookup(u, pts))

    @pytest.mark.parametrize("shape", [(7,), (4, 3)])
    def test_centers_are_shared_read_only(self, shape):
        u = GridFunction(np.ones(shape), (-0.3, 0.1)[:len(shape)],
                         (0.2, 0.5)[:len(shape)])
        pts = u.centers()
        assert same_bits(pts, fresh_centers(u))
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 1.0
        derived = u.with_values(np.zeros(shape))
        assert u.centers() is pts and derived.centers() is pts

    def test_with_values_of_another_shape_has_its_own_centers(self):
        u = GridFunction(np.ones(4), (0.0,), (0.5,))
        u.centers()
        longer = u.with_values(np.ones(6))
        assert same_bits(longer.centers(), fresh_centers(longer))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_with_values_rejects_non_finite(self, bad):
        u = GridFunction(np.ones(4), (0.0,), (0.5,))
        vals = np.ones(4)
        vals[2] = bad
        with pytest.raises(ValueError, match="finite"):
            u.with_values(vals)

    @pytest.mark.parametrize("vals", [np.ones((2, 2, 2)), np.float64(1.0)])
    def test_with_values_rejects_wrong_dimension(self, vals):
        u = GridFunction(np.ones(4), (0.0,), (0.5,))
        with pytest.raises(ValueError, match="dimension"):
            u.with_values(vals)

    @pytest.mark.parametrize("shape", [(5,), (3, 4)])
    def test_with_values_inherits_the_checked_geometry(self, shape):
        u = GridFunction(np.ones(shape), [np.float64(0.5), 1][:len(shape)],
                         np.array([2, 0.25])[:len(shape)])
        centres = u.centers()
        out = u.with_values(np.arange(math.prod(shape)).reshape(shape))
        # the origin and spacing objects are handed on, not renormalised
        assert out.origin is u.origin and out.dx is u.dx
        assert out.centers() is centres
        assert same_bits(out.values, np.arange(math.prod(shape), dtype=float)
                         .reshape(shape))
        # without computed centres the derived grid computes its own
        fresh = GridFunction(np.ones(shape), u.origin, u.dx)
        derived = fresh.with_values(np.zeros(shape))
        assert same_bits(derived.centers(), fresh_centers(fresh))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_with_values_of_the_same_2d_shape_rejects_non_finite(self, bad):
        u = GridFunction(np.ones((3, 2)), (0.0, 1.0), (0.5, 0.5))
        vals = np.ones((3, 2))
        vals[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            u.with_values(vals)

    def test_with_values_of_another_shape_is_fully_validated(self):
        u = GridFunction(np.ones(4), (0.0,), (0.5,))
        # a 2D array on a 1D geometry: origin and dx have one entry
        with pytest.raises(ValueError, match="length"):
            u.with_values(np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            u.with_values(np.array([1.0, np.nan, 2.0]))
        longer = u.with_values(np.ones(6))
        assert (longer.origin, longer.dx) == ((0.0,), (0.5,))
        assert same_bits(longer.values, np.ones(6))

    def test_geometry_normalised_when_not_plain_floats(self):
        u = GridFunction(np.ones(3), [np.float64(0.5)], np.array([2]))
        assert u.origin == (0.5,) and u.dx == (2.0,)
        assert all(type(v) is float for v in u.origin + u.dx)
        with pytest.raises(ValueError, match="length"):
            GridFunction(np.ones(3), (0.0, 1.0), (1.0,))
        with pytest.raises(ValueError, match="positive"):
            GridFunction(np.ones(3), (0.0,), (-1.0,))

    @pytest.mark.parametrize("where, bad, message", [
        ("origin", np.nan, "finite"), ("origin", np.inf, "finite"),
        ("origin", -np.inf, "finite"), ("dx", np.nan, "finite"),
        ("dx", np.inf, "finite"), ("dx", -np.inf, "positive")])
    def test_geometry_must_be_finite(self, where, bad, message):
        # its centres would all be NaN or infinite
        for shape, good in (((3,), (0.5,)), ((3, 2), (0.5, 0.5))):
            geometry = {"origin": good, "dx": good}
            geometry[where] = good[:-1] + (bad,)
            with pytest.raises(ValueError, match=message):
                GridFunction(np.ones(shape), **geometry)


class TestFlatDistance:
    def test_identical(self):
        mu = AtomicMeasure(np.array([0.5, 1.5]), np.array([0.3, 0.7]))
        assert flat_distance(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_same_site_mass_gap(self):
        # optimal test function is constant +-1
        mu = AtomicMeasure(np.array([1.0]), np.array([0.8]))
        nu = AtomicMeasure(np.array([1.0]), np.array([0.3]))
        assert flat_distance(mu, nu) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("h,expect", [(0.25, 0.25), (1.0, 1.0),
                                          (2.0, 2.0), (5.0, 2.0)])
    def test_unit_atoms_translate(self, h, expect):
        mu = AtomicMeasure(np.array([0.0]), np.array([1.0]))
        nu = AtomicMeasure(np.array([h]), np.array([1.0]))
        assert flat_distance(mu, nu) == pytest.approx(expect, abs=1e-9)

    def test_brute_force_oracle(self):
        # independent oracle: grid search over test-function values at the
        # atoms subject to |phi| <= 1 and pairwise slope <= 1
        rng = np.random.default_rng(7)
        for _ in range(5):
            pos = np.sort(rng.uniform(0, 2, 3))
            mu = AtomicMeasure(pos, rng.uniform(0, 1, 3))
            nu = AtomicMeasure(pos, rng.uniform(0, 1, 3))
            w = mu.masses - nu.masses
            grid = np.linspace(-1, 1, 81)
            best = -np.inf
            for a in grid:
                for b in grid:
                    if abs(b - a) > pos[1] - pos[0] + 1e-12:
                        continue
                    for c in grid:
                        if abs(c - b) > pos[2] - pos[1] + 1e-12:
                            continue
                        best = max(best, a * w[0] + b * w[1] + c * w[2])
            got = flat_distance(mu, nu)
            assert got == pytest.approx(best, abs=2e-2)
            assert got >= best - 1e-9  # grid search only undershoots

    def test_mass_difference_lower_bound_and_tv_upper(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = AtomicMeasure(rng.uniform(0, 3, 4), rng.uniform(0, 1, 4))
            nu = AtomicMeasure(rng.uniform(0, 3, 3), rng.uniform(0, 1, 3))
            d = flat_distance(mu, nu)
            assert d >= abs(mu.total_mass() - nu.total_mass()) - 1e-9
            assert d <= mu.total_mass() + nu.total_mass() + 1e-9

    def test_bounded_by_shared_site_mass_gap(self):
        # constant +-1 test functions are feasible, so the flat distance
        # never exceeds the per-site mass differences
        rng = np.random.default_rng(8)
        for _ in range(10):
            pos = np.sort(rng.uniform(0, 2, 5))
            m1, m2 = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
            d = flat_distance(AtomicMeasure(pos, m1), AtomicMeasure(pos, m2))
            assert d <= float(np.sum(np.abs(m1 - m2))) + 1e-9

    def test_empty_measure(self):
        mu = AtomicMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        assert flat_distance(mu, AtomicMeasure.empty()) == pytest.approx(
            0.75, abs=1e-9)
        assert flat_distance(AtomicMeasure.empty(),
                             AtomicMeasure.empty()) == 0.0

    def test_matches_lp_oracle(self):
        # empty sides, shared sites, gaps of 2 and more, up to 8 atoms a side
        rng = np.random.default_rng(12)
        for trial in range(400):
            n_mu, n_nu = rng.integers(0, 9, 2)
            span = (0.5, 3.0, 20.0)[trial % 3]
            p_mu = rng.uniform(0, span, n_mu)
            p_nu = rng.uniform(0, span, n_nu)
            shared = min(n_mu, n_nu) // 2
            p_nu[:shared] = p_mu[:shared]
            mu = AtomicMeasure(p_mu, rng.uniform(0, 1, n_mu))
            nu = AtomicMeasure(p_nu, rng.uniform(0, 1, n_nu))
            assert abs(flat_distance(mu, nu) - _flat_distance_lp(mu, nu)) \
                <= 1e-12


def _flat_distance_lp(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """The flat distance as a linear program over test-function values."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix
    if mu.n_atoms == 0 and nu.n_atoms == 0:
        return 0.0
    pos = np.concatenate([mu.positions, nu.positions])
    sgn = np.concatenate([mu.masses, -nu.masses])
    nodes, inv = np.unique(pos, return_inverse=True)
    weights = np.zeros(nodes.size)
    np.add.at(weights, inv, sgn)
    gaps = np.diff(nodes)
    rows, cols, data = [], [], []
    for i in range(gaps.size):
        rows += [2 * i, 2 * i, 2 * i + 1, 2 * i + 1]
        cols += [i + 1, i, i, i + 1]
        data += [1.0, -1.0, 1.0, -1.0]
    a_ub = coo_matrix((data, (rows, cols)), shape=(2 * gaps.size, nodes.size))
    res = linprog(-weights, A_ub=a_ub, b_ub=np.repeat(gaps, 2),
                  bounds=[(-1.0, 1.0)] * nodes.size, method="highs")
    assert res.success, res.message
    return float(-res.fun)


class TestMetricAxioms:
    def spaces(self):
        rng = np.random.default_rng(11)
        grid = GridFunction.uniform((0.0, 1.0), 16)
        def rand_grid():
            return grid.with_values(rng.uniform(-1, 1, 16))
        def rand_measure():
            n = rng.integers(1, 4)
            return AtomicMeasure(rng.uniform(0, 2, n), rng.uniform(0, 1, n))
        return [(l1_distance, rand_grid), (flat_distance, rand_measure),
                (euclidean_distance, lambda: rng.uniform(-1, 1, 3))]

    def test_axioms_random_triples(self):
        for dist, sample in self.spaces():
            for _ in range(10):
                a, b, c = sample(), sample(), sample()
                assert dist(a, a) <= 1e-12
                assert abs(dist(a, b) - dist(b, a)) <= 1e-12
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


class TestEuclideanDistance:
    @pytest.mark.parametrize("a, b", [
        (0.1, -2.0 / 3.0),
        (np.array([0.1]), np.array([1.0 / 3.0])),
        ((0.1, 0.2, 0.3), (1.0 / 3.0, 2.0 / 7.0, 5.0 / 11.0)),
    ])
    def test_is_the_norm_of_the_difference(self, a, b):
        expected = float(np.linalg.norm(np.asarray(a, float)
                                        - np.asarray(b, float)))
        got = euclidean_distance(a, b)
        assert type(got) is float and got == expected


class TestAtomicMeasure:
    def test_merge_conserves_mass_bitexact(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 1e-6, 8)
        mas = rng.uniform(0, 1, 8)
        mu = AtomicMeasure(pos, mas)
        merged = mu.merged(1.0)
        assert merged.n_atoms == 1
        assert merged.total_mass() == mu.total_mass()

    def test_merge_weighted_position(self):
        mu = AtomicMeasure(np.array([0.0, 1.0]), np.array([3.0, 1.0]))
        merged = mu.merged(2.0)
        assert merged.n_atoms == 1
        assert merged.positions[0] == pytest.approx(0.25)

    def test_sorted_and_nonnegative(self):
        mu = AtomicMeasure(np.array([2.0, 1.0]), np.array([0.1, 0.2]))
        assert list(mu.positions) == [1.0, 2.0]
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([1.0]), np.array([-0.1]))


class TestBvTimeSeries:
    def test_left_continuous_evaluation(self):
        b = BvTimeSeries(np.array([0.0, 1.0]), np.array([5.0, 7.0]))
        assert float(b(1.0)) == 5.0       # left limit at the jump
        assert float(b(1.0 + 1e-12)) == 7.0
        assert float(b(0.5)) == 5.0
        assert float(b(-3.0)) == 5.0      # constant extension on the left

    def test_tv_subinterval(self):
        b = BvTimeSeries(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]))
        assert b.tv() == pytest.approx(3.0)
        assert b.tv(1.5, 3.0) == pytest.approx(2.0)
        assert b.tv(2.5, 3.0) == pytest.approx(0.0)

    def test_l1(self):
        b = BvTimeSeries(np.array([0.0, 1.0]), np.array([2.0, -1.0]))
        assert b.l1(0.0, 2.0) == pytest.approx(2.0 + 1.0)

    @pytest.mark.parametrize("times, vals", [
        ([0.0, math.nan], [1.0, 2.0]), ([0.0, math.inf], [1.0, 2.0]),
        ([0.0, 1.0], [1.0, math.nan]), ([0.0], [-math.inf])])
    def test_non_finite_samples_rejected(self, times, vals):
        with pytest.raises(ValueError, match="samples must be finite"):
            BvTimeSeries(np.array(times), np.array(vals))

    @pytest.mark.parametrize("b", [
        BvTimeSeries(np.array([-1.0, 0.0, 0.5, 2.0]),
                     np.array([3.0, -0.0, 7.5, 1.0])),
        BvTimeSeries.constant(2.5)])
    def test_scalar_path_matches_the_array_path(self, b):
        times = [-1.0, 0.0, 0.5, 2.0,                 # the sample times
                 -1.5, -1e300, 2.5, 1e300,            # before, after
                 0.25, 0.5 + 1e-16, -0.0,
                 -math.inf, math.inf, math.nan]
        for t in times + [np.float64(t) for t in times]:
            got = b(t)
            # searchsorted puts NaN after every sample time
            idx = np.searchsorted(b.times, np.asarray([t]), side="left") - 1
            want = b.vals[np.minimum(np.maximum(idx, 0), b.vals.size - 1)]
            assert type(got) is np.float64
            assert same_bits(got, want[0]), t
            assert same_bits(got, b(np.array([t]))[0]), t
        assert float(b(math.nan)) == b.vals[-1]
        assert float(b(-math.inf)) == b.vals[0]

    def test_scalar_path_matches_the_array_path_on_many_samples(self):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.uniform(0.01, 1.0, 40)) - 5.0
        vals = rng.uniform(-2.0, 2.0, 40)
        vals[::7] = -0.0
        b = BvTimeSeries(times, vals)
        queries = np.concatenate([
            times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
            rng.uniform(times[0] - 1.0, times[-1] + 1.0, 200),
            [-0.0, 0.0, -np.inf, np.inf, np.nan, -1e308, 1e308]])
        want = b(queries)
        for q, expect in zip(queries.tolist(), want):
            got = b(q)
            assert type(got) is np.float64
            assert same_bits(got, expect), q
        # a 0-d array and an integer take the array path
        assert same_bits(b(np.array(times[3])), want[3])
        assert same_bits(b(int(times[-1]) + 1), vals[-1])


def loop_shifted_l1_difference(u, delta):
    """Reference: the shift integral summed cell by cell, term by term."""
    vals, n = u.values, u.values.shape[0]
    dx, org = u.dx[0], u.origin[0]
    total = 0.0
    for i in range(n):
        a = org + i * dx + float(delta.values[i])
        b = a + dx
        j0 = int(math.floor((a - org) / dx))
        j1 = int(math.floor((b - org) / dx - 1e-15))
        acc = 0.0
        for j in range(j0, j1 + 1):
            lo = max(a, org + j * dx)
            hi = min(b, org + (j + 1) * dx)
            if hi <= lo:
                continue
            jj = min(max(j, 0), n - 1)
            acc += (hi - lo) * abs(vals[jj] - vals[i])
        total += acc
    return total


class TestShiftedL1Difference:
    """The vectorized shift integral adds in the loop's order: equal bits."""

    def random_steps(self, rng, n, box=(-1.0, 2.0)):
        grid = GridFunction.uniform(box, n)
        cuts = np.sort(rng.integers(0, n, 8))
        vals = np.zeros(n)
        for lo, hi in zip(cuts[::2], cuts[1::2]):
            vals[lo:hi] += rng.uniform(-1, 1)
        return grid.with_values(vals)

    @pytest.mark.parametrize("seed", range(6))
    def test_shifts_of_several_cells(self, seed):
        rng = np.random.default_rng(seed)
        u = self.random_steps(rng, 160)
        d = u.with_values(rng.uniform(0.0, 6 * u.dx[0], 160))
        assert shifted_l1_difference(u, d) == loop_shifted_l1_difference(u, d)

    @pytest.mark.parametrize("seed", range(4))
    def test_shifts_past_the_right_edge(self, seed):
        rng = np.random.default_rng(100 + seed)
        u = self.random_steps(rng, 60)
        u = u.with_values(u.values + np.linspace(0.0, 1.0, 60))
        d = u.with_values(rng.uniform(0.0, 1.5, 60))  # box length 3
        assert d.values[-1] > 0
        assert shifted_l1_difference(u, d) == loop_shifted_l1_difference(u, d)

    def test_cell_aligned_shift(self):
        u = self.random_steps(np.random.default_rng(8), 50, box=(0.0, 1.0))
        d = u.with_values(np.full(50, 3 * u.dx[0]))
        assert shifted_l1_difference(u, d) == loop_shifted_l1_difference(u, d)

    def test_overlap_below_the_cutoff_is_skipped(self):
        # cell 0 reaches 2**-52 into cell 1, under the 1e-15 cutoff; the
        # half-cell shift of cell 1 makes every cell visit a second cell
        u = GridFunction(np.array([0.0, 1.0, 2.0, 3.0]), (0.0,), (1.0,))
        d = u.with_values(np.array([2.0 ** -52, 0.5, 0.0, 0.0]))
        assert shifted_l1_difference(u, d) == loop_shifted_l1_difference(u, d)
        assert shifted_l1_difference(u, d) == 0.5

    def test_one_cell_grid(self):
        u = GridFunction(np.array([0.7]), (0.0,), (0.5,))
        for shift in (0.0, 0.2, 3.0):
            d = u.with_values(np.array([shift]))
            assert shifted_l1_difference(u, d) == 0.0
            assert loop_shifted_l1_difference(u, d) == 0.0

    def test_rejects_negative_shift_and_2d(self):
        u = GridFunction.uniform((0.0, 1.0), 10)
        with pytest.raises(ValueError):
            shifted_l1_difference(u, u.with_values(np.full(10, -0.1)))
        u2 = GridFunction.uniform([(0.0, 1.0), (0.0, 1.0)], (4, 4))
        with pytest.raises(ValueError):
            shifted_l1_difference(u2, u2)
        with pytest.raises(GridMismatch):
            shifted_l1_difference(u, GridFunction.uniform((0.0, 1.0), 11))


class TestBvEstimates:
    def test_constant_pair_margins_equal_rhs(self):
        grid = GridFunction.uniform((0.0, 1.0), 10)
        c = grid.with_values(np.full(10, 2.0))
        d = grid.with_values(np.full(10, 0.1))
        for chk in bv_estimate_checks(c, c, d):
            assert chk.lhs == pytest.approx(0.0, abs=1e-14)
            assert chk.margin == pytest.approx(chk.rhs, abs=1e-14)

    def test_indicator_times_ramp(self):
        grid = GridFunction.uniform((-1.0, 2.0), 120)
        u = indicator(grid, 0.0, 1.0)
        xs = grid.axis_centers(0)
        w = grid.with_values(np.clip(xs, 0.0, 1.0))
        d = grid.with_values(np.zeros(120))
        prod = next(c for c in bv_estimate_checks(u, w, d)
                    if c.name == "bv/tv-product-rule")
        assert prod.lhs <= prod.rhs - 1e-6  # strict margin

    def test_shift_bound_exact_at_constant_shift(self):
        grid = GridFunction.uniform((-1.0, 2.0), 300)  # dx = 0.01
        u = indicator(grid, 0.0, 1.0)
        d = grid.with_values(np.full(300, 0.2))
        lhs = shifted_l1_difference(u, d)
        assert lhs == pytest.approx(0.4, abs=1e-12)
        shift = next(c for c in bv_estimate_checks(u, u, d)
                     if c.name == "bv/l1-shift-bound")
        assert shift.lhs == pytest.approx(0.4, abs=1e-12)
        assert shift.rhs == pytest.approx(0.4, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=4, max_size=24),
           st.lists(st.floats(-2, 2), min_size=4, max_size=24),
           st.integers(0, 10 ** 6))
    def test_random_pairs_hold(self, uv, wv, dseed):
        n = min(len(uv), len(wv))
        grid = GridFunction.uniform((0.0, 1.0), n)
        u = grid.with_values(np.array(uv[:n]))
        w = grid.with_values(np.array(wv[:n]))
        rng = np.random.default_rng(dseed)
        d = grid.with_values(rng.uniform(0, 0.5, n))
        assert all(c.passed for c in bv_estimate_checks(u, w, d))
