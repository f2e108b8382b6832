import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyflow import claw
from polyflow.claw import (_WINDOW_BLOCK, ParamFlux, audit_flux,
                           claw_constants, claw_solve_many,
                           entropy_residuals, godunov_flux)
from polyflow.errors import ClearanceViolated
from polyflow.spaces import GridFunction, l1_distance


@pytest.fixture
def burgers():
    return ParamFlux(f=lambda u, w: 0.5 * u * u, lip=1.0,
                     critical_points=(0.0,))


@pytest.fixture
def grid():
    return GridFunction.uniform((-2.0, 3.0), 2000)  # dx = 1/400


def random_steps(rng, grid, n_steps=6):
    xs = grid.axis_centers(0)
    vals = np.zeros(xs.shape[0])
    edges = np.sort(rng.uniform(-0.8, 1.8, 2 * n_steps))
    for i in range(n_steps):
        vals += rng.uniform(-1, 1) * ((xs >= edges[2 * i])
                                      & (xs < edges[2 * i + 1]))
    return grid.with_values(vals)


class TestGodunovFlux:
    def test_consistency(self, burgers):
        for u in (-1.3, 0.0, 0.25, 2.0):
            assert godunov_flux(burgers, u, u, None) == pytest.approx(
                0.5 * u * u)

    def test_shock_configuration(self, burgers):
        assert godunov_flux(burgers, 1.0, 0.0, None) == pytest.approx(0.5)

    def test_sonic_rarefaction(self, burgers):
        assert godunov_flux(burgers, -1.0, 1.0, None) == pytest.approx(0.0)

    def test_vectorized(self, burgers):
        ul = np.array([1.0, -1.0, 0.3])
        ur = np.array([0.0, 1.0, 0.3])
        out = godunov_flux(burgers, ul, ur, None)
        assert out == pytest.approx([0.5, 0.0, 0.045])

    def test_scalar_against_array(self, burgers):
        right = np.array([0.1, -0.7])
        for ul, ur in ((0.5, right), (right, 0.5)):
            out = godunov_flux(burgers, ul, ur, None)
            assert isinstance(out, np.ndarray) and out.shape == (2,)
            assert list(out) == [godunov_flux(burgers, float(a), float(b),
                                              None)
                                 for a, b in np.broadcast(ul, ur)]
        assert isinstance(godunov_flux(burgers, 0.5, 0.1, None), float)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    def test_monotone(self, ul, ur, d):
        flux = ParamFlux(f=lambda u, w: 0.5 * u * u, lip=2.0,
                         critical_points=(0.0,))
        d = abs(d)
        base = godunov_flux(flux, ul, ur, None)
        assert godunov_flux(flux, ul + d, ur, None) >= base - 1e-12
        assert godunov_flux(flux, ul, ur + d, None) <= base + 1e-12


class TestClawSolve:
    def test_burgers_shock(self, burgers, grid):
        xs = grid.axis_centers(0)
        u0 = grid.with_values((xs < 0.0).astype(float))
        got = claw_solve_many(burgers, [u0], None, 0.0, 1.0)[0]
        ref = grid.with_values((xs < 0.5).astype(float))
        assert l1_distance(got, ref) <= 2 * grid.dx[0]

    def test_burgers_rarefaction(self, burgers, grid):
        xs = grid.axis_centers(0)
        u0 = grid.with_values((xs >= 0.0).astype(float))
        got = claw_solve_many(burgers, [u0], None, 0.0, 1.0)[0]
        ref = grid.with_values(np.clip(xs, 0.0, 1.0))
        dx = grid.dx[0]
        assert l1_distance(got, ref) <= 5 * dx * abs(math.log(dx))

    def test_linear_advection_unit_courant(self, grid):
        flux = ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7)
        xs = grid.axis_centers(0)
        u0 = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
        got = claw_solve_many(flux, [u0], None, 0.0, 1.0, cfl=1.0)[0]
        ref = grid.with_values(((xs >= 0.7) & (xs < 1.7)).astype(float))
        assert l1_distance(got, ref) <= 2 * grid.dx[0]

    def test_parametrized_flux(self, grid):
        flux = ParamFlux(f=lambda u, w: w * u, lip=1.0)
        xs = grid.axis_centers(0)
        u0 = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
        got = claw_solve_many(flux, [u0], 0.5, 0.0, 1.0, cfl=1.0)[0]
        # parameter halves the speed (lip certificate still 1 -> courant 1/2)
        ref_mass = u0.mass()
        assert got.mass() == pytest.approx(ref_mass, abs=1e-12)

    def test_clearance_violation(self, burgers, grid):
        xs = grid.axis_centers(0)
        ramp = grid.with_values(np.clip(xs, -1.0, 1.0))  # varies at edges
        with pytest.raises(ClearanceViolated):
            claw_solve_many(burgers, [ramp], None, 0.0, 1.0)[0]

    def test_contraction_and_tvd(self, burgers, grid):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u1 = random_steps(rng, grid)
            u2 = random_steps(rng, grid)
            v1 = claw_solve_many(burgers, [u1], None, 0.0, 0.25)[0]
            v2 = claw_solve_many(burgers, [u2], None, 0.0, 0.25)[0]
            assert l1_distance(v1, v2) <= l1_distance(u1, u2) + 1e-10
            assert v1.tv() <= u1.tv() + 1e-10

    def test_conservation(self, burgers, grid):
        rng = np.random.default_rng(9)
        u0 = random_steps(rng, grid)
        got = claw_solve_many(burgers, [u0], None, 0.0, 0.5)[0]
        assert abs(got.mass() - u0.mass()) <= 1e-12

    def test_entropy_residuals(self, burgers, grid):
        rng = np.random.default_rng(13)
        u0 = random_steps(rng, grid)
        dx = grid.dx[0]
        dt = 0.9 * dx / burgers.lip
        stepped = claw_solve_many(burgers, [u0], None, 0.0, dt)[0]
        for k in rng.uniform(-1, 1, 8):
            res = entropy_residuals(burgers, u0.values, stepped.values,
                                    float(k), dt, dx, None)
            assert float(np.min(res)) >= -1e-10

    def test_semigroup(self, burgers, grid):
        xs = grid.axis_centers(0)
        u0 = grid.with_values((xs < 0.0).astype(float))
        direct = claw_solve_many(burgers, [u0], None, 0.0, 1.0)[0]
        mid = claw_solve_many(burgers, [u0], None, 0.0, 0.5)[0]
        rest = claw_solve_many(burgers, [mid], None, 0.5, 0.5)[0]
        assert l1_distance(rest, direct) <= 5 * (2 * grid.dx[0])


def where_godunov_flux(flux, ul, ur, w):
    """The Godunov flux rebuilt with ``np.where`` at every critical point."""
    fl, fr = flux(ul, w), flux(ur, w)
    vmin, vmax = np.minimum(fl, fr), np.maximum(fl, fr)
    lo, hi = np.minimum(ul, ur), np.maximum(ul, ur)
    for c in flux.critical_points:
        inside = (lo < c) & (c < hi)
        if np.any(inside):
            fc = float(flux(np.array([c]), w)[0])
            vmin = np.where(inside, np.minimum(vmin, fc), vmin)
            vmax = np.where(inside, np.maximum(vmax, fc), vmax)
    return np.where(ul <= ur, vmin, vmax)


def full_grid_solve(flux, u0, w, t0, t, cfl=0.9):
    """Reference: every step updates every cell of the grid."""
    u = u0.values.copy()
    dx = u0.dx[0]
    dt_max = cfl * dx / flux.lip if flux.lip > 0 else (t - t0)
    now = t0
    while now < t - 1e-15 * max(1.0, abs(t)):
        dt = min(dt_max, t - now)
        padded = np.concatenate([u[:1], u, u[-1:]])
        f_iface = where_godunov_flux(flux, padded[:-1], padded[1:], w)
        u = u - (dt / dx) * (f_iface[1:] - f_iface[:-1])
        now += dt
    return u


def cubic():
    # f' = u^2 - 1 on [-2, 2]: non-convex, extrema at -1 and 1
    return ParamFlux(f=lambda u, w: u ** 3 / 3 - u, lip=3.0,
                     critical_points=(-1.0, 1.0))


class TestWindowedSolve:
    """``claw_solve_many`` steps only near the jumps; it must equal the full
    grid bit for bit."""

    def assert_matches_full_grid(self, flux, u0, w, t, cfl=0.9):
        before = u0.values.copy()
        got = claw_solve_many(flux, [u0], w, 0.0, t, cfl=cfl)[0]
        assert (got.values.tobytes()
                == full_grid_solve(flux, u0, w, 0.0, t, cfl).tobytes())
        assert np.array_equal(u0.values, before)
        return got

    @pytest.mark.parametrize("seed", range(5))
    def test_burgers_random_steps(self, burgers, grid, seed):
        rng = np.random.default_rng(seed)
        for t in (0.25, 0.6):
            self.assert_matches_full_grid(burgers, random_steps(rng, grid),
                                          None, t)

    @pytest.mark.parametrize("seed", range(3))
    def test_two_critical_points(self, grid, seed):
        u0 = random_steps(np.random.default_rng(seed), grid)
        u0 = u0.with_values(2.0 * u0.values)
        self.assert_matches_full_grid(cubic(), u0, None, 0.2)

    def test_lean_flux_kernel_matches_where(self):
        rng = np.random.default_rng(7)
        ul, ur = rng.uniform(-2, 2, (2, 500))
        assert np.array_equal(godunov_flux(cubic(), ul, ur, None),
                              where_godunov_flux(cubic(), ul, ur, None))

    def test_jumps_at_the_edge_collar(self, burgers):
        # 5-cell collars for lip * t = 0.1; at cfl 0.3 the fans reach the
        # edge cells after five of the 14 steps
        grid = GridFunction.uniform((0.0, 1.0), 40)
        vals = np.random.default_rng(3).uniform(-0.5, 0.5, 40)
        vals[:5], vals[-5:] = -1.0, 1.0
        u0 = grid.with_values(vals)
        got = self.assert_matches_full_grid(burgers, u0, None, 0.1, cfl=0.3)
        assert got.values[0] != -1.0 and got.values[-1] != 1.0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_edge_cell_with_slow_inflow(self, side):
        # -1.002 enters slowly past the sonic point -1 and the fan next to
        # it moves the edge cell; the next step reads the pad, so the pad
        # must follow the edge cell (mirrored: flux -f, datum reversed)
        grid = GridFunction.uniform((0.0, 1.0), 30)
        vals = np.full(30, 0.5)
        vals[:3], vals[-3:] = -1.002, 0.9
        flux = cubic()
        if side == "right":
            flux = ParamFlux(f=lambda u, w: u - u ** 3 / 3, lip=3.0,
                             critical_points=(-1.0, 1.0))
            vals = vals[::-1].copy()
        u0 = grid.with_values(vals)
        got = self.assert_matches_full_grid(flux, u0, None, 0.02, cfl=0.3)
        edge = 0 if side == "left" else -1
        assert got.values[edge] != u0.values[edge]

    def test_constant_datum(self, burgers, grid):
        u0 = grid.with_values(np.full(2000, 0.3))
        got = self.assert_matches_full_grid(burgers, u0, None, 0.5)
        assert np.array_equal(got.values, u0.values)

    def test_zero_lipschitz_flux(self, grid):
        flux = ParamFlux(f=lambda u, w: np.full(np.shape(u), 0.25), lip=0.0)
        u0 = random_steps(np.random.default_rng(2), grid)
        got = self.assert_matches_full_grid(flux, u0, None, 0.5)
        assert np.array_equal(got.values, u0.values)

    def test_unit_courant_advection(self, grid):
        flux = ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7)
        xs = grid.axis_centers(0)
        box = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
        self.assert_matches_full_grid(flux, box, None, 1.0, cfl=1.0)
        u0 = random_steps(np.random.default_rng(5), grid)
        self.assert_matches_full_grid(flux, u0, None, 0.25, cfl=1.0)

    def test_parametrized_flux(self, grid):
        flux = ParamFlux(f=lambda u, w: w * u, lip=1.0)
        u0 = random_steps(np.random.default_rng(6), grid)
        self.assert_matches_full_grid(flux, u0, 0.5, 0.4)


def record_interfaces(monkeypatch):
    """Interfaces handed to each Godunov flux selection of the solver."""
    calls = []
    select = claw._godunov_select

    def counted(ul, ur, fl, fr, crit):
        calls.append(np.size(ul))
        return select(ul, ur, fl, fr, crit)

    monkeypatch.setattr(claw, "_godunov_select", counted)
    return calls


def union_hull_interfaces(data, t, cfl=0.9):
    """Interfaces stepped by one window around the union of the data's jump
    hulls, widened by ``_WINDOW_BLOCK`` cells every ``_WINDOW_BLOCK`` steps."""
    jumps = [np.flatnonzero(np.diff(u.values)) for u in data]
    jumps = [j for j in jumps if j.size]
    n = data[0].values.size
    lo = min(int(j[0]) for j in jumps) + 1
    hi = max(int(j[-1]) for j in jumps) + 3
    dt_max = cfl * data[0].dx[0]
    now, steps, total = 0.0, 0, 0
    while now < t - 1e-15 * max(1.0, t):
        if steps % _WINDOW_BLOCK == 0:
            lo = max(1, lo - _WINDOW_BLOCK)
            hi = min(n + 1, hi + _WINDOW_BLOCK)
        total += len(jumps) * (hi - lo + 1)
        now += min(dt_max, t - now)
        steps += 1
    return total


class TestSolveMany:
    """``claw_solve_many`` evolves a block of data in one loop; each result
    must equal its datum's own solve and the full grid bit for bit."""

    def assert_matches_one_by_one(self, flux, data, w, t, cfl=0.9):
        before = [u.values.copy() for u in data]
        got = claw_solve_many(flux, data, w, 0.0, t, cfl=cfl)
        assert len(got) == len(data)
        for u, v in zip(data, got):
            assert v.same_grid(u)
            assert (v.values.tobytes()
                    == claw_solve_many(flux, [u], w, 0.0, t,
                                       cfl)[0].values.tobytes())
            assert (v.values.tobytes()
                    == full_grid_solve(flux, u, w, 0.0, t, cfl).tobytes())
        for u, vals in zip(data, before):
            assert np.array_equal(u.values, vals)
        return got

    @pytest.mark.parametrize("seed", range(5))
    def test_burgers_random_steps(self, burgers, grid, seed):
        rng = np.random.default_rng(seed)
        data = [random_steps(rng, grid) for _ in range(6)]
        self.assert_matches_one_by_one(burgers, data, None, 0.25)

    def test_two_critical_points(self, grid):
        rng = np.random.default_rng(11)
        data = [grid.with_values(2.0 * random_steps(rng, grid).values)
                for _ in range(4)]
        self.assert_matches_one_by_one(cubic(), data, None, 0.2)

    def test_unit_courant_advection(self, grid):
        flux = ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7)
        xs = grid.axis_centers(0)
        box = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
        data = [box, random_steps(np.random.default_rng(5), grid)]
        self.assert_matches_one_by_one(flux, data, None, 0.25, cfl=1.0)

    def test_constant_datum_among_jumping_ones(self, burgers, grid):
        rng = np.random.default_rng(8)
        still = grid.with_values(np.full(2000, 0.3))
        data = [random_steps(rng, grid), still, random_steps(rng, grid)]
        got = self.assert_matches_one_by_one(burgers, data, None, 0.3)
        assert np.array_equal(got[1].values, still.values)

    def test_jump_hulls_far_apart(self, burgers):
        # one hull near each edge: the block's window spans both, so each
        # datum is stepped far from its own jumps
        grid = GridFunction.uniform((0.0, 10.0), 1000)
        xs = grid.axis_centers(0)
        left = grid.with_values(np.where((xs > 1.0) & (xs < 1.5), 1.0, 0.0))
        right = grid.with_values(np.where((xs > 8.5) & (xs < 9.0), -0.5,
                                          0.0))
        got = self.assert_matches_one_by_one(burgers, [left, right], None,
                                             0.5)
        assert np.array_equal(got[0].values[500:], left.values[500:])
        assert np.array_equal(got[1].values[:500], right.values[:500])

    def test_fans_reach_the_edges(self, burgers):
        # as in TestWindowedSolve.test_jumps_at_the_edge_collar, with every
        # row's pads in use
        grid = GridFunction.uniform((0.0, 1.0), 40)
        rng = np.random.default_rng(3)
        data = []
        for left, right in ((-1.0, 1.0), (-0.8, 0.6), (-0.9, 0.9)):
            vals = rng.uniform(-0.5, 0.5, 40)
            vals[:5], vals[-5:] = left, right
            data.append(grid.with_values(vals))
        got = self.assert_matches_one_by_one(burgers, data, None, 0.1,
                                             cfl=0.3)
        for u, v in zip(data, got):
            assert v.values[0] != u.values[0] and v.values[-1] != u.values[-1]

    def test_one_datum(self, burgers, grid):
        u0 = random_steps(np.random.default_rng(4), grid)
        self.assert_matches_one_by_one(burgers, [u0], None, 0.25)

    def test_no_time_returns_the_data(self, burgers, grid):
        data = [random_steps(np.random.default_rng(i), grid)
                for i in range(3)]
        got = claw_solve_many(burgers, data, None, 0.5, 0.0)
        assert all(v is u for u, v in zip(data, got))

    @pytest.mark.parametrize("gap, spans", [(2 * _WINDOW_BLOCK + 2, 1),
                                            (2 * _WINDOW_BLOCK + 3, 2)])
    def test_jump_pair_joins_one_span_or_two(self, burgers, monkeypatch,
                                             gap, spans):
        # jumps at cells 400 and 400 + gap; over three layouts the fan and
        # the shock of each row meet the other's span
        grid = GridFunction.uniform((0.0, 10.0), 1000)
        data = []
        for a, b in ((0.0, 1.0), (1.0, 0.0), (0.5, -0.5)):
            vals = np.full(1000, a)
            vals[401:401 + gap] = b
            data.append(grid.with_values(vals))
        calls = record_interfaces(monkeypatch)
        self.assert_matches_one_by_one(burgers, data, None, 0.8)
        # each span is 2 * margin + 2 cells plus its jumps' distance, and
        # two ghosts
        cells = (gap + 2 * _WINDOW_BLOCK + 2 if spans == 1
                 else 2 * (2 * _WINDOW_BLOCK + 2))
        assert calls[0] == len(data) * (cells + 2 * spans) - 1

    def test_signed_zeros(self, burgers):
        # a -0.0 next to a 0.0 can turn into 0.0 on the full grid, so the
        # pair counts as a jump; all-zero data of mixed signs move too
        grid = GridFunction.uniform((0.0, 1.0), 400)
        rng = np.random.default_rng(10)
        data = []
        for bump in (True, True, False):
            vals = np.where(rng.random(400) < 0.5, 0.0, -0.0)
            vals[:40] = vals[-40:] = 0.0
            if bump:
                vals[100:110] = 1.0
            data.append(grid.with_values(vals))
        for flux in (ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7),
                     ParamFlux(f=lambda u, w: -0.7 * u, lip=0.7), burgers,
                     cubic()):
            self.assert_matches_one_by_one(flux, data, None, 0.02)

    def test_several_layouts(self, burgers):
        grid = GridFunction.uniform((-2.0, 3.0), 1000)
        rng = np.random.default_rng(12)
        data = [random_steps(rng, grid) for _ in range(6)]
        # 223 steps: the spans are laid out seven times
        self.assert_matches_one_by_one(burgers, data, None, 1.0)

    def test_one_span_clipped_at_an_edge(self, burgers, monkeypatch):
        # row 0's fan reaches its left edge cell through the clipped ghost;
        # the other rows' spans stay inside the grid
        grid = GridFunction.uniform((0.0, 1.0), 200)
        rng = np.random.default_rng(6)
        edge = np.full(200, 0.5)
        edge[:21] = -1.0
        data = [grid.with_values(edge)]
        for _ in range(3):
            vals = np.zeros(200)
            vals[90:110] = rng.uniform(-0.5, 0.5, 20)
            data.append(grid.with_values(vals))
        calls = record_interfaces(monkeypatch)
        got = self.assert_matches_one_by_one(burgers, data, None, 0.1,
                                             cfl=0.3)
        assert got[0].values[0] != edge[0]
        # row 0: cells 0 ... 21 + margin; the others: 89 - margin ... 110 +
        # margin; each with two ghosts
        assert calls[0] == ((22 + _WINDOW_BLOCK + 2)
                            + 3 * (22 + 2 * _WINDOW_BLOCK + 2) - 1)

    def test_two_distant_clusters(self, burgers, monkeypatch):
        grid = GridFunction.uniform((0.0, 10.0), 1000)
        xs = grid.axis_centers(0)
        u0 = grid.with_values(np.where((xs > 1.0) & (xs < 1.5), 1.0, 0.0)
                              + np.where((xs > 8.5) & (xs < 9.0), -0.5, 0.0))
        calls = record_interfaces(monkeypatch)
        (got,) = self.assert_matches_one_by_one(burgers, [u0], None, 0.5)
        assert calls[0] == 2 * (50 + 2 * _WINDOW_BLOCK + 2 + 2) - 1
        assert got.values[300:700].tobytes() == u0.values[300:700].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_steps_fewer_interfaces_than_the_union_hull(self, burgers, grid,
                                                       monkeypatch, seed):
        # one block of the verify suite's contraction check
        rng = np.random.default_rng(seed)
        data = [random_steps(rng, grid) for _ in range(8)]
        calls = record_interfaces(monkeypatch)
        claw_solve_many(burgers, data, None, 0.0, 0.25)
        assert sum(calls) <= 0.7 * union_hull_interfaces(data, 0.25)

    def test_clearance_checked_for_every_datum(self, burgers, grid):
        rng = np.random.default_rng(9)
        data = [random_steps(rng, grid) for _ in range(4)]
        vals = data[2].values.copy()
        vals[3] = 0.5
        data[2] = grid.with_values(vals)
        with pytest.raises(ClearanceViolated, match=r"datum 2 .* 0\.25"):
            claw_solve_many(burgers, data, None, 0.0, 0.25)
        claw_solve_many(burgers, data[:2] + data[3:], None, 0.0, 0.25)

    def test_rejects_bad_batches(self, burgers, grid):
        u0 = random_steps(np.random.default_rng(1), grid)
        with pytest.raises(ValueError, match="no data"):
            claw_solve_many(burgers, [], None, 0.0, 0.25)
        other = GridFunction.uniform((-2.0, 3.0), 1000)
        with pytest.raises(ValueError, match="one grid"):
            claw_solve_many(burgers, [u0, other], None, 0.0, 0.25)
        flat = GridFunction(np.zeros((4, 4)), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="one-dimensional"):
            claw_solve_many(burgers, [flat], None, 0.0, 0.25)


def frozen_godunov_flux(flux, u_left, u_right, w):
    """``godunov_flux`` before the shared selection: it evaluates the flux on
    both states, and at each critical point some interval holds."""
    ul = np.atleast_1d(np.asarray(u_left, dtype=float))
    ur = np.atleast_1d(np.asarray(u_right, dtype=float))
    fl = flux(ul, w)
    fr = flux(ur, w)
    vmin = np.minimum(fl, fr)
    vmax = np.maximum(fl, fr)
    if flux.critical_points:
        lo = np.minimum(ul, ur)
        hi = np.maximum(ul, ur)
        for c in flux.critical_points:
            inside = (lo < c) & (c < hi)
            if inside.any():
                fc = float(flux(np.array([c]), w)[0])
                np.minimum(vmin, fc, out=vmin, where=inside)
                np.maximum(vmax, fc, out=vmax, where=inside)
    out = np.where(ul <= ur, vmin, vmax)
    if np.ndim(u_left) or np.ndim(u_right):
        return out
    return float(out[0])


def frozen_solve_many(flux, data, w, t0, t, cfl=0.9):
    """``claw_solve_many`` before the shared selection, without its checks:
    each step calls ``frozen_godunov_flux`` on two views of the buffer."""
    full = np.stack([u.values for u in data])
    flat = full.reshape(-1)
    bits = full.view(np.uint64)
    rows, cols = np.nonzero(bits[:, 1:] != bits[:, :-1])
    if not rows.size:
        return full
    n = full.shape[1]
    dx = data[0].dx[0]
    dt_max = cfl * dx / flux.lip if flux.lip > 0 else (t - t0)
    now = t0
    steps = 0
    while now < t - 1e-15 * max(1.0, abs(t)):
        if steps % _WINDOW_BLOCK == 0:
            if steps:
                flat[cells] = buf[inner]
                rows, cols = np.nonzero(bits[:, 1:] != bits[:, :-1])
                if not rows.size:
                    break
            src, inner, ghosts, edge_ghosts, edge_cells = claw._span_layout(
                rows, cols, n, _WINDOW_BLOCK)
            buf = flat[src]
            cells = src[inner]
            held = buf[ghosts]
        dt = min(dt_max, t - now)
        f_iface = frozen_godunov_flux(flux, buf[:-1], buf[1:], w)
        buf[1:-1] -= (dt / dx) * (f_iface[1:] - f_iface[:-1])
        buf[ghosts] = held
        buf[edge_ghosts] = buf[edge_cells]
        now += dt
        steps += 1
    if steps:
        flat[cells] = buf[inner]
    return full


def counted_flux(flux):
    """``flux`` with a list that grows by one at each call of its ``f``."""
    calls = []

    def f(u, w):
        calls.append(np.size(u))
        return flux.f(u, w)

    return ParamFlux(f=f, lip=flux.lip,
                     critical_points=flux.critical_points), calls


def signed_zero_data(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.values.size
    data = []
    for bump in (True, False):
        vals = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        vals[:40] = vals[-40:] = 0.0
        if bump:
            vals[100:110] = 1.0
            vals[200:230] = -1.0
        data.append(grid.with_values(vals))
    return data


FLUXES = {
    "linear": ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7),
    "burgers": ParamFlux(f=lambda u, w: 0.5 * u * u, lip=1.0,
                         critical_points=(0.0,)),
    "cubic": cubic(),
}


class TestAgainstFrozenCopy:
    """One flux evaluation per step, read through two shifted views, gives
    the bits of the two evaluations per step the solver made before."""

    @pytest.mark.parametrize("name", sorted(FLUXES))
    def test_godunov_flux(self, name):
        flux = FLUXES[name]
        rng = np.random.default_rng(21)
        states = np.concatenate((rng.uniform(-2.0, 2.0, 400),
                                 [0.0, -0.0, -1.0, 1.0, 0.5]))
        ul, ur = states, rng.permutation(states)
        got = godunov_flux(flux, ul, ur, None)
        assert got.tobytes() == frozen_godunov_flux(flux, ul, ur,
                                                    None).tobytes()
        for a, b in ((0.0, -0.0), (-1.0, 1.0), (1.5, -0.25)):
            assert (godunov_flux(flux, a, b, None).hex()
                    == frozen_godunov_flux(flux, a, b, None).hex())

    @pytest.mark.parametrize("name", sorted(FLUXES))
    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_solve_many(self, name, signed_zeros):
        flux = FLUXES[name]
        grid = GridFunction.uniform((-2.0, 3.0), 800)
        rng = np.random.default_rng(22)
        if signed_zeros:
            data, t = signed_zero_data(grid, 23), 0.05
        else:
            data = [grid.with_values(1.5 * random_steps(rng, grid).values)
                    for _ in range(4)]
            t = 0.15
        got = claw_solve_many(flux, data, None, 0.0, t)
        want = frozen_solve_many(flux, data, None, 0.0, t)
        for v, row in zip(got, want):
            assert v.values.tobytes() == row.tobytes()

    @pytest.mark.parametrize("name", sorted(FLUXES))
    def test_one_flux_call_per_step(self, name, monkeypatch):
        flux, f_calls = counted_flux(FLUXES[name])
        grid = GridFunction.uniform((-2.0, 3.0), 800)
        data = [random_steps(np.random.default_rng(24), grid)
                for _ in range(3)]
        steps = record_interfaces(monkeypatch)
        # 0.2 / (0.9 dx / lip) steps, the last one shortened
        claw_solve_many(flux, data, None, 0.0, 0.2)
        assert len(steps) == math.ceil(0.2 / (0.9 * grid.dx[0] / flux.lip))
        assert len(f_calls) == len(steps) + len(flux.critical_points)


class TestAudit:
    def test_burgers_certificate(self, burgers):
        rng = np.random.default_rng(0)
        assert audit_flux(burgers, -1.0, 1.0, None, rng, n=200) <= 0.0

    def test_understated_flagged(self):
        flux = ParamFlux(f=lambda u, w: 2.0 * u, lip=1.0)
        rng = np.random.default_rng(0)
        assert audit_flux(flux, -1.0, 1.0, None, rng, n=200) > 0.5


class TestClawConstants:
    def test_contraction_modulus_zero(self):
        c = claw_constants(5.0, 7.0)
        assert c.c_u == 0.0

    def test_product(self):
        c = claw_constants(2.0, 3.0)
        assert c.c_t == 6.0 and c.c_w == 6.0

    def test_zero_radius(self):
        c = claw_constants(2.0, 0.0)
        assert (c.c_u, c.c_t, c.c_w) == (0.0, 0.0, 0.0)
