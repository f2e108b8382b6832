import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyflow.claw import (ParamFlux, audit_flux, claw_constants, claw_solve,
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
        got = claw_solve(burgers, u0, None, 0.0, 1.0)
        ref = grid.with_values((xs < 0.5).astype(float))
        assert l1_distance(got, ref) <= 2 * grid.dx[0]

    def test_burgers_rarefaction(self, burgers, grid):
        xs = grid.axis_centers(0)
        u0 = grid.with_values((xs >= 0.0).astype(float))
        got = claw_solve(burgers, u0, None, 0.0, 1.0)
        ref = grid.with_values(np.clip(xs, 0.0, 1.0))
        dx = grid.dx[0]
        assert l1_distance(got, ref) <= 5 * dx * abs(math.log(dx))

    def test_linear_advection_unit_courant(self, grid):
        flux = ParamFlux(f=lambda u, w: 0.7 * u, lip=0.7)
        xs = grid.axis_centers(0)
        u0 = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
        got = claw_solve(flux, u0, None, 0.0, 1.0, cfl=1.0)
        ref = grid.with_values(((xs >= 0.7) & (xs < 1.7)).astype(float))
        assert l1_distance(got, ref) <= 2 * grid.dx[0]

    def test_parametrized_flux(self, grid):
        flux = ParamFlux(f=lambda u, w: w * u, lip=1.0)
        xs = grid.axis_centers(0)
        u0 = grid.with_values(((xs >= 0) & (xs < 1)).astype(float))
        got = claw_solve(flux, u0, 0.5, 0.0, 1.0, cfl=1.0)
        # parameter halves the speed (lip certificate still 1 -> courant 1/2)
        ref_mass = u0.mass()
        assert got.mass() == pytest.approx(ref_mass, abs=1e-12)

    def test_clearance_violation(self, burgers, grid):
        xs = grid.axis_centers(0)
        ramp = grid.with_values(np.clip(xs, -1.0, 1.0))  # varies at edges
        with pytest.raises(ClearanceViolated):
            claw_solve(burgers, ramp, None, 0.0, 1.0)

    def test_contraction_and_tvd(self, burgers, grid):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u1 = random_steps(rng, grid)
            u2 = random_steps(rng, grid)
            v1 = claw_solve(burgers, u1, None, 0.0, 0.25)
            v2 = claw_solve(burgers, u2, None, 0.0, 0.25)
            assert l1_distance(v1, v2) <= l1_distance(u1, u2) + 1e-10
            assert v1.tv() <= u1.tv() + 1e-10

    def test_conservation(self, burgers, grid):
        rng = np.random.default_rng(9)
        u0 = random_steps(rng, grid)
        got = claw_solve(burgers, u0, None, 0.0, 0.5)
        assert abs(got.mass() - u0.mass()) <= 1e-12

    def test_entropy_residuals(self, burgers, grid):
        rng = np.random.default_rng(13)
        u0 = random_steps(rng, grid)
        dx = grid.dx[0]
        dt = 0.9 * dx / burgers.lip
        stepped = claw_solve(burgers, u0, None, 0.0, dt)
        for k in rng.uniform(-1, 1, 8):
            res = entropy_residuals(burgers, u0.values, stepped.values,
                                    float(k), dt, dx, None)
            assert float(np.min(res)) >= -1e-10

    def test_semigroup(self, burgers, grid):
        xs = grid.axis_centers(0)
        u0 = grid.with_values((xs < 0.0).astype(float))
        direct = claw_solve(burgers, u0, None, 0.0, 1.0)
        mid = claw_solve(burgers, u0, None, 0.0, 0.5)
        rest = claw_solve(burgers, mid, None, 0.5, 1.0)
        assert l1_distance(rest, direct) <= 5 * (2 * grid.dx[0])


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
