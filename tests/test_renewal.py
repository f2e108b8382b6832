import dataclasses
import math

import numpy as np
import pytest

from polyflow import renewal
from polyflow.errors import InadmissibleHorizon, SupportClearanceViolated
from polyflow.ibvp import InflowBoundary, ibvp_solve
from polyflow.ode import _rk4
from polyflow.renewal import (RenewalCoefficients, audit_coefficients,
                              backward_transport, characteristic,
                              ivp_domain_bounds, ivp_lipschitz_constants,
                              renewal_solve)
from polyflow.pursuit import PredatorPreyParams, predator_prey_fields
from polyflow.spaces import BvTimeSeries, GridFunction, l1_distance


def zeros(t, x, w):
    return np.zeros(np.shape(x)[0])


def still(v_value=0.0):
    return lambda t, x, w: np.full(np.shape(x)[0], v_value)


def coefficients(velocity=None, growth=None, source=None, divergence=None,
                 **certs):
    """Coefficients; the default velocity is the zero field."""
    if velocity is None:
        velocity, divergence = still(), divergence or zeros
    return RenewalCoefficients(
        velocity=velocity,
        growth=growth or zeros,
        source=source or zeros,
        divergence=divergence,
        **certs)


@pytest.fixture
def grid():
    return GridFunction.uniform((-2.0, 3.0), 2000)  # dx = 1/400


@pytest.fixture
def indicator(grid):
    return GridFunction.from_callable(
        lambda x: ((x >= 0) & (x < 1)).astype(float),
        grid.origin, grid.dx, grid.values.shape)


class TestCharacteristic:
    def test_zero_velocity(self):
        out = characteristic(still(), 0.0, np.array([0.7]), 2.0, None)
        assert out[0] == 0.7

    def test_constant_velocity_exact(self):
        out = characteristic(still(2.5), 0.0, np.array([1.0]), 0.4, None,
                             n_sub=1)
        assert out[0] == pytest.approx(2.0, abs=1e-14)

    def test_linear_velocity_exponential(self):
        v = lambda t, x, w: x
        out = characteristic(v, 0.0, np.array([1.0]), 1.0, None, n_sub=64)
        assert abs(out[0] - math.e) < 1e-8

    def test_backward(self):
        v = lambda t, x, w: x
        out = characteristic(v, 1.0, np.array([math.e]), 0.0, None, n_sub=64)
        assert abs(out[0] - 1.0) < 1e-8

    @pytest.mark.parametrize("t", [0.4, -0.7])
    def test_constant_number_matches_rk4(self, t):
        x = np.linspace(-1.0, 2.0, 13)
        exact = characteristic(2.5, 0.1, x, t, None)
        assert np.array_equal(exact, x + (t - 0.1) * 2.5)
        rk4 = characteristic(still(2.5), 0.1, x, t, None)
        assert np.max(np.abs(exact - rk4)) <= 1e-14


class TestConstantVelocity:
    def test_transport_matches_rk4(self, grid):
        growth = lambda t, x, w: 0.3 * np.cos(x) - 0.1 * t
        source = lambda t, x, w: 0.2 * np.exp(-x * x) * (1 + t)
        xs = grid.axis_centers(0)
        u0 = grid.with_values(np.clip(1 - np.abs(xs - 0.5) / 0.4, 0, None))
        for speed in (-0.6, 0.6):
            exact, rk4 = (
                renewal_solve(coefficients(velocity=v, growth=growth,
                                           source=source, v_sup=0.6,
                                           divergence=div),
                              u0, None, 0.1, 0.9, n_sub=12)
                for v, div in ((speed, None), (still(speed), zeros)))
            assert np.max(np.abs(exact.values - rk4.values)) <= 1e-13
        # per-point end times, as the inflow cells of ibvp_solve take them
        inflow = InflowBoundary(BvTimeSeries.constant(0.5), speed_min=0.6)
        half_line = GridFunction.uniform((0.0, 3.0), 1200)
        xs = half_line.axis_centers(0)
        u0 = half_line.with_values(np.clip(1 - np.abs(xs - 1.5) / 0.4, 0,
                                           None))
        exact, rk4 = (
            ibvp_solve(coefficients(velocity=v, growth=growth, source=source,
                                    v_sup=0.6, divergence=div),
                       inflow, u0, None, 0.1, 0.9, n_sub=12)
            for v, div in ((0.6, None), (still(0.6), zeros)))
        # the inflow cells left of 0.6 * 0.9 are filled
        assert np.all(exact.values[xs < 0.5] > 0.4)
        assert np.max(np.abs(exact.values - rk4.values)) <= 1e-13

    def test_solve_translates(self, grid, indicator):
        coef = coefficients(velocity=1.0, v_sup=1.0)
        got = renewal_solve(coef, indicator, None, 0.0, 0.5, n_sub=4)
        ref = renewal_solve(coefficients(velocity=still(1.0), v_sup=1.0,
                                         divergence=zeros),
                            indicator, None, 0.0, 0.5, n_sub=4)
        assert np.array_equal(got.values, ref.values)

    def test_two_dimensional_points_rejected(self):
        u0 = GridFunction.uniform([(0.0, 1.0), (0.0, 1.0)], (4, 4))
        with pytest.raises(ValueError, match="constant velocity"):
            renewal_solve(coefficients(velocity=1.0), u0, None, 0.0, 0.1,
                          n_sub=4)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_backward_transport_rejects_a_number(self, dim):
        # renewal_solve and ibvp_solve carry a constant speed themselves
        pts = np.zeros((4, dim)) if dim == 2 else np.zeros(4)
        with pytest.raises(ValueError, match="constant velocity"):
            backward_transport(coefficients(velocity=1.0), None, 1.0, 0.0,
                               pts, 4, (0.1,) * dim)


class TestRenewalSolve:
    def test_pure_translation(self, grid, indicator):
        coef = coefficients(velocity=still(1.0), v_sup=1.0, divergence=zeros)
        got = renewal_solve(coef, indicator, None, 0.0, 0.5, n_sub=10)
        ref = GridFunction.from_callable(
            lambda x: ((x >= 0.5) & (x < 1.5)).astype(float),
            grid.origin, grid.dx, grid.values.shape)
        assert l1_distance(got, ref) <= 2 * grid.dx[0]

    def test_exponential_decay(self, indicator):
        coef = coefficients(growth=lambda t, x, w: -np.ones(np.shape(x)[0]),
                            m_sup_tv=1.0)
        got = renewal_solve(coef, indicator, None, 0.0, 1.0, n_sub=10)
        ref = indicator.with_values(indicator.values * math.exp(-1.0))
        assert l1_distance(got, ref) <= 1e-6

    def test_source_accumulation(self, indicator):
        coef = coefficients(
            source=lambda t, x, w: ((x >= 0) & (x < 1)).astype(float),
            q_l1=1.0, q_sup_tv=2.0)
        got = renewal_solve(coef, indicator, None, 0.0, 0.25, n_sub=10)
        ref = indicator.with_values(indicator.values * 1.25)
        assert l1_distance(got, ref) <= 1e-3

    def test_identity_at_start_time(self, indicator):
        coef = coefficients(velocity=still(1.0), v_sup=1.0, divergence=zeros)
        got = renewal_solve(coef, indicator, None, 0.3, 0.0, n_sub=4)
        assert got is indicator

    def test_clearance_violation(self, grid):
        edge = grid.with_values(np.ones(grid.values.shape[0]))
        coef = coefficients(velocity=still(1.0), v_sup=1.0, divergence=zeros)
        with pytest.raises(SupportClearanceViolated):
            renewal_solve(coef, edge, None, 0.0, 0.5)

    def test_2d_translation(self):
        grid = GridFunction.uniform(((-1.0, 1.0), (-1.0, 1.0)), (50, 50))
        bump = GridFunction.from_callable(
            lambda x, y: np.clip(1 - 8 * (x ** 2 + y ** 2), 0, None),
            grid.origin, grid.dx, grid.values.shape)
        shift = np.array([0.2, -0.12])
        coef = coefficients(
            velocity=lambda t, x, w: np.broadcast_to(shift, np.shape(x)).copy(),
            divergence=zeros, v_sup=float(np.linalg.norm(shift)) + 1e-9)
        got = renewal_solve(coef, bump, None, 0.0, 1.0, n_sub=6)
        ref = GridFunction.from_callable(
            lambda x, y: np.clip(1 - 8 * ((x - 0.2) ** 2 + (y + 0.12) ** 2),
                                 0, None),
            grid.origin, grid.dx, grid.values.shape)
        assert l1_distance(got, ref) <= 6 * max(grid.dx) * bump.tv()

    def test_2d_expansion_closed_form(self):
        # div(v u) = 0 with v = lam * x has the self-similar solution
        # u(t, x) = u0(x e^{-lam t}) e^{-2 lam t} in 2D
        lam, t = 0.4, 0.5
        grid = GridFunction.uniform(((-1.0, 1.0), (-1.0, 1.0)), (80, 80))
        profile = lambda x, y: np.clip(1 - 5 * (x ** 2 + y ** 2), 0, None) ** 2
        bump = GridFunction.from_callable(profile, grid.origin, grid.dx,
                                          grid.values.shape)
        coef = coefficients(
            velocity=lambda s, x, w: lam * np.asarray(x, dtype=float),
            divergence=lambda s, x, w: np.full(np.shape(x)[0], 2.0 * lam),
            v_sup=lam * math.sqrt(2.0) + 1e-9, v_lip=lam)
        got = renewal_solve(coef, bump, None, 0.0, t, n_sub=16)
        scale = math.exp(-lam * t)
        ref = GridFunction.from_callable(
            lambda x, y: profile(x * scale, y * scale) * scale ** 2,
            grid.origin, grid.dx, grid.values.shape)
        assert l1_distance(got, ref) <= 4 * max(grid.dx) * bump.tv()
        # expansion preserves mass exactly in the continuum
        assert abs(got.mass() - bump.mass()) / bump.mass() <= 5e-3


class TestSuppliedDivergence:
    def swirl(self, t, x, w):
        return np.column_stack([0.3 * np.sin(x[:, 1]) + 0.2 * x[:, 0],
                                0.1 * x[:, 0] * x[:, 1] - 0.2 * t])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_callable_velocity_without_divergence_rejected(self, dim):
        velocity = (self.swirl if dim == 2
                    else lambda t, x, w: 0.5 + 0.2 * np.sin(x) * w)
        with pytest.raises(ValueError, match="callable divergence"):
            coefficients(velocity=velocity)
        with pytest.raises(ValueError, match="callable divergence"):
            coefficients(velocity=velocity, divergence=0.0)

    def test_constant_velocity_with_divergence_rejected(self):
        with pytest.raises(ValueError, match="constant velocity"):
            coefficients(velocity=0.5, divergence=zeros)

    def test_constant_velocity_with_support_rejected(self):
        with pytest.raises(ValueError, match="constant velocity"):
            coefficients(velocity=0.5, support=lambda w: (0.0, 1.0))

    def test_supplied_divergence_enters_the_growth_factor(self):
        coef = coefficients(divergence=lambda t, x, w: np.full(x.shape[0],
                                                               0.75))
        x = np.linspace(0.0, 1.0, 11)
        foot, factor, src = backward_transport(coef, None, 1.0, 0.2, x, 8,
                                               (0.1,))
        assert np.array_equal(foot, x)
        assert np.allclose(factor, math.exp(-0.75 * 0.8), rtol=1e-14)
        assert np.array_equal(src, np.zeros(11))


def smooth_coefficients():
    return RenewalCoefficients(
        velocity=lambda t, x, w: 0.5 + 0.2 * np.sin(x),
        growth=lambda t, x, w: 0.3 * np.cos(x) - 0.1,
        source=zeros, divergence=lambda t, x, w: 0.2 * np.cos(x),
        v_sup=0.7, v_lip=0.2, v_div_lip=0.7, m_sup_tv=1.5)


def smooth_bump(grid):
    return GridFunction.from_callable(
        lambda x: np.clip(1 - np.abs(x), 0, None) ** 2,
        grid.origin, grid.dx, grid.values.shape)


class TestProcessLaws:
    def test_semigroup_within_step_error(self, grid):
        coef = smooth_coefficients()
        u0 = smooth_bump(grid)
        direct = renewal_solve(coef, u0, None, 0.0, 0.4, n_sub=16)
        fine = renewal_solve(coef, u0, None, 0.0, 0.4, n_sub=64)
        level_err = max(l1_distance(direct, fine), 1e-6)
        mid = renewal_solve(coef, u0, None, 0.0, 0.2, n_sub=8)
        rest = renewal_solve(coef, mid, None, 0.2, 0.2, n_sub=8)
        assert l1_distance(rest, direct) <= 5 * max(level_err,
                                                    2 * grid.dx[0] * u0.tv())

    def test_scaling_bitexact_power_of_two(self, grid):
        coef = smooth_coefficients()
        u0 = smooth_bump(grid)
        a = renewal_solve(coef, u0.with_values(2.0 * u0.values), None,
                          0.0, 0.3, n_sub=8)
        b = renewal_solve(coef, u0, None, 0.0, 0.3, n_sub=8)
        assert np.array_equal(a.values, 2.0 * b.values)

    def test_affine_combination_near_machine(self, grid):
        coef = RenewalCoefficients(
            velocity=lambda t, x, w: 0.5 + 0.2 * np.sin(x),
            growth=lambda t, x, w: 0.3 * np.cos(x) - 0.1,
            source=lambda t, x, w: 0.2 * np.exp(-x * x),
            divergence=lambda t, x, w: 0.2 * np.cos(x),
            v_sup=0.7, v_lip=0.2, m_sup_tv=1.5, q_l1=1.0, q_sup_tv=1.0)
        u0 = smooth_bump(grid)
        v0 = u0.with_values(np.roll(u0.values, 40))
        a, b = 0.3, 0.7
        mix = u0.with_values(a * u0.values + b * v0.values)
        lhs = renewal_solve(coef, mix, None, 0.0, 0.3, n_sub=8)
        ua = renewal_solve(coef, u0, None, 0.0, 0.3, n_sub=8)
        ub = renewal_solve(coef, v0, None, 0.0, 0.3, n_sub=8)
        rhs = a * ua.values + b * ub.values
        assert float(np.max(np.abs(lhs.values - rhs))) < 1e-13

    def test_contraction_certificate(self, grid):
        rng = np.random.default_rng(1)
        coef = smooth_coefficients()
        u1 = smooth_bump(grid)
        u2 = u1.with_values(u1.values
                            * (1 + 0.2 * rng.standard_normal(u1.values.shape)))
        v1 = renewal_solve(coef, u1, None, 0.0, 0.3, n_sub=12)
        v2 = renewal_solve(coef, u2, None, 0.0, 0.3, n_sub=12)
        rhs = math.exp(coef.m_sup_tv * 0.3) * l1_distance(u1, u2)
        assert l1_distance(v1, v2) <= rhs * (1 + 1e-3)

    def test_invariant_domain_margins(self, grid):
        coef = smooth_coefficients()
        u0 = smooth_bump(grid)
        horizon = 0.4
        radius = 2.0
        while True:
            try:
                a = ivp_domain_bounds(0.0, radius, horizon, coef)
                if u0.l1() <= a[0] and u0.linf() <= a[1] and u0.tv() <= a[2]:
                    break
            except InadmissibleHorizon:
                pass
            radius *= 2
        slack = 10 * grid.dx[0] * u0.tv()
        for t in (0.1, 0.2, 0.3, 0.4):
            u_t = renewal_solve(coef, u0, None, 0.0, t, n_sub=12)
            a1, ai, atv = ivp_domain_bounds(t, radius, horizon, coef)
            assert u_t.l1() <= a1 + slack
            assert u_t.linf() <= ai + slack
            assert u_t.tv() <= atv + slack

    def test_transport_shift_bound(self, grid):
        coef = smooth_coefficients()
        u0 = smooth_bump(grid)
        t = 0.3
        foot = characteristic(coef.velocity, t, grid.centers(), 0.0, None,
                              n_sub=24)
        lhs = float(np.sum(np.abs(u0.lookup(foot) - u0.values)) * grid.dx[0])
        rhs = (coef.v_sup / coef.v_lip * (math.exp(coef.v_lip * t) - 1)
               * u0.tv())
        assert lhs <= rhs + 10 * grid.dx[0] * u0.tv()


class TestAudit:
    def test_honest_certificates_pass(self, grid):
        rng = np.random.default_rng(0)
        assert audit_coefficients(smooth_coefficients(), grid, None,
                                  rng) <= 1e-12

    def test_understated_speed_flagged(self, grid):
        coef = RenewalCoefficients(
            velocity=lambda t, x, w: np.full(np.shape(x)[0], 2.0),
            growth=zeros, source=zeros, divergence=zeros, v_sup=1.0)
        rng = np.random.default_rng(0)
        assert audit_coefficients(coef, grid, None, rng) > 0.5

    @pytest.mark.parametrize("v_sup, flagged", [(2.0, False), (1.0, True)])
    def test_constant_velocity_checked_without_a_call(self, grid, v_sup,
                                                      flagged):
        coef = coefficients(velocity=-2.0, v_sup=v_sup)
        worst = audit_coefficients(coef, grid, None,
                                   np.random.default_rng(0))
        assert (worst > 0.5) if flagged else (worst <= 0.0)


class TestDomainBounds:
    def test_all_zero_coefficients(self):
        coef = coefficients()
        assert ivp_domain_bounds(0.3, 2.0, 1.0, coef) == (2.0, 2.0, 2.0)

    def test_at_horizon(self):
        coef = coefficients(m_sup_tv=0.4, q_l1=0.1, q_sup_tv=0.1,
                            v_lip=0.2, v_div_lip=0.2)
        a1, ai, atv = ivp_domain_bounds(1.0, 3.0, 1.0, coef)
        assert a1 == pytest.approx(3.0)
        assert ai == pytest.approx(3.0)

    def test_log_two_halving(self):
        coef = coefficients(m_sup_tv=math.log(2))
        a1, _, _ = ivp_domain_bounds(0.0, 1.0, 1.0, coef)
        assert a1 == pytest.approx(0.5)

    def test_inadmissible(self):
        coef = coefficients(m_sup_tv=3.0, q_l1=10.0)
        with pytest.raises(InadmissibleHorizon):
            ivp_domain_bounds(0.0, 0.5, 1.0, coef)


class TestLipschitzConstants:
    def test_all_zero(self):
        c = ivp_lipschitz_constants(coefficients(), 1.0, 1.0)
        assert (c.c_u, c.c_t, c.c_w) == (0.0, 0.0, 0.0)

    def test_growth_only(self):
        coef = coefficients(m_sup_tv=1.0)
        c = ivp_lipschitz_constants(coef, 1.0, 1.0)
        assert c.c_u == 1.0
        # remaining c_t term: (m + vl) R e^{(m+vl) T} with vl = 0
        assert c.c_t == pytest.approx(math.e)

    def test_source_only_time_modulus(self):
        coef = coefficients(q_l1=0.7)
        c = ivp_lipschitz_constants(coef, 1.0, 1.0)
        assert c.c_t == pytest.approx(0.7)

    def test_full_formula(self):
        coef = coefficients(v_sup=0.5, v_lip=0.3, v_div_lip=0.2,
                            m_sup_tv=0.4, m_param_lip=0.6,
                            q_sup_tv=0.1, q_l1=0.2, q_param_lip=0.05)
        T, R = 0.8, 1.5
        c = ivp_lipschitz_constants(coef, T, R)
        m, vl, v1 = 0.4, 0.3, 0.2
        ct = (0.5 * R * math.exp((m + 2 * vl) * T)
              + 0.2 * math.exp(m * T) + (m + vl) * R * math.exp((m + vl) * T))
        cw = ((vl * (2 * R + 0.1) * (1 + (v1 + m) * T)
               + (0.05 + (0.6 + vl) * (R + 0.1 * T)))
              * math.exp((m + vl) * T))
        assert c.c_u == m
        assert c.c_t == pytest.approx(ct)
        assert c.c_w == pytest.approx(cw)


def pursuit_prey(dim, escape_radius=0.8, feeding_radius=0.4):
    """The pursuit prey's coefficients and initial density, 50 cells an axis."""
    params = PredatorPreyParams(
        dim=dim, alpha=1.2, escape_radius=escape_radius, search_radius=0.6,
        feeding_radius=feeding_radius, feeding_rate=0.5,
        box=((-1.0, 1.0),) * dim, cells=(50,) * dim, horizon=0.3,
        macro_step=0.3, prey_center=(0.0,) * dim, prey_radius=0.7,
        prey_amp=1.0, predator_start=(0.15,) + (0.0,) * (dim - 1))
    return predator_prey_fields(params).prey, params.initial_density()


def same_bits(a, b):
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def frozen_beyond_support(coef, w, pts, margin=0.0):
    """``_beyond_support`` before the per-axis sum: the mask from the
    ``(n, 2)`` offsets of the centres."""
    centre, radius = coef.support(w)
    d = pts - np.asarray(centre, dtype=float)
    dist_sq = d * d if d.ndim == 1 else np.sum(d * d, axis=1)
    reach = radius * (1.0 + margin)
    return dist_sq >= reach * reach


class TestSupport:
    """Transport inside the certified ball only, against the full grid."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("margin", [0.0, renewal._SUPPORT_MARGIN])
    def test_mask_matches_the_frozen_copy(self, dim, margin):
        coef, u0 = pursuit_prey(dim)
        centre = u0.axis_centers(0)[17]
        # the radius is a whole number of cells, so from a cell centre some
        # centres sit on the circle up to rounding
        on_circle = dataclasses.replace(coef, support=lambda w: (w, 0.4))
        predators = ([0.15, 0.0], [centre, centre], [-0.0, 0.0],
                     [1.7, -2.5], [np.nan, 0.1], [0.3, np.inf])
        for c in (coef, on_circle):
            for p in predators:
                p = np.array(p[:dim])
                with np.errstate(invalid="ignore"):
                    got = renewal._beyond_support(c, p, u0, margin)
                    want = frozen_beyond_support(c, p, u0.centers(), margin)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", ["centre", "corner", "wide-feeding",
                                      "no-cell", "negative-zero"])
    def test_matches_the_full_transport(self, dim, case):
        radii = {"wide-feeding": (0.5, 0.9), "no-cell": (0.01, 0.005)}
        coef, u0 = pursuit_prey(dim, *radii.get(case, (0.8, 0.4)))
        rng = np.random.default_rng(3)
        vals = u0.values * rng.uniform(0.5, 1.5, u0.values.shape)
        if case == "negative-zero":
            vals = np.where(vals == 0.0, -0.0, vals)
        u0 = u0.with_values(vals)
        # (0, 0) is a cell corner, a distance of half a cell from any centre
        p = {"corner": [0.9, -0.9],
             "wide-feeding": [0.2, 0.1]}.get(case, [0.0, 0.0])
        p = np.array(p[:dim])
        # the narrow kernels are fast: a shorter step keeps the clearance
        t = 0.01 if case == "no-cell" else 0.3
        got = renewal_solve(coef, u0, p, 0.0, t, n_sub=5).values
        full = renewal_solve(dataclasses.replace(coef, support=None), u0, p,
                             0.0, t, n_sub=5).values
        assert same_bits(got, full)
        if case == "negative-zero":
            assert np.any(np.signbit(vals)) and not np.any(np.signbit(got))
        if case == "no-cell":
            d = u0.centers() - p
            assert np.min(np.abs(d) if dim == 1
                          else np.linalg.norm(d, axis=1)) > 0.01

    @pytest.mark.parametrize("dim", [1, 2])
    def test_transports_only_the_ball(self, dim, monkeypatch):
        coef, u0 = pursuit_prey(dim)
        sizes = []
        transport = renewal.backward_transport

        def counted(coef, w, t, t_lo, x, n_sub, dx):
            sizes.append(len(x))
            return transport(coef, w, t, t_lo, x, n_sub, dx)

        monkeypatch.setattr(renewal, "backward_transport", counted)
        p = np.zeros(dim)
        renewal_solve(coef, u0, p, 0.0, 0.3, n_sub=5)
        pts = u0.centers()
        dist = np.abs(pts) if dim == 1 else np.linalg.norm(pts, axis=1)
        assert sizes == [int(np.count_nonzero(dist < 0.8))]
        assert sizes[0] < len(pts)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_audit(self, dim):
        coef, u0 = pursuit_prey(dim)
        p = np.array([0.15] + [0.0] * (dim - 1))
        audit = lambda c: audit_coefficients(c, u0, p,
                                             np.random.default_rng(0))
        assert audit(coef) == 0.0
        half = dataclasses.replace(coef, support=lambda w: (w, 0.4))
        assert audit(half) > 0.0


def frozen_callable_transport(coef, w, t, t_lo, x, n_sub):
    """``backward_transport``'s callable-velocity branch before its sums
    went in place: a copy of the points, and fresh arrays every step."""
    pts = np.asarray(x, dtype=float).copy()
    lo = float(t_lo) if np.ndim(t_lo) == 0 else np.asarray(t_lo, dtype=float)
    ds = (t - lo) / n_sub
    exponent = np.zeros(pts.shape[0])
    source_acc = np.zeros(pts.shape[0])
    rhs = lambda s, y: np.asarray(coef.velocity(s, y, w), dtype=float)
    h = -ds
    half_h = 0.5 * h
    for j in range(n_sub):
        s_hi = t - j * ds
        nxt = _rk4(rhs, s_hi, pts, h)
        s_mid = s_hi + half_h
        p_mid = 0.5 * (pts + nxt)
        contrib = (np.asarray(coef.growth(s_mid, p_mid, w), dtype=float)
                   - np.asarray(coef.divergence(s_mid, p_mid, w),
                                dtype=float)) * ds
        if coef.source is not None:
            factor_mid = np.exp(exponent + 0.5 * contrib)
            source_acc = source_acc + (
                np.asarray(coef.source(s_mid, p_mid, w), dtype=float)
                * factor_mid * ds)
        exponent = exponent + contrib
        pts = nxt
    return pts, np.exp(exponent), source_acc


def frozen_renewal_solve(coef, u0, w, t0, t, n_sub):
    """``renewal_solve`` before its carried values went in place."""
    centers = u0.centers()
    if coef.support is None:
        foot, factor, src = frozen_callable_transport(coef, w, t, t0,
                                                      centers, n_sub)
        vals = u0.lookup(foot, outside="zero") * factor + src
        return vals.reshape(u0.values.shape)
    vals = u0.values.ravel() * 1.0 + 0.0
    inside = ~frozen_beyond_support(coef, w, centers,
                                    renewal._SUPPORT_MARGIN)
    if inside.any():
        foot, factor, src = frozen_callable_transport(coef, w, t, t0,
                                                      centers[inside], n_sub)
        vals[inside] = u0.lookup(foot, outside="zero") * factor + src
    return vals.reshape(u0.values.shape)


def with_source(coef):
    return dataclasses.replace(
        coef, source=lambda t, x, w: 0.2 + 0.1 * np.sin(np.sum(
            np.reshape(x, (np.shape(x)[0], -1)), axis=1) + t))


class TestInPlaceTransportAgainstFrozenCopy:
    """The in-place midpoints and sums give the bits of fresh arrays."""

    def same(self, got, want):
        return all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(got, want))

    @pytest.mark.parametrize("case", ["smooth", "smooth-source",
                                      "per-point-ends", "prey-1d",
                                      "prey-2d-source"])
    def test_backward_transport(self, case):
        x = np.linspace(-1.5, 2.5, 41)
        t_lo, w = 0.2, None
        if case.startswith("smooth"):
            coef = smooth_coefficients()
            coef = with_source(coef) if case == "smooth-source" else coef
        elif case == "per-point-ends":
            coef = with_source(smooth_coefficients())
            t_lo = np.linspace(0.0, 0.9, x.size)
        else:
            dim = 2 if case == "prey-2d-source" else 1
            coef, u0 = pursuit_prey(dim)
            coef = with_source(coef) if dim == 2 else coef
            x = u0.centers()[::7]
            w = np.array([0.15, -0.1][:dim])
        got = backward_transport(coef, w, 1.0, t_lo, x, 9, (0.1,))
        want = frozen_callable_transport(coef, w, 1.0, t_lo, x, 9)
        assert self.same(got, want)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("support", [True, False])
    def test_renewal_solve(self, dim, support):
        coef, u0 = pursuit_prey(dim)
        coef = coef if support else dataclasses.replace(coef, support=None)
        u0 = u0.with_values(np.where(u0.values == 0.0, -0.0, u0.values))
        p = np.array([0.15, 0.05][:dim])
        got = renewal_solve(coef, u0, p, 0.0, 0.3, n_sub=5).values
        want = frozen_renewal_solve(coef, u0, p, 0.0, 0.3, 5)
        assert got.tobytes() == want.tobytes()


class TestNoSource:
    """``source=None`` gives the bytes of an explicit zero source, whose
    zero integral still turns a ``-0.0`` into ``0.0``."""

    @pytest.mark.parametrize("velocity", [0.7, still(0.7)])
    def test_one_dimensional(self, grid, indicator, velocity):
        u0 = indicator.with_values(np.where(indicator.values == 0.0, -0.0,
                                            indicator.values))
        growth = lambda t, x, w: 0.3 * np.cos(x) - 0.1 * t
        explicit = coefficients(velocity=velocity, growth=growth,
                                divergence=zeros if callable(velocity)
                                else None)
        assert explicit.source is zeros
        none = dataclasses.replace(explicit, source=None)
        got = renewal_solve(none, u0, None, 0.0, 0.4, n_sub=6).values
        ref = renewal_solve(explicit, u0, None, 0.0, 0.4, n_sub=6).values
        assert np.any(np.signbit(u0.values))
        assert same_bits(got, ref) and not np.any(np.signbit(got))

    def test_two_dimensional_with_support(self):
        coef, u0 = pursuit_prey(2)
        assert coef.source is None
        u0 = u0.with_values(np.where(u0.values == 0.0, -0.0, u0.values))
        p = np.array([0.15, 0.0])
        got = renewal_solve(coef, u0, p, 0.0, 0.3, n_sub=5).values
        ref = renewal_solve(dataclasses.replace(coef, source=zeros), u0, p,
                            0.0, 0.3, n_sub=5).values
        assert same_bits(got, ref) and not np.any(np.signbit(got))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_audit(self, dim):
        coef, u0 = pursuit_prey(dim)
        p = np.array([0.15] + [0.0] * (dim - 1))
        audit = lambda c: audit_coefficients(c, u0, p,
                                             np.random.default_rng(0))
        assert coef.source is None
        assert audit(coef) == audit(dataclasses.replace(coef, source=zeros))
