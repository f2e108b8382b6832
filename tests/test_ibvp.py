import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from polyflow import ibvp, renewal
from polyflow.errors import (InadmissibleHorizon, NoCrossing,
                             SupportClearanceViolated,
                             UndefinedBoundaryDatum)
from polyflow.ibvp import (InflowBoundary, boundary_crossing_time,
                           ibvp_domain_bounds, ibvp_lipschitz_constants,
                           ibvp_solve)
from polyflow.renewal import (RenewalCoefficients, backward_transport,
                              characteristic, renewal_solve)
from polyflow.epidemic import EpidemicParams, _epidemic_ibvp
from polyflow.harness import load_config, run
from polyflow.spaces import BvTimeSeries, GridFunction, l1_distance

ROOT = Path(__file__).resolve().parent.parent


def ones_speed(t, x, w):
    return np.ones(np.shape(np.asarray(x))[0])


def zero_field(t, x, w):
    return np.zeros(np.shape(np.asarray(x))[0])


def cos_speed(t, x, w):
    return 0.8 + 0.1 * np.cos(np.asarray(x))


def cos_speed_divergence(t, x, w):
    return -0.1 * np.sin(np.asarray(x))


def same_bits(a, b):
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def make_coef(velocity=ones_speed, growth=zero_field, source=zero_field,
              divergence=None, v_sup=1.0, **certs):
    """Coefficients; a callable velocity's divergence defaults to zero."""
    if divergence is None and callable(velocity):
        divergence = zero_field
    return RenewalCoefficients(velocity=velocity, growth=growth,
                               source=source, divergence=divergence,
                               v_sup=v_sup, **certs)


def make_inflow(series=None, speed_min=1.0, **certs):
    return InflowBoundary(
        series=series if series is not None else BvTimeSeries.constant(0.0),
        speed_min=speed_min, **certs)


@pytest.fixture
def grid():
    return GridFunction.uniform((0.0, 2.0), 800)  # dx = 1/400


class TestCrossingTime:
    def test_unit_speed(self):
        out = boundary_crossing_time(ones_speed, 1.0, 0.3, 0.0)
        assert out[0] == pytest.approx(0.7, abs=1e-12)

    def test_double_speed(self):
        speed = lambda t, x, w: np.full(np.shape(np.asarray(x))[0], 2.0)
        out = boundary_crossing_time(speed, 1.0, 1.0, 0.0)
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_near_origin_characteristic(self):
        # points just inside the origin characteristic cross near t0
        out = boundary_crossing_time(ones_speed, 1.0, 0.999999, 0.0)
        assert out[0] == pytest.approx(0.0, abs=1e-5)

    def test_no_crossing(self):
        with pytest.raises(NoCrossing):
            boundary_crossing_time(ones_speed, 1.0, 1.5, 0.0)

    def test_constant_speed_matches_rk4(self):
        speed = lambda t, x, w: np.full(np.shape(np.asarray(x))[0], 2.0)
        x = np.linspace(0.0, 1.4, 29)
        exact = boundary_crossing_time(2.0, 1.0, x, 0.2)
        assert np.allclose(exact, 1.0 - x / 2.0, rtol=0.0, atol=1e-15)
        assert np.allclose(exact, boundary_crossing_time(speed, 1.0, x, 0.2),
                           rtol=0.0, atol=1e-14)
        assert boundary_crossing_time(2.0, 1.0, 0.3, 0.0).shape == (1,)

    def test_constant_speed_no_crossing(self):
        for speed in (2.0, lambda t, x, w: np.full(np.shape(x)[0], 2.0)):
            with pytest.raises(NoCrossing):
                boundary_crossing_time(speed, 1.0, np.array([0.5, 1.7]), 0.2)


class TestIbvpSolve:
    def test_inflow_fill(self, grid):
        inflow = make_inflow(BvTimeSeries.constant(1.0),
                             b_l1=1.0, b_sup_tv=1.0)
        got = ibvp_solve(make_coef(), inflow, grid, None, 0.0, 1.0, n_sub=10)
        xs = grid.axis_centers(0)
        ref = grid.with_values((xs < 1.0).astype(float))
        assert l1_distance(got, ref) <= 2 * grid.dx[0]

    def test_interior_branch_matches_free_solver_bitexact(self, grid):
        xs = grid.axis_centers(0)
        bump = grid.with_values(np.clip(1 - np.abs(xs - 1.2) / 0.3, 0, None))
        coef = make_coef(
            velocity=cos_speed, divergence=cos_speed_divergence,
            growth=lambda t, x, w: 0.2 * np.sin(np.asarray(x)),
            v_sup=0.9, v_lip=0.1, m_sup_tv=0.7)
        got = ibvp_solve(coef, make_inflow(speed_min=0.7), bump, None,
                         0.0, 0.5, n_sub=8)
        free = renewal_solve(coef, bump, None, 0.0, 0.5, n_sub=8)
        sigma = float(characteristic(coef.velocity, 0.0, np.array([0.0]),
                                     0.5, None, n_sub=8)[0])
        mask = xs >= sigma
        assert np.array_equal(got.values[mask], free.values[mask])

    def test_constant_speed_matches_unit_lambda(self, grid):
        xs = grid.axis_centers(0)
        bump = grid.with_values(np.clip(1 - np.abs(xs - 0.6) / 0.3, 0, None))
        inflow = BvTimeSeries(np.array([0.0, 0.3]), np.array([1.0, 0.4]))
        fields = dict(
            growth=lambda t, x, w: 0.3 * np.cos(np.asarray(x)) - 0.2 * t,
            source=lambda t, x, w: 0.1 * np.exp(-np.asarray(x)) * (1 + t),
            m_sup_tv=1.0, q_l1=0.2, q_sup_tv=0.4)
        exact = make_coef(velocity=1.0, **fields)
        rk4 = make_coef(velocity=ones_speed, **fields)
        boundary = make_inflow(inflow, b_l1=1.0, b_sup_tv=1.6)
        got = ibvp_solve(exact, boundary, bump, 0.5, 0.0, 0.8, n_sub=10)
        ref = ibvp_solve(rk4, boundary, bump, 0.5, 0.0, 0.8, n_sub=10)
        # both branches are populated; the inflow jump (t = 0.3) is at x = 0.5
        assert np.any(xs < 0.8) and np.any((xs >= 0.8) & (ref.values > 0))
        assert np.max(np.abs(got.values - ref.values)) <= 1e-13

    def test_constant_speed_interior_matches_free_solver_bitexact(self, grid):
        xs = grid.axis_centers(0)
        bump = grid.with_values(np.clip(1 - np.abs(xs - 1.0) / 0.3, 0, None))
        coef = make_coef(
            velocity=0.8, growth=lambda t, x, w: 0.2 * np.sin(np.asarray(x)),
            v_sup=0.9, m_sup_tv=0.7)
        inflow = make_inflow(BvTimeSeries.constant(0.5), speed_min=0.7,
                             b_sup_tv=0.5)
        got = ibvp_solve(coef, inflow, bump, None, 0.0, 0.5, n_sub=8)
        free = renewal_solve(coef, bump, None, 0.0, 0.5, n_sub=8)
        mask = xs >= 0.8 * 0.5
        assert np.array_equal(got.values[mask], free.values[mask])

    def test_boundary_decay_closed_form(self, grid):
        coef = make_coef(
            growth=lambda t, x, w: -np.ones(np.shape(np.asarray(x))[0]),
            m_sup_tv=1.0)
        inflow = make_inflow(BvTimeSeries.constant(1.0),
                             b_l1=1.0, b_sup_tv=1.0)
        got = ibvp_solve(coef, inflow, grid, None, 0.0, 1.0, n_sub=10)
        xs = grid.axis_centers(0)
        ref = grid.with_values(np.where(xs < 1.0, np.exp(-xs), 0.0))
        assert l1_distance(got, ref) <= 1e-3

    def test_boundary_trace(self, grid):
        inflow = make_inflow(BvTimeSeries.constant(0.75),
                             b_l1=1.0, b_sup_tv=0.75)
        got = ibvp_solve(make_coef(), inflow, grid, None, 0.0, 0.5, n_sub=10)
        assert abs(float(got.values[0]) - 0.75) <= 2 * grid.dx[0]

    def test_empty_inflow_rejected(self, grid):
        inflow = make_inflow()
        object.__setattr__(inflow, "series", None)
        with pytest.raises(UndefinedBoundaryDatum):
            ibvp_solve(make_coef(), inflow, grid, None, 0.0, 0.5)

    def test_clearance(self, grid):
        xs = grid.axis_centers(0)
        near_edge = grid.with_values((xs > 1.9).astype(float))
        coef, inflow = make_coef(), make_inflow()
        with pytest.raises(SupportClearanceViolated):
            ibvp_solve(coef, inflow, near_edge, None, 0.0, 0.5)
        # same datum is fine when the right edge is a model boundary
        out = ibvp_solve(coef, inflow, near_edge, None, 0.0, 0.5,
                         outflow_edge=True)
        assert out.l1() <= near_edge.l1() + 1e-12

    def test_mass_identity_inflow(self, grid):
        xs = grid.axis_centers(0)
        bump = grid.with_values(np.clip(1 - np.abs(xs - 0.8) / 0.3, 0, None))
        inflow = make_inflow(BvTimeSeries.constant(1.0),
                             b_l1=1.0, b_sup_tv=1.0)
        got = ibvp_solve(make_coef(), inflow, bump, None, 0.0, 0.4, n_sub=10)
        expected = bump.l1() + 1.0 * 0.4  # speed * boundary integral
        assert abs(got.l1() - expected) / expected <= 1e-3

    def test_semigroup(self, grid):
        xs = grid.axis_centers(0)
        bump = grid.with_values(np.clip(1 - np.abs(xs - 1.0) / 0.3, 0, None))
        coef = make_coef(
            velocity=cos_speed, divergence=cos_speed_divergence,
            growth=lambda t, x, w: 0.2 * np.sin(np.asarray(x)),
            v_sup=0.9, v_lip=0.1, m_sup_tv=0.7)
        inflow = make_inflow(BvTimeSeries.constant(0.5), speed_min=0.7,
                             b_l1=1.0, b_sup_tv=0.5)
        direct = ibvp_solve(coef, inflow, bump, None, 0.0, 0.5, n_sub=16)
        fine = ibvp_solve(coef, inflow, bump, None, 0.0, 0.5, n_sub=64)
        level_err = max(l1_distance(direct, fine), 2 * grid.dx[0])
        mid = ibvp_solve(coef, inflow, bump, None, 0.0, 0.25, n_sub=8)
        rest = ibvp_solve(coef, inflow, mid, None, 0.25, 0.25, n_sub=8)
        assert l1_distance(rest, direct) <= 5 * level_err

    def test_parameter_lipschitz(self, grid):
        xs = grid.axis_centers(0)
        bump = grid.with_values(np.clip(1 - np.abs(xs - 1.0) / 0.4, 0, None))
        mbar = lambda x: np.exp(-np.asarray(x))
        coef = make_coef(
            growth=lambda t, x, w: float(w) * mbar(x),
            m_sup_tv=2.0, m_param_lip=1.0)
        inflow = make_inflow(b_l1=0.0, b_sup_tv=0.0)
        T, R = 0.4, 4.0
        c = ibvp_lipschitz_constants(coef, inflow, T, R)
        w1, w2 = 0.8, -0.4
        v1 = ibvp_solve(coef, inflow, bump, w1, 0.0, T, n_sub=12)
        v2 = ibvp_solve(coef, inflow, bump, w2, 0.0, T, n_sub=12)
        assert l1_distance(v1, v2) <= c.c_w * T * abs(w1 - w2) * (1 + 1e-3)

    def test_tv_accounting_along_trajectory(self, grid):
        inflow = BvTimeSeries(np.array([0.0, 0.2]), np.array([1.0, 0.6]))
        coef = make_coef(
            growth=lambda t, x, w: -np.ones(np.shape(np.asarray(x))[0]),
            m_sup_tv=1.0)
        boundary = make_inflow(inflow, b_l1=1.0, b_sup_tv=1.4)
        horizon = 0.5
        radius = 8.0
        for t in (0.125, 0.25, 0.5):
            u_t = ibvp_solve(coef, boundary, grid, None, 0.0, t, n_sub=10)
            a1, ai, atv = ibvp_domain_bounds(t, radius, horizon, coef,
                                             boundary)
            gap = abs(float(inflow(t)) - float(u_t.values[0]))
            assert u_t.tv() + gap <= atv + 10 * grid.dx[0]


def two_pass_values(coef, inflow, u0, w, t0, tau, n_sub):
    """The earlier assembly: one transport call per branch, by
    ``backward_transport`` for a callable speed and by the self-contained
    ``frozen_constant_transport`` for a number."""
    t = t0 + tau

    def transport(t_lo, span, x):
        if callable(coef.velocity):
            return backward_transport(coef, w, t, t_lo, x, n_sub, u0.dx)
        return frozen_constant_transport(coef, w, t, span, x, n_sub)

    sigma = float(characteristic(coef.velocity, t0, np.array([0.0]), t, w,
                                 n_sub=n_sub)[0])
    centers = u0.centers()
    interior = centers >= sigma
    vals = np.zeros(centers.shape[0])
    if np.any(interior):
        foot, factor, src = transport(t0, tau, centers[interior])
        vals[interior] = u0.lookup(foot, outside="zero") * factor + src
    boundary = ~interior
    if np.any(boundary):
        cross = boundary_crossing_time(coef.velocity, t, centers[boundary],
                                       t0, n_sub=n_sub)
        _, factor_b, src_b = transport(cross, t - cross, centers[boundary])
        vals[boundary] = inflow.series(cross) * factor_b + src_b
    return vals


def epidemic_step():
    """The epidemic's cohort coefficients; the inflow jumps at t = 0.25."""
    grid = GridFunction.uniform((0.0, 1.0), 400)
    xs = grid.axis_centers(0)
    params = EpidemicParams(
        infection_rate=1.5, recovery_rate=0.3, mortality_rate=0.1,
        vaccination_rate=BvTimeSeries(np.array([0.0, 0.25]),
                                      np.array([0.3, 0.15])),
        immunization_lag=1.0,
        vaccinated_infectivity=grid.with_values(0.8 * (1 - xs)),
        s0=0.7, i0=0.2, r0=0.0, v0=grid.with_values(0.2 * np.exp(-3 * xs)),
        admissible_radius=1.0, horizon=0.5, macro_step=0.02)
    coef, inflow = _epidemic_ibvp(params, i_bound=2.0)
    return coef, inflow, params.v0, np.array([0.65, 0.21]), 0.2, 0.1, 4


def varying_step():
    """``suite_ibvp``'s callable speed, fed by a jumping inflow."""
    grid = GridFunction.uniform((0.0, 2.0), 800)
    xs = grid.axis_centers(0)
    coef = make_coef(
        velocity=cos_speed, divergence=cos_speed_divergence,
        growth=lambda t, x, w: 0.2 * np.sin(np.asarray(x)),
        source=lambda t, x, w: 0.1 * np.exp(-np.asarray(x)) * (1 + t),
        v_sup=0.9, v_lip=0.1, m_sup_tv=0.7, q_l1=0.1, q_sup_tv=0.2)
    inflow = make_inflow(
        BvTimeSeries(np.array([0.0, 0.2]), np.array([1.0, 0.4])),
        speed_min=0.7, b_l1=1.0, b_sup_tv=1.6)
    u0 = grid.with_values(np.clip(1 - np.abs(xs - 1.2) / 0.3, 0, None))
    return coef, inflow, u0, None, 0.0, 0.5, 8


def short_step():
    """A step too short for any cell center to lie left of the origin
    characteristic."""
    grid = GridFunction.uniform((0.0, 2.0), 800)
    coef = make_coef(velocity=1.0,
                     growth=lambda t, x, w: -np.exp(-np.asarray(x)))
    inflow = make_inflow(BvTimeSeries.constant(0.7))
    u0 = grid.with_values(np.exp(-grid.axis_centers(0)))
    return coef, inflow, u0, None, 0.1, 0.4 * grid.dx[0], 3


def all_boundary_step():
    """A step long enough that every cell is seeded by the inflow."""
    grid = GridFunction.uniform((0.0, 1.0), 200)
    xs = grid.axis_centers(0)
    coef = make_coef(
        velocity=ones_speed, growth=lambda t, x, w: -0.5 * np.cos(t + x))
    inflow = make_inflow(BvTimeSeries(np.array([0.0, 0.3, 0.9]),
                                      np.array([1.0, 0.2, 0.6])))
    u0 = grid.with_values(np.clip(1 - np.abs(xs - 0.5) / 0.3, 0, None))
    return coef, inflow, u0, None, 0.0, 1.2, 12


class TestOnePass:
    """``ibvp_solve`` makes one transport pass with per-cell end times; it
    must equal the earlier interior-plus-boundary assembly bit for bit."""

    @pytest.mark.parametrize("case", [epidemic_step, varying_step,
                                      short_step, all_boundary_step])
    def test_matches_two_pass_assembly(self, case):
        coef, inflow, u0, w, t0, tau, n_sub = case()
        got = ibvp_solve(coef, inflow, u0, w, t0, tau, n_sub=n_sub,
                         outflow_edge=True)
        assert np.array_equal(
            got.values, two_pass_values(coef, inflow, u0, w, t0, tau, n_sub))

    def test_cases_cover_both_branches_and_each_alone(self):
        def inflow_seen(case):
            coef, inflow, u0, w, t0, tau, n_sub = case()
            t = t0 + tau
            sigma = float(characteristic(coef.velocity, t0, np.array([0.0]),
                                         t, w, n_sub)[0])
            left = u0.centers() < sigma
            if np.all(left):
                return "all"
            cross = boundary_crossing_time(coef.velocity, t,
                                           u0.centers()[left], t0, n_sub)
            return sorted(set(inflow.series(cross).tolist()))

        # the epidemic and varying steps cross an inflow jump
        assert inflow_seen(epidemic_step) == [0.15, 0.3]
        assert inflow_seen(varying_step) == [0.4, 1.0]
        assert inflow_seen(short_step) == []
        assert inflow_seen(all_boundary_step) == "all"


class TestRenewalView:
    """The inflow problem's coefficients are the renewal problem's;
    ``ibvp_solve`` checks their speed against the ``InflowBoundary``."""

    @pytest.mark.parametrize("speed", [0.5, 1.6])
    def test_constant_speed_outside_certificate_rejected(self, grid, speed):
        coef = make_coef(velocity=speed, v_sup=1.5)
        with pytest.raises(ValueError, match="constant speed"):
            ibvp_solve(coef, make_inflow(speed_min=1.0), grid, None,
                       0.0, 0.5)

    @pytest.mark.parametrize("speed_min, v_sup, message", [
        (0.0, 1.0, "strictly positive"), (-1.0, 1.0, "strictly positive"),
        (1.2, 1.0, "v_sup must be >= speed_min")])
    def test_speed_bounds_rejected(self, grid, speed_min, v_sup, message):
        with pytest.raises(ValueError, match=message):
            ibvp_solve(make_coef(v_sup=v_sup),
                       make_inflow(speed_min=speed_min), grid, None, 0.0, 0.5)


class TestDomainBounds:
    def test_all_zero_with_zero_inflow(self):
        coef = make_coef(v_sup=1e-12)
        a1, ai, atv = ibvp_domain_bounds(0.4, 2.0, 1.0, coef,
                                         make_inflow(speed_min=1e-12))
        assert a1 == pytest.approx(2.0)
        assert ai == pytest.approx(2.0)
        assert atv == pytest.approx(2.0)

    def test_at_horizon(self):
        coef = make_coef(m_sup_tv=0.4)
        inflow = make_inflow(BvTimeSeries.constant(0.3), b_sup_tv=0.3,
                             b_l1=0.3)
        a1, _, _ = ibvp_domain_bounds(1.0, 2.0, 1.0, coef, inflow)
        assert a1 == pytest.approx(2.0)

    def test_variation_envelope_printed_form(self):
        # m + v_lip = ln 2, horizon 1: alpha_tv(0) = (1 - ln 2) * 2
        coef = make_coef(v_sup=1e-12, m_sup_tv=math.log(2.0))
        _, _, atv = ibvp_domain_bounds(0.0, 1.0, 1.0, coef,
                                       make_inflow(speed_min=1e-12))
        assert atv == pytest.approx((1 - math.log(2.0)) * 2.0)

    def test_inadmissible(self):
        coef = make_coef(m_sup_tv=2.0)
        with pytest.raises(InadmissibleHorizon):
            ibvp_domain_bounds(0.0, 1.0, 1.0, coef, make_inflow())


class TestLipschitzConstants:
    def test_all_zero(self):
        c = ibvp_lipschitz_constants(make_coef(v_sup=1e-12),
                                     make_inflow(speed_min=1e-12), 1.0, 1.0)
        assert c.c_u == 0.0
        assert c.c_t == pytest.approx(0.0, abs=1e-10)
        assert c.c_w == pytest.approx(0.0, abs=1e-10)

    def test_growth_only(self):
        c = ibvp_lipschitz_constants(make_coef(v_sup=1e-12, m_sup_tv=1.0),
                                     make_inflow(speed_min=1e-12), 1.0, 1.0)
        assert c.c_u == 1.0
        assert c.c_t == pytest.approx(math.e, abs=1e-9)

    def test_param_source_only(self):
        c = ibvp_lipschitz_constants(make_coef(q_param_lip=1.0),
                                     make_inflow(), 1.0, 1.0)  # unit speeds
        # v_sup * q_param_lip + q_param_lip, no exponential (m = 0)
        assert c.c_w == pytest.approx(2.0)

    def test_full_formula(self):
        coef = make_coef(v_sup=1.5, v_lip=0.2,
                         m_sup_tv=0.3, m_param_lip=0.4,
                         q_l1=0.1, q_sup_tv=0.2, q_param_lip=0.15)
        inflow = make_inflow(speed_min=0.5, b_l1=0.6, b_sup_tv=0.7)
        T, R = 0.8, 1.2
        c = ibvp_lipschitz_constants(coef, inflow, T, R)
        m, vl, vmax = 0.3, 0.2, 1.5
        ct = ((vmax * (0.6 + 2 * R + R * (m + vl) * T) + m * R + 0.1)
              * math.exp(m * T))
        cw = ((0.7 * 0.4 + vmax * 0.15 + 0.5 * vmax * 0.2 * 0.4 * T
               + 0.4 * R + 0.15 + 0.5 * 0.4 * 0.2 * T) * math.exp(m * T))
        assert c.c_u == m
        assert c.c_t == pytest.approx(ct)
        assert c.c_w == pytest.approx(cw)


# --------------------------------------------------------------------------
# The constant-speed solve from a geometry cached per step length
# --------------------------------------------------------------------------

def frozen_constant_transport(coef, w, t, span, x, n_sub):
    """A constant-speed transport of points ``x`` from ``t`` back over
    ``span`` (a scalar or one per point), with one growth and one source
    call per substep: the arithmetic of the library's constant-speed
    kernel, self-contained so it cannot follow a change of it."""
    pts = np.asarray(x, dtype=float).copy()
    ds = np.asarray(span, dtype=float) / n_sub
    source = coef.source or zero_field
    exponent = np.zeros(pts.shape[0])
    source_acc = np.zeros(pts.shape[0])
    h = -ds
    half_h = 0.5 * h
    for j in range(n_sub):
        s_hi = t - j * ds
        nxt = pts + h * coef.velocity
        s_mid = s_hi + half_h
        p_mid = 0.5 * (pts + nxt)
        contrib = np.asarray(coef.growth(s_mid, p_mid, w), dtype=float) * ds
        factor_mid = np.exp(exponent + 0.5 * contrib)
        source_acc = source_acc + (np.asarray(source(s_mid, p_mid, w),
                                              dtype=float)
                                   * factor_mid * ds)
        exponent = exponent + contrib
        pts = nxt
    return pts, np.exp(exponent), source_acc


def frozen_one_pass(coef, inflow, u0, w, t0, tau, n_sub):
    """The constant-speed ``ibvp_solve`` before the cache: one transport
    pass over all cells, ``tau`` long but for the inflow cells, which end
    at their crossing times.  Returns the values and the number of inflow
    cells."""
    t = t0 + tau
    sigma = float(characteristic(coef.velocity, t0, np.array([0.0]), t, w,
                                 n_sub=n_sub)[0])
    centers = u0.centers()
    n_bdy = int(np.count_nonzero(centers < sigma))
    t_in = boundary_crossing_time(coef.velocity, t, centers[:n_bdy], t0,
                                  n_sub=n_sub)
    span = np.full(centers.shape[0], tau)
    span[:n_bdy] = t - t_in
    foot, factor, src = frozen_constant_transport(coef, w, t, span, centers,
                                                  n_sub)
    seed = u0.lookup(foot, outside="zero")
    seed[:n_bdy] = inflow.series(t_in)
    return seed * factor + src, n_bdy


def epidemic_cohort(cells=1600):
    """The epidemic's cohort coefficients, inflow and datum on ``cells``
    age cells (the benchmark's size)."""
    grid = GridFunction.uniform((0.0, 1.0), cells)
    xs = grid.axis_centers(0)
    params = EpidemicParams(
        infection_rate=1.5, recovery_rate=0.3, mortality_rate=0.1,
        vaccination_rate=BvTimeSeries(np.array([0.0, 0.25]),
                                      np.array([0.3, 0.15])),
        immunization_lag=1.0,
        vaccinated_infectivity=grid.with_values(
            0.8 * (1 - xs) + 0.1 * np.sin(40 * xs)),
        s0=0.7, i0=0.2, r0=0.0, v0=grid.with_values(0.2 * np.exp(-3 * xs)),
        admissible_radius=1.0, horizon=0.5, macro_step=0.02)
    coef, inflow = _epidemic_ibvp(params, i_bound=2.0)
    return coef, inflow, params.v0


# start times at which ``(t0 + dt) - t0`` rounds differently: a step
# length recomputed from two absolute times would not be one per level
SWEEP_T0 = (0.0, 0.02, 0.1, 0.23, 0.2375, 0.47)


@pytest.fixture
def prefix_lengths(monkeypatch):
    """The lengths of the inflow prefixes ``ibvp_solve`` hands the
    constant-speed kernel, one per solve."""
    lengths = []
    kernel = ibvp._constant_speed_transport

    def recorded(coef, u0, w, t0, tau, n_sub, t_lo, seeds):
        lengths.append(len(t_lo))
        return kernel(coef, u0, w, t0, tau, n_sub, t_lo, seeds)

    monkeypatch.setattr(ibvp, "_constant_speed_transport", recorded)
    return lengths


def frozen_free_values(coef, u0, w, t0, tau, n_sub):
    """``renewal_solve`` for a constant speed by the per-substep oracle."""
    foot, factor, src = frozen_constant_transport(coef, w, t0 + tau, tau,
                                                  u0.centers(), n_sub)
    return u0.lookup(foot, outside="zero") * factor + src


def geometry(speed, u0, tau, n_sub, n_bdy):
    """The cached geometry the constant-speed kernel reads for a step."""
    return renewal._cached_geometry(speed, tau, n_sub, n_bdy,
                                    u0.values.shape[0], u0.origin[0],
                                    u0.dx[0])


def split(coef, u0, t0, tau):
    """The number of cells left of the origin characteristic."""
    sigma = float(characteristic(coef.velocity, t0, np.array([0.0]),
                                 t0 + tau, None)[0])
    return int(np.count_nonzero(u0.centers() < sigma))


class TestCachedGeometry:
    """A constant speed reads its substep midpoints and feet from a cache
    keyed by the step length, and calls the growth (and the source) once
    per solve."""

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("n_sub", [2, 5])
    def test_epidemic_sweep_bitexact(self, level, n_sub):
        coef, inflow, u0 = epidemic_cohort()
        w = np.array([0.65, 0.21])
        tau = 0.02 / 2 ** level
        before = renewal._cached_geometry.cache_info().misses
        for t0 in SWEEP_T0:
            got = ibvp_solve(coef, inflow, u0, w, t0, tau, n_sub=n_sub,
                             outflow_edge=True)
            ref, n_bdy = frozen_one_pass(coef, inflow, u0, w, t0, tau, n_sub)
            assert n_bdy > 0
            assert same_bits(got.values, ref)
        # one step length, so one geometry, whatever the start time
        assert renewal._cached_geometry.cache_info().misses <= before + 1

    def test_smooth_growth_and_source(self):
        grid = GridFunction.uniform((0.0, 2.0), 800)
        xs = grid.axis_centers(0)
        coef = make_coef(
            velocity=0.8,
            growth=lambda t, x, w: 0.3 * np.cos(np.asarray(x)) - 0.2 * t,
            source=lambda t, x, w: 0.1 * np.exp(-np.asarray(x)) * (1 + t),
            v_sup=0.9, m_sup_tv=1.0, q_l1=0.2, q_sup_tv=0.4)
        inflow = make_inflow(
            BvTimeSeries(np.array([0.0, 0.3]), np.array([1.0, 0.4])),
            speed_min=0.7, b_l1=1.0, b_sup_tv=1.6)
        u0 = grid.with_values(np.clip(1 - np.abs(xs - 1.2) / 0.3, 0, None))
        for t0, tau, n_sub in ((0.0, 0.5, 8), (0.23, 0.005, 2),
                               (0.1, 0.5, 16)):
            got = ibvp_solve(coef, inflow, u0, None, t0, tau, n_sub=n_sub)
            ref, n_bdy = frozen_one_pass(coef, inflow, u0, None, t0, tau,
                                         n_sub)
            assert n_bdy > 0
            assert same_bits(got.values[n_bdy:], ref[n_bdy:])
            # the inflow cells' midpoints come from the cached closed form
            assert np.all(np.abs(got.values[:n_bdy] - ref[:n_bdy])
                          <= 1e-14 * np.abs(ref[:n_bdy]))

    @pytest.mark.parametrize("speed", [-2.0, -0.6, 1.0, 2.5])
    @pytest.mark.parametrize("with_source", [False, True])
    def test_renewal_matches_per_substep_calls(self, speed, with_source):
        # speeds of either sign, some feet off the grid, signed zeros
        grid = GridFunction.uniform((-2.0, 3.0), 100)
        xs = grid.axis_centers(0)
        vals = np.clip(1 - np.abs(xs - 0.5) / 0.3, 0, None)
        u0 = grid.with_values(np.where(vals == 0, -0.0, vals))
        coef = make_coef(
            velocity=speed, v_sup=abs(speed),
            growth=lambda t, x, w: 0.3 * np.cos(x) - 0.1 * t,
            source=(lambda t, x, w: 0.2 * np.exp(-x * x) * (1 + t))
            if with_source else None)
        for t0, tau, n_sub in ((0.1, 0.8, 12), (0.23, 0.005, 2)):
            got = renewal_solve(coef, u0, None, t0, tau, n_sub=n_sub)
            assert same_bits(got.values,
                             frozen_free_values(coef, u0, None, t0, tau,
                                                n_sub))
        foot = xs - 0.8 * speed
        assert np.any((foot < -2.0) | (foot >= 3.0))

    def test_inflow_prefix_matches_per_substep_calls(self, prefix_lengths):
        # the inflow cells end at their own crossing times
        coef = make_coef(
            velocity=0.6, v_sup=0.6,
            growth=lambda t, x, w: 0.3 * np.cos(x) - 0.1 * t,
            source=lambda t, x, w: 0.2 * np.exp(-x * x) * (1 + t))
        inflow = make_inflow(
            BvTimeSeries(np.array([0.0, 0.3]), np.array([1.0, 0.4])),
            speed_min=0.6)
        grid = GridFunction.uniform((0.0, 2.0), 80)
        xs = grid.axis_centers(0)
        u0 = grid.with_values(np.clip(1 - np.abs(xs - 0.9) / 0.3, 0, None))
        got = ibvp_solve(coef, inflow, u0, None, 0.1, 0.9, n_sub=12)
        ref, n_bdy = frozen_one_pass(coef, inflow, u0, None, 0.1, 0.9, 12)
        assert prefix_lengths == [n_bdy] and n_bdy > 1
        assert same_bits(got.values[n_bdy:], ref[n_bdy:])
        # the inflow cells' midpoints come from the cached closed form
        assert np.all(np.abs(got.values[:n_bdy] - ref[:n_bdy])
                      <= 1e-14 * np.abs(ref[:n_bdy]))
        ref, _ = frozen_geometry_solve(coef, inflow, u0, None, 0.1, 0.9, 12)
        assert same_bits(got.values, ref)

    def test_one_rate_call_per_solve(self, grid):
        calls = {"growth": 0, "source": 0}

        def counted(name, fn):
            def field(t, x, w):
                calls[name] += 1
                return fn(t, x, w)
            return field

        coef = make_coef(
            velocity=1.0,
            growth=counted("growth", lambda t, x, w: -0.5 * np.cos(t + x)),
            source=counted("source", lambda t, x, w: 0.1 * np.exp(-x)))
        inflow = make_inflow(BvTimeSeries.constant(0.5))
        ibvp_solve(coef, inflow, grid, None, 0.0, 0.3, n_sub=12)
        assert calls == {"growth": 1, "source": 1}
        renewal_solve(coef, grid, None, 0.0, 0.3, n_sub=12)
        assert calls == {"growth": 2, "source": 2}
        ibvp_solve(dataclasses.replace(coef, source=None), inflow, grid,
                   None, 0.0, 0.3, n_sub=12)
        assert calls == {"growth": 3, "source": 2}
        renewal_solve(dataclasses.replace(coef, source=None), grid, None,
                      0.0, 0.3, n_sub=12)
        assert calls == {"growth": 4, "source": 2}

    def test_epidemic_looks_up_once_per_step_length(self, tmp_path,
                                                    monkeypatch):
        lookups = []
        spans = []
        lookup = GridFunction.lookup
        solve = ibvp.ibvp_solve

        def counted_lookup(grid, points, outside="zero"):
            if outside == "clamp":
                lookups.append(len(spans))
            return lookup(grid, points, outside)

        def recorded_solve(coef, inflow, u0, w, t0, tau, **kw):
            spans.append(tau)
            return solve(coef, inflow, u0, w, t0, tau, **kw)

        monkeypatch.setattr(GridFunction, "lookup", counted_lookup)
        monkeypatch.setattr(ibvp, "ibvp_solve", recorded_solve)
        cfg = load_config(ROOT / "configs" / "epidemic.json")
        cache = renewal._cached_geometry
        cache.cache_clear()
        assert run(cfg, tmp_path, quiet=True) == 0
        # one geometry per refinement level, each built once
        meta = json.loads((tmp_path / "summary.json").read_text())["meta"]
        assert cache.cache_info().misses == meta["j_max"] + 1
        assert len(set(spans)) == meta["j_max"] + 1
        changes = 1 + sum(a != b for a, b in zip(spans, spans[1:]))
        # every lookup is the growth's, made inside a solve
        assert 0 < len(lookups) <= changes < len(spans)
        # no two lookups within one run of equal step lengths
        assert len(set(lookups)) == len(lookups)
        assert all(spans[i - 2] != spans[i - 1]
                   for i in lookups[1:])

    def test_cache_bounded_and_read_only(self, grid):
        cache = renewal._cached_geometry
        assert cache.cache_info().maxsize == 16
        assert renewal._GEOMETRY_CACHE_CELLS * 8 * 16 <= 2 ** 21
        coef = make_coef(velocity=1.0)
        for solve in (lambda: ibvp_solve(coef, make_inflow(), grid, None,
                                         0.1, 0.3, n_sub=2),
                      lambda: renewal_solve(coef, grid, None, 0.1, 0.3,
                                            n_sub=2)):
            solve()
            before = cache.cache_info()
            solve()
            assert cache.cache_info().hits == before.hits + 1
        n_bdy = split(coef, grid, 0.1, 0.3)
        assert n_bdy > 0
        for prefix in (n_bdy, 0):
            before = cache.cache_info()
            cached = geometry(1.0, grid, 0.3, 2, prefix)
            assert cache.cache_info().hits == before.hits + 1
            for arr in (cached.mids, cached.feet):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
        # a large grid is built afresh, not held
        big = GridFunction.uniform((0.0, 1.0),
                                   1 + renewal._GEOMETRY_CACHE_CELLS // 3)
        before = cache.cache_info()
        ibvp_solve(coef, make_inflow(), big, None, 0.1, 0.3, n_sub=2)
        renewal_solve(coef, big, None, 0.1, 0.3, n_sub=2)
        assert cache.cache_info().currsize == before.currsize


class TestNoSource:
    """``source=None`` gives the bytes of an explicit zero source."""

    @pytest.mark.parametrize("speed", [1.0, ones_speed])
    def test_ibvp_matches_zero_source(self, grid, speed):
        xs = grid.axis_centers(0)
        vals = np.clip(1 - np.abs(xs - 1.2) / 0.3, 0, None)
        u0 = grid.with_values(np.where(vals == 0.0, -0.0, vals))
        coef = make_coef(velocity=speed,
                         growth=lambda t, x, w: -0.5 * np.cos(t + x),
                         m_sup_tv=1.0)
        inflow = make_inflow(BvTimeSeries(np.array([0.0, 0.2]),
                                          np.array([0.0, 0.6])))
        got = ibvp_solve(dataclasses.replace(coef, source=None), inflow, u0,
                         None, 0.0, 0.4, n_sub=6)
        ref = ibvp_solve(coef, inflow, u0, None, 0.0, 0.4, n_sub=6)
        assert np.any(np.signbit(u0.values))
        assert same_bits(got.values, ref.values)
        assert not np.any(np.signbit(got.values))


# --------------------------------------------------------------------------
# The lean constant-speed path: per-cell work only on the inflow prefix
# --------------------------------------------------------------------------

def frozen_geometry_solve(coef, inflow, u0, w, t0, tau, n_sub):
    """The constant-speed ``ibvp_solve`` as it was with full-length end
    times: every cell's crossing time, substep length and substep times,
    and a zero-padded lookup, from a geometry built afresh.  Self-contained,
    so it cannot follow a change of the library's helpers.  Returns the
    values and the number of inflow cells."""
    speed = coef.velocity
    n = u0.values.shape[0]
    origin, dx = u0.origin[0], u0.dx[0]
    t = t0 + tau
    sigma = float((np.array([0.0]) + (t - t0) * speed)[0])
    centers = origin + (np.arange(n) + 0.5) * dx
    n_bdy = int(np.count_nonzero(centers < sigma))
    mids = np.empty((n_sub, n))
    x_in = centers[:n_bdy]
    mids[:, :n_bdy] = (x_in - ((np.arange(n_sub) + 0.5) / n_sub)[:, None]
                       * x_in)
    pts, h = centers[n_bdy:], -(tau / n_sub)
    for j in range(n_sub):
        nxt = pts + h * speed
        mids[j, n_bdy:] = 0.5 * (pts + nxt)
        pts = nxt
    idx = np.floor((pts - origin) / dx).astype(np.int64)
    feet = np.zeros(n, dtype=np.int64)
    feet[n_bdy:] = np.minimum(np.maximum(idx, -1), n) + 1
    t_lo = np.full(n, float(t0))
    t_lo[:n_bdy] = np.minimum(np.maximum(t - centers[:n_bdy] / speed, t0), t)
    span = np.full(n, tau)
    span[:n_bdy] = t - t_lo[:n_bdy]
    ds = span / n_sub
    s = ((t - np.arange(n_sub, dtype=float).reshape(-1, 1) * ds)
         + 0.5 * (-ds)).ravel()
    mids = mids.reshape(-1)
    contrib = np.asarray(coef.growth(s, mids, w),
                         dtype=float).reshape(n_sub, n) * ds
    q = (None if coef.source is None
         else np.asarray(coef.source(s, mids, w), dtype=float)
         .reshape(n_sub, n))
    exponent = np.zeros(n)
    source_acc = np.zeros(n)
    for j in range(n_sub):
        if q is not None:
            factor_mid = np.exp(exponent + 0.5 * contrib[j])
            source_acc = source_acc + q[j] * factor_mid * ds
        exponent = exponent + contrib[j]
    padded = np.zeros(n + 2)
    padded[1:-1] = u0.values
    seed = padded[feet]
    seed[:n_bdy] = inflow.series(t_lo[:n_bdy])
    return seed * np.exp(exponent) + source_acc, n_bdy


def smooth_source_problem():
    """A constant speed with a time-dependent growth and a source, on a
    datum with signed zeros, fed by a jumping inflow."""
    grid = GridFunction.uniform((0.0, 2.0), 800)
    xs = grid.axis_centers(0)
    coef = make_coef(
        velocity=0.8,
        growth=lambda t, x, w: 0.3 * np.cos(np.asarray(x)) - 0.2 * t,
        source=lambda t, x, w: 0.1 * np.exp(-np.asarray(x)) * (1 + t),
        v_sup=0.9, m_sup_tv=1.0, q_l1=0.2, q_sup_tv=0.4)
    inflow = make_inflow(
        BvTimeSeries(np.array([0.0, 0.3]), np.array([1.0, 0.4])),
        speed_min=0.7, b_l1=1.0, b_sup_tv=1.6)
    vals = np.clip(1 - np.abs(xs - 1.2) / 0.3, 0, None)
    return coef, inflow, grid.with_values(np.where(vals == 0, -0.0, vals))


class TestLeanInflowPath:
    """Crossing times, substep lengths and substep times are computed on
    the inflow prefix only; every output byte is the full-length code's."""

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("n_sub", [2, 3])
    def test_epidemic_levels_bitexact(self, level, n_sub, prefix_lengths):
        coef, inflow, u0 = epidemic_cohort()
        w = np.array([0.65, 0.21])
        tau = 0.02 / 2 ** level
        for t0 in SWEEP_T0:
            got = ibvp_solve(coef, inflow, u0, w, t0, tau, n_sub=n_sub,
                             outflow_edge=True)
            ref, n_bdy = frozen_geometry_solve(coef, inflow, u0, w, t0, tau,
                                               n_sub)
            assert n_bdy == prefix_lengths[-1] > 0
            assert same_bits(got.values, ref)

    # steps of 0.25, 1, 32 and 1601 cells at unit speed on 1,600 cells
    @pytest.mark.parametrize("cells, n_bdy", [(0.25, 0), (1, 1), (32, 32),
                                              (1601, 1600)])
    @pytest.mark.parametrize("with_source", [False, True])
    def test_inflow_prefix_sizes(self, cells, n_bdy, with_source,
                                 prefix_lengths):
        coef, inflow, u0 = epidemic_cohort()
        if with_source:
            coef = dataclasses.replace(
                coef, source=lambda t, x, w: 0.05 * np.cos(x) * (1 + t))
        w = np.array([0.65, 0.21])
        t0, tau = 0.23, cells * u0.dx[0]
        for n_sub in (2, 5):
            got = ibvp_solve(coef, inflow, u0, w, t0, tau, n_sub=n_sub,
                             outflow_edge=True)
            assert prefix_lengths[-1] == n_bdy
            ref, _ = frozen_geometry_solve(coef, inflow, u0, w, t0, tau,
                                           n_sub)
            assert same_bits(got.values, ref)

    @pytest.mark.parametrize("with_source", [False, True])
    def test_time_dependent_rates_bitexact(self, with_source):
        coef, inflow, u0 = smooth_source_problem()
        if not with_source:
            coef = dataclasses.replace(coef, source=None)
        assert np.any(np.signbit(u0.values))
        for t0, tau, n_sub in ((0.0, 0.5, 8), (0.23, 0.005, 2),
                               (0.1, 0.5, 16), (0.2, 1e-4, 3)):
            got = ibvp_solve(coef, inflow, u0, None, t0, tau, n_sub=n_sub)
            ref, n_bdy = frozen_geometry_solve(coef, inflow, u0, None, t0,
                                               tau, n_sub)
            assert same_bits(got.values, ref), (t0, tau, n_bdy)

    @pytest.mark.parametrize("t0", [0.0, 0.37])
    def test_interior_foot_off_the_grid_reads_zero(self, t0):
        # a cell centre on the origin characteristic is interior, and its
        # foot may round to just left of the origin
        grid = GridFunction.uniform((0.0, 1.0), 8)
        u0 = grid.with_values(1.0 + grid.axis_centers(0))
        coef = make_coef(velocity=1.0, source=None,
                         growth=lambda t, x, w: -0.5 * np.cos(t + x))
        inflow = make_inflow(BvTimeSeries.constant(0.25))
        tau = 2.5 * grid.dx[0]
        got = ibvp_solve(coef, inflow, u0, None, t0, tau, n_sub=3,
                         outflow_edge=True)
        n_bdy = split(coef, u0, t0, tau)
        assert n_bdy == 2
        assert geometry(1.0, u0, tau, 3, n_bdy).off_grid.tolist() == [2]
        ref, _ = frozen_geometry_solve(coef, inflow, u0, None, t0, tau, 3)
        assert same_bits(got.values, ref)
        assert got.values[2] == 0.0

    def test_no_step_returns_the_datum(self):
        coef, inflow, u0 = epidemic_cohort()
        assert ibvp_solve(coef, inflow, u0, np.array([0.6, 0.2]), 0.3, 0.0,
                          n_sub=2, outflow_edge=True) is u0

    def test_no_crossing_still_raised(self, monkeypatch):
        # a split that claims cells right of the origin characteristic
        # for the inflow: their crossings predate t0
        coef, inflow, u0 = epidemic_cohort()

        def too_wide(*args, **kw):
            return characteristic(*args, **kw) + 2.0

        monkeypatch.setattr(ibvp, "characteristic", too_wide)
        with pytest.raises(NoCrossing):
            ibvp_solve(coef, inflow, u0, np.array([0.6, 0.2]), 0.1, 0.02,
                       n_sub=2, outflow_edge=True)

    def test_traced_calls_fire_once_per_solve(self, monkeypatch):
        calls = []
        for name in ("characteristic", "boundary_crossing_time"):
            def counted(*args, _fn=getattr(ibvp, name), _name=name, **kw):
                calls.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(ibvp, name, counted)
        coef, inflow, u0 = epidemic_cohort()
        for tau in (1e-5, 0.001, 0.02):
            ibvp_solve(coef, inflow, u0, np.array([0.6, 0.2]), 0.1, tau,
                       n_sub=2, outflow_edge=True)
        assert sorted(calls) == ["boundary_crossing_time"] * 3 \
            + ["characteristic"] * 3

    def test_one_growth_call_on_the_cached_midpoints(self):
        seen = []
        coef, inflow, u0 = epidemic_cohort()
        growth = coef.growth

        def recorded(t, x, w):
            seen.append(x)
            return growth(t, x, w)

        coef = dataclasses.replace(coef, growth=recorded)
        w = np.array([0.65, 0.21])
        for t0 in (0.0, 0.25, 0.0, 0.5):
            ibvp_solve(coef, inflow, u0, w, t0, 0.0125, n_sub=2,
                       outflow_edge=True)
            cached = geometry(1.0, u0, 0.0125, 2,
                              split(coef, u0, t0, 0.0125))
            assert seen[-1] is cached.mids
        assert len(seen) == 4
        assert seen[0] is seen[2]
