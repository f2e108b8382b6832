import math

import numpy as np
import pytest

from polyflow.errors import (InadmissibleHorizon, NoCrossing,
                             SupportClearanceViolated,
                             UndefinedBoundaryDatum)
from polyflow.ibvp import (InflowBoundary, boundary_crossing_time,
                           ibvp_domain_bounds, ibvp_lipschitz_constants,
                           ibvp_solve)
from polyflow.renewal import (RenewalCoefficients, backward_transport,
                              characteristic, renewal_solve)
from polyflow.epidemic import EpidemicParams, _epidemic_ibvp
from polyflow.spaces import BvTimeSeries, GridFunction, l1_distance


def ones_speed(t, x, w):
    return np.ones(np.shape(np.asarray(x))[0])


def zero_field(t, x, w):
    return np.zeros(np.shape(np.asarray(x))[0])


def cos_speed(t, x, w):
    return 0.8 + 0.1 * np.cos(np.asarray(x))


def cos_speed_divergence(t, x, w):
    return -0.1 * np.sin(np.asarray(x))


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
        rest = ibvp_solve(coef, inflow, mid, None, 0.25, 0.5, n_sub=8)
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


def two_pass_values(coef, inflow, u0, w, t0, t, n_sub):
    """The earlier assembly: one transport call per branch."""
    sigma = float(characteristic(coef.velocity, t0, np.array([0.0]), t, w,
                                 n_sub=n_sub)[0])
    centers = u0.centers()
    interior = centers >= sigma
    vals = np.zeros(centers.shape[0])
    if np.any(interior):
        foot, factor, src = backward_transport(coef, w, t, t0,
                                               centers[interior], n_sub,
                                               u0.dx)
        vals[interior] = u0.lookup(foot, outside="zero") * factor + src
    boundary = ~interior
    if np.any(boundary):
        cross = boundary_crossing_time(coef.velocity, t, centers[boundary],
                                       t0, n_sub=n_sub)
        _, factor_b, src_b = backward_transport(coef, w, t, cross,
                                                centers[boundary], n_sub,
                                                u0.dx)
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
    return coef, inflow, params.v0, np.array([0.65, 0.21]), 0.2, 0.3, 4


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
    return coef, inflow, u0, None, 0.1, 0.1 + 0.4 * grid.dx[0], 3


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
        coef, inflow, u0, w, t0, t, n_sub = case()
        got = ibvp_solve(coef, inflow, u0, w, t0, t, n_sub=n_sub,
                         outflow_edge=True)
        assert np.array_equal(
            got.values, two_pass_values(coef, inflow, u0, w, t0, t, n_sub))

    def test_cases_cover_both_branches_and_each_alone(self):
        def inflow_seen(case):
            coef, inflow, u0, w, t0, t, n_sub = case()
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
