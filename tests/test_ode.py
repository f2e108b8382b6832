import math
import random
import tracemalloc

import numpy as np
import pytest

from polyflow.errors import DomainExit, HorizonExceeded, NegativeRadius
from polyflow.ode import (OdeField, _leaves_ball, _rk4, ode_constants,
                         ode_domain_radius, ode_solve)
from polyflow.spaces import BvTimeSeries


def linear_field(radius=8.0):
    return OdeField(f=lambda t, u, w: u, lip=1.0, sup=radius, radius=radius)


class TestOdeSolve:
    def test_constant_rate_exact(self):
        field = OdeField(f=lambda t, u, w: np.full(1, float(w)),
                         lip=1.0, sup=2.0, radius=4.0)
        out = ode_solve(field, 0.0, 1.0, np.zeros(1), 2.0, n_sub=3)
        assert out[0] == pytest.approx(2.0, abs=1e-14)

    def test_exponential(self):
        out = ode_solve(linear_field(), 0.0, 1.0, np.array([1.0]), None,
                        n_sub=100)
        assert abs(out[0] - math.e) < 1e-8

    def test_start_time_identity(self):
        u0 = np.array([0.3, -0.4])
        out = ode_solve(linear_field(), 0.5, 0.5, u0, None)
        assert np.array_equal(out, u0)

    def test_domain_exit(self):
        field = OdeField(f=lambda t, u, w: u, lip=1.0, sup=1.0, radius=1.5)
        with pytest.raises(DomainExit):
            ode_solve(field, 0.0, 1.0, np.array([1.0]), None, n_sub=16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_leaves_the_ball(self, bad):
        with pytest.raises(DomainExit) as exc:
            ode_solve(linear_field(), 0.0, 1.0, np.array([0.1, bad]), None)
        assert exc.value.step == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_leaves_the_ball(self, bad):
        field = OdeField(f=lambda t, u, w: np.array([0.0, bad]),
                         lip=1.0, sup=1.0, radius=4.0)
        with pytest.raises(DomainExit) as exc:
            ode_solve(field, 0.0, 1.0, np.zeros(2), None, n_sub=4)
        assert exc.value.step == 1

    def test_ball_check_matches_the_linalg_norm(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 7):
            for _ in range(200):
                u = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
                norm = float(np.linalg.norm(u))
                for reach in (norm, np.nextafter(norm, 0.0),
                              np.nextafter(norm, np.inf), 0.5 * norm):
                    assert _leaves_ball(u, reach) == (norm > reach)

    def test_start_state_is_copied(self):
        u0 = np.array([0.3, -0.4])
        out = ode_solve(linear_field(), 0.5, 0.5, u0, None)
        out[0] = 9.0
        assert u0[0] == 0.3
        scalar = ode_solve(linear_field(), 0.5, 0.5, 0.25, None)
        assert scalar.shape == (1,) and scalar[0] == 0.25

    def test_horizon_exceeded(self):
        with pytest.raises(HorizonExceeded):
            ode_solve(linear_field(), 0.0, 2.0, np.array([0.1]), None,
                      horizon=1.0)

    def test_rk4_order(self):
        errs = []
        for n in (8, 16, 32, 64):
            out = ode_solve(linear_field(), 0.0, 1.0, np.array([1.0]), None,
                            n_sub=n)
            errs.append(abs(out[0] - math.e))
        orders = [math.log2(errs[i] / errs[i + 1])
                  for i in range(len(errs) - 1)]
        assert min(orders) >= 3.9

    def test_lipschitz_in_data(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u1 = rng.uniform(-1, 1, 3)
            u2 = rng.uniform(-1, 1, 3)
            v1 = ode_solve(linear_field(), 0.0, 0.7, u1, None, n_sub=32)
            v2 = ode_solve(linear_field(), 0.0, 0.7, u2, None, n_sub=32)
            lhs = np.linalg.norm(v1 - v2)
            rhs = math.exp(1.0 * 0.7) * np.linalg.norm(u1 - u2)
            assert lhs <= rhs * (1 + 1e-6)

    def test_lipschitz_in_parameter(self):
        field = OdeField(f=lambda t, u, w: np.full(1, float(w)),
                         lip=1.0, sup=4.0, radius=8.0)
        horizon = 1.0
        c = ode_constants(field, horizon)
        v1 = ode_solve(field, 0.0, 1.0, np.zeros(1), 1.0, n_sub=4)
        v2 = ode_solve(field, 0.0, 1.0, np.zeros(1), -0.5, n_sub=4)
        assert abs(v1[0] - v2[0]) <= c.c_w * 1.0 * 1.5 * (1 + 1e-6)

    def test_time_lipschitz(self):
        field = OdeField(f=lambda t, u, w: np.array([math.cos(3 * t)]),
                         lip=0.0, sup=1.0, radius=4.0)
        v1 = ode_solve(field, 0.0, 0.5, np.zeros(1), None, n_sub=64)
        v2 = ode_solve(field, 0.0, 0.9, np.zeros(1), None, n_sub=64)
        assert abs(v2[0] - v1[0]) <= field.sup * 0.4 * (1 + 1e-6)


class TestOneSidedForcing:
    """``u' = b(t)`` with a left-continuous step ``b`` that jumps at 0.5.

    Every substep reads ``b`` from inside itself, so a jump on a substep's
    edge costs no accuracy: RK4 integrates each constant piece exactly.
    """

    b = BvTimeSeries(np.array([0.0, 0.5]), np.array([1.0, 3.0]))
    field = OdeField(f=lambda t, u, w: np.array([TestOneSidedForcing.b(t)]),
                     lip=0.0, sup=3.0, radius=8.0)

    @pytest.mark.parametrize("t0, t, n_sub, exact", [
        (0.5, 1.0, 4, 1.5),    # the jump on the step start
        (0.0, 0.5, 4, 0.5),    # on the step end
        (0.0, 1.0, 4, 2.0),    # on a substep boundary
        (0.0, 1.0, 1, None),   # inside the one substep: RK4's own error
    ], ids=["step-start", "step-end", "substep-boundary", "inside"])
    def test_exact_integral(self, t0, t, n_sub, exact):
        out = ode_solve(self.field, t0, t, np.zeros(1), None, n_sub=n_sub)
        if exact is None:
            # stages at 0, 0.5, 0.5, 1 read 1, 1, 1, 3: the jump sits on
            # the midpoint, which a left-continuous series reads as before
            assert out[0] == pytest.approx((1 + 2 + 2 + 3) / 6.0, abs=1e-15)
        else:
            assert out[0] == pytest.approx(exact, abs=1e-14)

    def test_first_stage_time(self):
        seen = []

        def f(s, u):
            seen.append(s)
            return u

        _rk4(f, 1.0, np.ones(1), 0.5)
        _rk4(f, 1.0, np.ones(1), 0.5, t_first=1.25)
        assert seen == [1.0, 1.25, 1.25, 1.5, 1.25, 1.25, 1.25, 1.5]


class TestAudit:
    def test_honest_certificates_pass(self):
        field = OdeField(f=lambda t, u, w: u, lip=1.0, sup=8.0, radius=8.0)
        rng = random.Random(0)
        assert field.audit(rng, n=128, dim=2) <= 0.0

    def test_understated_certificates_flagged(self):
        field = OdeField(f=lambda t, u, w: 3.0 * u, lip=1.0, sup=24.0,
                         radius=8.0)
        rng = random.Random(0)
        assert field.audit(rng, n=128, dim=2) > 0.0


class TestDomainRadius:
    def test_at_horizon(self):
        assert ode_domain_radius(1.0, 1.0, 2.0, 1.0) == 2.0

    def test_interior_value(self):
        assert ode_domain_radius(0.0, 0.5, 1.0, 1.0) == pytest.approx(0.5)

    def test_zero_sup(self):
        for t in (0.0, 0.3, 1.0):
            assert ode_domain_radius(t, 1.0, 3.0, 0.0) == 3.0

    def test_negative_radius_configuration(self):
        with pytest.raises(NegativeRadius):
            ode_domain_radius(0.0, 1.0, 1.0, 1.0)  # horizon > R/(2 sup)


def textbook_rk4(f, t, u, h, t_first=None):
    """The classical RK4 step as one expression: the reference whose bits
    ``_rk4`` keeps."""
    k1 = f(t if t_first is None else t_first, u)
    k2 = f(t + 0.5 * h, u + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, u + 0.5 * h * k2)
    k4 = f(t + h, u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


class TestRk4Step:
    """``_rk4`` sums its stages as they arrive, in the textbook order, so
    its bits are those of the one-expression step."""

    @staticmethod
    def wavy(t, x):
        return np.sin(3.0 * x) * np.cos(t) + 0.3 * x * x - t

    @pytest.mark.parametrize("shape", [(1,), (2,), (20000, 2)])
    @pytest.mark.parametrize("t_first", [None, math.nextafter(0.25, 1.0)])
    def test_bits_match_the_textbook_step(self, shape, t_first):
        u = np.random.default_rng(7).uniform(-2.0, 2.0, shape)
        kept = u.copy()
        for h in (0.1, -0.037, 1.0 / 3.0):
            out = _rk4(self.wavy, 0.25, u, h, t_first)
            assert same_bits(out, textbook_rk4(self.wavy, 0.25, u, h,
                                               t_first))
        assert same_bits(u, kept)

    def test_stages_that_broadcast_against_the_state(self):
        # a (1,) stage for a (3,) state
        f = lambda t, x: np.array([np.sin(x.sum()) + t])
        u = np.array([0.3, -1.1, 2.5])
        out = _rk4(f, 0.5, u, 0.2)
        assert out.shape == (3,)
        assert same_bits(out, textbook_rk4(f, 0.5, u, 0.2))

    @pytest.mark.parametrize("wrap", [np.asarray, np.float64],
                             ids=["0d-array", "numpy-scalar"])
    def test_zero_dimensional_stages(self, wrap):
        f = lambda t, x: wrap(math.cos(float(x.sum())) - 0.7 * t)
        u = np.array([0.4])
        out = _rk4(f, 1.0, u, 0.3)
        assert same_bits(out, textbook_rk4(f, 1.0, u, 0.3))

    def test_array_clock_and_step(self):
        # ibvp's crossing times step a per-point clock by per-point steps
        f = lambda p, s: 1.0 / (1.0 + 0.25 * np.sin(p + s))
        pos = np.linspace(0.1, 2.0, 9)
        tau = np.full(9, 0.8)
        h = -pos / 5
        assert same_bits(_rk4(f, pos, tau, h), textbook_rk4(f, pos, tau, h))

    def test_field_returning_its_input(self):
        # k1 is u itself: the step must not write into it
        f = lambda t, x: x
        u = np.array([1.0, -2.0, 0.5])
        kept = u.copy()
        out = _rk4(f, 0.0, u, 0.1)
        assert same_bits(u, kept)
        assert same_bits(out, textbook_rk4(f, 0.0, kept, 0.1))

    def test_step_peak_memory(self):
        # the stages are released as they are used: one step on a large
        # state peaks at four state sizes above its inputs (the one
        # expression held six)
        u = np.random.default_rng(3).standard_normal((20000, 2))
        f = lambda t, x: -x
        _rk4(f, 0.0, u, 0.1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = _rk4(f, 0.0, u, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == u.shape
        assert peak - base <= 4 * u.nbytes + 16384, (peak - base) / u.nbytes
