import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyflow import metric
from polyflow.errors import DomainExit, StepTooLarge, SupportClearanceViolated
from polyflow.harness import (rotation_exact, rotation_flow,
                              rotation_processes, translation_flow)
from polyflow.metric import (CouplingBounds, LocalFlow, Process,
                             ProcessConstants, RefineSchedule, couple,
                             coupling_bounds, euler_polygonal,
                             merge_constants, product_distance,
                             refine_to_process)
from polyflow.spaces import GridFunction, euclidean_distance, l1_distance


def shift_flow(delta=10.0):
    return LocalFlow(evaluate=lambda tau, t0, x: x + tau, delta=delta,
                     distance=euclidean_distance)


class TestEulerPolygonal:
    def test_zero_duration_identity(self):
        f = shift_flow()
        x = np.array([1.25])
        for eps in (0.1, 0.5, 3.0):
            out = euler_polygonal(f, 0.0, 0.0, x, eps)
            assert out is x  # exactly the same object, no wobble

    def test_large_eps_single_step(self):
        f = shift_flow()
        out = euler_polygonal(f, 0.5, 0.0, np.array([2.0]), 4.0)
        assert out[0] == 2.5

    def test_translation_exact_every_eps(self):
        f = shift_flow()
        # dyadic data keep float addition exact
        for eps in (0.5, 0.25, 0.125, 0.0625):
            out = euler_polygonal(f, 1.0, 0.0, np.array([0.5]), eps)
            assert out[0] == 1.5

    def test_step_too_large(self):
        f = shift_flow(delta=0.1)
        with pytest.raises(StepTooLarge):
            euler_polygonal(f, 1.0, 0.0, np.array([0.0]), 0.2)

    def test_discrete_semigroup_bitexact(self):
        flow = rotation_flow(ball=4.0, horizon=4.0)
        x0 = (np.array([0.75]), np.array([-0.5]))
        eps = 0.125
        a = euler_polygonal(flow, 0.5, 0.0, x0, eps)
        b = euler_polygonal(flow, 0.75, 0.5, a, eps)
        c = euler_polygonal(flow, 1.25, 0.0, x0, eps)
        assert b[0][0] == c[0][0] and b[1][0] == c[1][0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8))
    def test_discrete_semigroup_random_dyadic(self, k1, k2):
        # when eps divides both durations, split and direct compositions run
        # the same evaluation sequence
        flow = rotation_flow(ball=4.0, horizon=4.0)
        x0 = (np.array([0.5]), np.array([0.25]))
        eps = 0.0625
        a = euler_polygonal(flow, k1 * eps, 0.0, x0, eps)
        b = euler_polygonal(flow, k2 * eps, k1 * eps, a, eps)
        c = euler_polygonal(flow, (k1 + k2) * eps, 0.0, x0, eps)
        assert b[0][0] == c[0][0] and b[1][0] == c[1][0]


class TestCouple:
    def make_constant_process(self):
        c = ProcessConstants(c_u=0.0, c_t=0.0, c_w=0.0, horizon=2.0)
        return Process(solve=lambda t0, tau, x, w: x, constants=c,
                       distance=euclidean_distance)

    def test_constant_processes_identity(self):
        flow = couple(self.make_constant_process(),
                      self.make_constant_process())
        out = flow.evaluate(0.7, 0.0, (np.array([3.0]), np.array([-1.0])))
        assert out[0][0] == 3.0 and out[1][0] == -1.0

    def test_frozen_parameter_closed_form(self):
        # du/dt = w (frozen), dw/dt = 0: one step gives (tau, 1)
        c = ProcessConstants(c_u=1.0, c_t=1.0, c_w=1.0, horizon=2.0)
        pu = Process(solve=lambda t0, tau, u, w: u + w * tau,
                     constants=c, distance=euclidean_distance)
        pw = Process(solve=lambda t0, tau, w, u: w, constants=c,
                     distance=euclidean_distance)
        flow = couple(pu, pw)
        out = flow.evaluate(0.5, 0.0, (np.array([0.0]), np.array([1.0])))
        assert out[0][0] == pytest.approx(0.5)
        assert out[1][0] == pytest.approx(1.0)

    def test_frozen_parameter_decay(self):
        # dw/dt = -w while u still sees w frozen at its start value
        c = ProcessConstants(c_u=1.0, c_t=1.0, c_w=1.0, horizon=2.0)
        pu = Process(solve=lambda t0, tau, u, w: u + w * tau,
                     constants=c, distance=euclidean_distance)
        pw = Process(solve=lambda t0, tau, w, u: w * math.exp(-tau),
                     constants=c, distance=euclidean_distance)
        flow = couple(pu, pw)
        tau = 0.8
        out = flow.evaluate(tau, 0.0, (np.array([0.0]), np.array([1.0])))
        assert out[0][0] == pytest.approx(tau)
        assert out[1][0] == pytest.approx(math.exp(-tau))

    def test_domain_exit_tagged_with_component(self):
        c = ProcessConstants(c_u=0.0, c_t=0.0, c_w=0.0, horizon=2.0)

        def bad_solve(t0, tau, x, w):
            raise DomainExit("gone", step=4, time=t0 + tau)

        good = Process(solve=lambda t0, tau, x, w: x, constants=c,
                       distance=euclidean_distance)
        bad = Process(solve=bad_solve, constants=c,
                      distance=euclidean_distance)
        flow = couple(good, bad)
        with pytest.raises(DomainExit) as exc:
            flow.evaluate(0.1, 0.0, (np.array([0.0]), np.array([0.0])))
        assert exc.value.component == "w"


class TestOverlappedStep:
    """A step whose state holds a large grid runs its ``w`` solve on the
    worker thread, with the results and exceptions of the sequential
    order."""

    constants = ProcessConstants(c_u=0.0, c_t=0.0, c_w=0.0, horizon=2.0)
    state = (GridFunction.uniform((0.0, 1.0), 4), np.array([0.5]))

    def flow(self, solve_u, solve_w):
        return couple(Process(solve_u, self.constants, l1_distance),
                      Process(solve_w, self.constants, euclidean_distance))

    def test_w_solve_on_the_worker(self, overlap_gate):
        futures = overlap_gate(True)
        threads = []

        def solve_w(t0, tau, w, u):
            threads.append(threading.current_thread())
            return w + u.values.sum() * tau

        flow = self.flow(lambda t0, tau, u, w: u.with_values(u.values + w),
                         solve_w)
        u_next, w_next = flow.evaluate(0.5, 0.0, self.state)
        assert len(futures) == 1 and threads[0] is not threading.main_thread()
        assert list(u_next.values) == [0.5] * 4 and list(w_next) == [0.5]

    @pytest.mark.parametrize("failing", ["u", "w", "uw"])
    def test_domain_exit_as_in_sequence(self, overlap_gate, failing):
        def solver(component):
            def solve(t0, tau, x, param):
                if component in failing:
                    raise DomainExit(f"{component} left", step=3,
                                     time=t0 + tau)
                return x
            return solve

        raised = {}
        for on in (False, True):
            futures = overlap_gate(on)
            flow = self.flow(solver("u"), solver("w"))
            with pytest.raises(DomainExit) as exc:
                flow.evaluate(0.25, 1.0, self.state)
            assert len(futures) == on
            raised[on] = exc.value
        seq, ovl = raised[False], raised[True]
        assert seq.component == failing[0]
        assert (type(ovl), str(ovl), ovl.component, ovl.step, ovl.time) \
            == (type(seq), str(seq), seq.component, seq.step, seq.time)

    @pytest.mark.parametrize("on", [False, True])
    def test_other_errors_from_w_unchanged(self, overlap_gate, on):
        error = SupportClearanceViolated("support clearance 0.1 below 0.2")

        def solve_w(t0, tau, w, u):
            raise error

        futures = overlap_gate(on)
        flow = self.flow(lambda t0, tau, u, w: u, solve_w)
        with pytest.raises(SupportClearanceViolated) as exc:
            flow.evaluate(0.25, 0.0, self.state)
        assert exc.value is error and len(futures) == on

    def test_w_solve_ends_before_a_u_exit_is_raised(self, overlap_gate):
        futures = overlap_gate(True)

        def solve_u(t0, tau, u, w):
            raise DomainExit("u left")

        def solve_w(t0, tau, w, u):
            time.sleep(0.05)
            return w

        with pytest.raises(DomainExit):
            self.flow(solve_u, solve_w).evaluate(0.25, 0.0, self.state)
        assert len(futures) == 1 and futures[0].done()

    def test_one_cpu_or_a_small_grid_stays_sequential(self, overlap_gate,
                                                       monkeypatch):
        flow = self.flow(lambda t0, tau, u, w: u, lambda t0, tau, w, u: w)
        futures = overlap_gate(True, cpus=(0,))
        flow.evaluate(0.25, 0.0, self.state)
        # where the affinity is unknown, the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            flow.evaluate(0.25, 0.0, self.state)
        overlap_gate(True)
        monkeypatch.setattr(metric, "_OVERLAP_CELLS", 5)
        flow.evaluate(0.25, 0.0, self.state)
        assert futures == []

    def test_off_the_main_thread_stays_sequential(self, overlap_gate):
        # a solve that the worker runs may step a coupled flow itself, and
        # must not wait for the worker that runs it
        futures = overlap_gate(True)
        flow = self.flow(lambda t0, tau, u, w: u, lambda t0, tau, w, u: w)
        out = []
        thread = threading.Thread(
            target=lambda: out.append(flow.evaluate(0.25, 0.0, self.state)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and len(out) == 1 and futures == []


class TestProductDistance:
    def test_couple_sums_the_factor_distances_in_order(self):
        # Euclidean first, L1 second: swapped factors would hand the
        # arrays to l1_distance and fail
        c = ProcessConstants(c_u=0.0, c_t=0.0, c_w=0.0, horizon=1.0)
        pu = Process(solve=lambda t0, tau, x, w: x, constants=c,
                     distance=euclidean_distance)
        pw = Process(solve=lambda t0, tau, x, w: x, constants=c,
                     distance=l1_distance)
        grid = GridFunction(np.array([0.1, -0.7, 2.0 / 3.0]), (0.0,),
                            (1.0 / 3.0,))
        a = (np.array([0.1, 0.2]), grid)
        b = (np.array([1.0 / 3.0, -2.0 / 7.0]),
             grid.with_values(np.array([0.3, 1.0 / 7.0, -0.2])))
        expected = pu.distance(a[0], b[0]) + pw.distance(a[1], b[1])
        assert couple(pu, pw).distance(a, b) == expected
        assert product_distance(euclidean_distance, l1_distance)(a, b) \
            == expected
        assert couple(pu, pw).distance(a, a) == 0.0


class TestRefineToProcess:
    def test_translation_converges_immediately(self):
        flow = translation_flow()
        x0 = (np.array([0.5]), np.array([0.25]))
        res = refine_to_process(flow, 1.0, 0.0, x0,
                                RefineSchedule(0, 20, 1e-12))
        assert res.converged
        assert res.gap == 0.0

    def test_infinite_tol_returns_coarsest(self):
        flow = rotation_flow()
        x0 = (np.array([1.0]), np.array([0.0]))
        res = refine_to_process(flow, 0.5, 0.0, x0,
                                RefineSchedule(2, 20, math.inf))
        coarsest = euler_polygonal(flow, 0.5, 0.0, x0, 0.5 / 4)
        assert res.level == 2
        assert math.isinf(res.gap)
        assert not res.converged
        assert flow.distance(res.point, coarsest) == 0.0

    def test_rotation_gap_order(self):
        flow = rotation_flow(ball=4.0)
        x0 = (np.array([1.0]), np.array([0.0]))
        gaps = []
        prev = euler_polygonal(flow, 1.0, 0.0, x0, 1.0)
        for j in range(1, 9):
            cur = euler_polygonal(flow, 1.0, 0.0, x0, 2.0 ** -j)
            gaps.append(flow.distance(prev, cur))
            prev = cur
        eps = [2.0 ** -j for j in range(1, 9)]
        slope = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
        assert slope >= 0.9
        # and the limit approaches the closed form
        ref = rotation_exact(1.0)
        assert flow.distance(prev, ref) < 5e-3

    def test_no_convergence_flag(self):
        flow = rotation_flow()
        x0 = (np.array([1.0]), np.array([0.0]))
        res = refine_to_process(flow, 0.5, 0.0, x0,
                                RefineSchedule(0, 4, 1e-15))
        assert not res.converged
        assert res.level == 4

    @pytest.mark.parametrize("tol", [1e-6, math.inf])
    def test_start_level_above_the_deepest_rejected(self, tol):
        # the polygonal of level j0 would be returned labelled j_max
        flow = rotation_flow()
        x0 = (np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError,
                           match="j0 5 must not exceed refine.j_max 2"):
            refine_to_process(flow, 0.5, 0.0, x0, RefineSchedule(5, 2, tol))

    def test_negative_start_level_rejected(self):
        # levels -1 and 0 would both take one step of length tau, so their
        # gap of 0.0 would report a false convergence
        flow = rotation_flow(ball=4.0, horizon=1.0)
        x0 = ((1.0,), (0.0,))
        with pytest.raises(ValueError, match="j0 must be nonnegative"):
            refine_to_process(flow, 0.5, 0.0, x0, RefineSchedule(-1, 3, 1.0))


class TestCouplingBounds:
    def test_zero_moduli(self):
        c = ProcessConstants(c_u=0.0, c_t=1.0, c_w=0.0, horizon=3.0)
        b = coupling_bounds(c, c)
        assert b.stability == 1.0
        assert b.omega(0.7) == 0.0
        assert b.tangency_rhs(0.7) == 0.0

    def test_stability_example(self):
        c = ProcessConstants(c_u=1.0, c_t=0.5, c_w=1.0,
                             horizon=math.log(2) / 2)
        assert coupling_bounds(c, c).stability == pytest.approx(2.0)

    def test_tangency_closed_form(self):
        c = ProcessConstants(c_u=2.0, c_t=3.0, c_w=0.0, horizon=1.0)
        b = CouplingBounds(constants=c, stability=1.0, omega_coeff=6.0)
        # rate form: (2L/ln2) * c_t * c_u * tau
        assert b.tangency_rhs(0.1) == pytest.approx(
            (2.0 / math.log(2)) * 6.0 * 0.1)
        # distance form carries the extra factor tau
        assert b.tangency_distance_rhs(0.1) == pytest.approx(
            (2.0 / math.log(2)) * 0.6 * 0.1)

    def test_merge_is_componentwise_max(self):
        a = ProcessConstants(c_u=1.0, c_t=5.0, c_w=0.5, horizon=1.0)
        b = ProcessConstants(c_u=2.0, c_t=1.0, c_w=3.0, horizon=0.5)
        m = merge_constants(a, b)
        assert (m.c_u, m.c_t, m.c_w, m.horizon) == (2.0, 5.0, 3.0, 1.0)

    @pytest.mark.parametrize("name", ["c_u", "c_t", "c_w"])
    def test_moduli_overflow_or_negative_rejected(self, name):
        finite = dict(c_u=1.0, c_t=1.0, c_w=1.0, horizon=1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(OverflowError, match=f"{name} is not finite"):
                ProcessConstants(**{**finite, name: bad})
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            ProcessConstants(**{**finite, name: -1.0})


class TestStabilityAndDomains:
    def test_polygonal_stability_linear(self):
        rng = np.random.default_rng(2)
        flow = rotation_flow(ball=4.0, horizon=1.0)
        pu, pw = rotation_processes(ball=4.0, horizon=1.0)
        bounds = coupling_bounds(pu.constants, pw.constants)
        tau = 0.5
        for eps in (tau, tau / 4, tau / 32):
            for _ in range(5):
                x1 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
                x2 = (rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
                d0 = flow.distance(x1, x2)
                if d0 < 1e-9:
                    continue
                d1 = flow.distance(
                    euler_polygonal(flow, tau, 0.0, x1, eps),
                    euler_polygonal(flow, tau, 0.0, x2, eps))
                assert d1 <= d0 * bounds.stability_factor(tau) * (1 + 1e-6)

    def test_flow_level_coupling_same_limit(self):
        # pairing one-step local flows (here: forward Euler of the frozen
        # problems) instead of the exact frozen solvers yields a tangent
        # flow, so dyadic refinement drives both couplings to the same limit
        c = ProcessConstants(c_u=2.0, c_t=2.0, c_w=2.0, horizon=1.0)
        exact_u = Process(solve=lambda t0, tau, u, w: u * math.exp(
            float(w[0]) * tau), constants=c, distance=euclidean_distance)
        exact_w = Process(solve=lambda t0, tau, w, u: w * math.exp(
            -float(u[0]) * tau), constants=c, distance=euclidean_distance)
        euler_u = Process(solve=lambda t0, tau, u, w: u * (1 + float(w[0])
                                                           * tau),
                          constants=c, distance=euclidean_distance)
        euler_w = Process(solve=lambda t0, tau, w, u: w * (1 - float(u[0])
                                                           * tau),
                          constants=c, distance=euclidean_distance)
        x0 = (np.array([1.0]), np.array([0.5]))
        schedule = RefineSchedule(0, 16, 1e-5)
        lim_exact = refine_to_process(couple(exact_u, exact_w), 0.5, 0.0, x0,
                                      schedule)
        lim_euler = refine_to_process(couple(euler_u, euler_w), 0.5, 0.0, x0,
                                      schedule)
        distance = couple(exact_u, exact_w).distance
        assert lim_exact.converged and lim_euler.converged
        assert distance(lim_exact.point, lim_euler.point) < 5e-4

