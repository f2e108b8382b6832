import math

import numpy as np
import pytest

from polyflow.errors import MassBlowup
from polyflow.measures import (AtomicMeasure, MeasureCoefficients,
                               audit_coefficients, evolve, flat_distance,
                               measure_domain_bound, measure_step,
                               weak_residual)


def constant_fields(drift=0.0, decay=0.0, child=None):
    return MeasureCoefficients(
        drift=lambda t, mu, w, x: np.full(np.shape(x), drift),
        decay=lambda t, mu, w, x: np.full(np.shape(x), decay),
        offspring=(child if child is not None
                   else lambda t, mu, w, y: AtomicMeasure.empty()),
        drift_bound=abs(drift), decay_bound=abs(decay),
        birth_bound=0.0 if child is None else 1.0)


class TestMeasureStep:
    def test_pure_drift(self):
        mu = AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.25]))
        out = measure_step(constant_fields(drift=1.0), mu, None, 0.0, 0.125)
        assert np.allclose(out.positions, mu.positions + 0.125)
        assert np.array_equal(out.masses, mu.masses)

    def test_pure_decay(self):
        mu = AtomicMeasure(np.array([0.3, 0.9]), np.array([0.5, 0.25]))
        out = measure_step(constant_fields(decay=1.0), mu, None, 0.0, 0.25)
        assert out.total_mass() == pytest.approx(
            mu.total_mass() * math.exp(-0.25))

    def test_self_offspring_growth(self):
        # each atom spawns dt * mass at its own site; merge absorbs it
        child = lambda t, mu, w, y: AtomicMeasure(np.array([y]),
                                                  np.array([1.0]))
        coef = constant_fields(child=child)
        mu = AtomicMeasure(np.array([0.2, 1.4]), np.array([0.5, 0.25]))
        dt = 0.0625
        out = measure_step(coef, mu, None, 0.0, dt)
        assert out.n_atoms == 2
        assert out.total_mass() == pytest.approx(
            mu.total_mass() * (1 + dt), rel=1e-12)

    def test_clamp_to_half_line(self):
        mu = AtomicMeasure(np.array([0.05]), np.array([1.0]))
        out = measure_step(constant_fields(drift=-1.0), mu, None, 0.0, 0.5)
        assert out.positions[0] == 0.0

    def test_mass_blowup_guard(self):
        coef = MeasureCoefficients(
            drift=lambda t, mu, w, x: np.zeros(np.shape(x)),
            decay=lambda t, mu, w, x: np.zeros(np.shape(x)),
            offspring=lambda t, mu, w, y: AtomicMeasure.empty(),
            mass_radius=1.0)
        mu = AtomicMeasure(np.array([0.5]), np.array([2.0]))
        with pytest.raises(MassBlowup):
            measure_step(coef, mu, None, 0.0, 0.1)

    def test_deterministic_merge_order(self):
        mu = AtomicMeasure(np.array([0.0, 1e-12, 1.0]),
                           np.array([0.25, 0.5, 0.125]))
        a = measure_step(constant_fields(), mu, None, 0.0, 0.1)
        b = measure_step(constant_fields(), mu, None, 0.0, 0.1)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.masses, b.masses)
        assert a.total_mass() == mu.total_mass()


    def test_shared_offspring_measure(self):
        # one AtomicMeasure returned for every atom and every call must
        # come out untouched and give what a fresh measure per call gives
        def coef(offspring):
            return MeasureCoefficients(
                drift=lambda t, mu, w, x: 0.4 + 0.1 * np.sin(x),
                decay=lambda t, mu, w, x: 0.3 + 0.1 * np.cos(x),
                offspring=offspring, drift_bound=0.5, decay_bound=0.4,
                birth_bound=0.2)
        shared = AtomicMeasure(np.array([0.3]), np.array([0.2]))
        pos, mas = shared.positions.copy(), shared.masses.copy()
        same = coef(lambda t, mu, w, y: shared)
        fresh = coef(lambda t, mu, w, y: AtomicMeasure(np.array([0.3]),
                                                       np.array([0.2])))
        mu = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                           np.array([0.4, 0.3, 0.3]))
        a = measure_step(same, measure_step(same, mu, None, 0.0, 0.125),
                         None, 0.125, 0.125)
        b = measure_step(fresh, measure_step(fresh, mu, None, 0.0, 0.125),
                         None, 0.125, 0.125)
        assert np.array_equal(shared.positions, pos)
        assert np.array_equal(shared.masses, mas)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.masses, b.masses)


class TestDomainBound:
    def test_at_horizon(self):
        assert measure_domain_bound(1.0, 1.0, 3.0, 1.0, 1.0, 1.0) == 3.0

    def test_zero_rates(self):
        for t in (0.0, 0.4, 1.0):
            assert measure_domain_bound(t, 1.0, 2.0, 0.0, 0.0, 0.0) == 2.0

    def test_exponential_value(self):
        got = measure_domain_bound(0.0, 1.0, 1.0, 1.0 / 9, 1.0 / 9, 1.0 / 9)
        assert got == pytest.approx(math.exp(-1.0))


def interacting_fields():
    return MeasureCoefficients(
        drift=lambda t, mu, w, x: 0.4 + 0.1 * np.sin(x)
        + 0.05 * mu.total_mass() * np.ones(np.shape(x)),
        decay=lambda t, mu, w, x: 0.3 + 0.1 * np.cos(x),
        offspring=lambda t, mu, w, y: AtomicMeasure(np.array([0.3]),
                                                    np.array([0.2])),
        drift_bound=0.6, decay_bound=0.4, birth_bound=0.2)


def cutoff(x):
    y = np.asarray(x, dtype=float) / 6.0
    return np.where(np.abs(y) < 1.0, (1.0 - y * y) ** 2, 0.0)


def cutoff_slope(x):
    y = np.asarray(x, dtype=float) / 6.0
    return np.where(np.abs(y) < 1.0, 2.0 * (1.0 - y * y) * (-2.0 * y / 6.0),
                    0.0)


class TestWeakResidual:
    def test_first_order_in_dt(self):
        mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                            np.array([0.4, 0.3, 0.3]))
        coef = interacting_fields()
        res = []
        for steps in (8, 16, 32, 64):
            r = weak_residual(
                coef, mu0, None, 0.0, 1.0, 1.0 / steps,
                phi=lambda t, x: (1 + 0.5 * t) * cutoff(x),
                phi_t=lambda t, x: 0.5 * cutoff(x),
                phi_x=lambda t, x: (1 + 0.5 * t) * cutoff_slope(x))
            res.append(abs(r))
        orders = [math.log2(res[i] / res[i + 1]) for i in range(3)]
        assert float(np.median(orders)) >= 0.9

    def test_mass_envelope_along_trajectory(self):
        mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                            np.array([0.4, 0.3, 0.3]))
        coef = interacting_fields()
        total = coef.drift_bound + coef.decay_bound + coef.birth_bound
        radius = mu0.total_mass() * math.exp(3 * total)
        dt = 1.0 / 64
        times, states = evolve(coef, mu0, None, 0.0, 1.0, dt)
        for t, st in zip(times, states):
            bound = measure_domain_bound(t, 1.0, radius, coef.drift_bound,
                                         coef.decay_bound, coef.birth_bound)
            assert st.total_mass() <= bound + 10 * dt


class TestAudit:
    def test_honest_bounds_pass(self):
        mu = AtomicMeasure(np.array([0.2, 0.8]), np.array([0.4, 0.3]))
        rng = np.random.default_rng(0)
        assert audit_coefficients(interacting_fields(), mu, None,
                                  rng) <= 1e-12

    def test_negative_origin_drift_flagged(self):
        coef = constant_fields(drift=-1.0)
        mu = AtomicMeasure(np.array([0.5]), np.array([0.5]))
        rng = np.random.default_rng(0)
        assert audit_coefficients(coef, mu, None, rng) > 0.5


class TestFlatStability:
    def test_step_contraction_factor(self):
        rng = np.random.default_rng(21)
        coef = interacting_fields()
        total = coef.drift_bound + coef.decay_bound + coef.birth_bound
        dt = 0.05
        for _ in range(5):
            pos = np.sort(rng.uniform(0, 2, 3))
            mu = AtomicMeasure(pos, rng.uniform(0.1, 0.5, 3))
            nu = AtomicMeasure(pos, rng.uniform(0.1, 0.5, 3))
            d0 = flat_distance(mu, nu)
            if d0 < 1e-9:
                continue
            d1 = flat_distance(measure_step(coef, mu, None, 0.0, dt),
                               measure_step(coef, nu, None, 0.0, dt))
            assert d1 <= math.exp(3 * total * dt) * d0 * (1 + 1e-2)

    def test_semigroup_restart(self):
        mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                            np.array([0.4, 0.3, 0.3]))
        coef = interacting_fields()
        dt = 1.0 / 32
        _, direct = evolve(coef, mu0, None, 0.0, 1.0, dt)
        _, first = evolve(coef, mu0, None, 0.0, 0.5, dt)
        _, second = evolve(coef, first[-1], None, 0.5, 0.5, dt)
        gap = flat_distance(direct[-1], second[-1])
        assert gap <= 5 * dt


def frozen_merged(mu, eps):
    """``AtomicMeasure.merged`` before the whole-array singletons: one
    ``np.sum`` and one ``np.dot`` or ``np.mean`` per block."""
    if mu.n_atoms == 0 or eps <= 0:
        return mu
    pos, mas = mu.positions, mu.masses
    new_pos, new_mas = [], []
    start = 0
    for i in range(1, mu.n_atoms + 1):
        if i == mu.n_atoms or pos[i] - pos[i - 1] >= eps:
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


def frozen_measure_step(coef, mu, w, t, dt):
    """``measure_step`` before the whole-array offspring scaling, without
    its checks."""
    pos = mu.positions
    vel = np.asarray(coef.drift(t, mu, w, pos), dtype=float)
    moved = np.maximum(pos + dt * vel, 0.0)
    rate = np.asarray(coef.decay(t, mu, w, moved), dtype=float)
    masses = mu.masses * np.exp(-dt * rate)
    all_pos = [moved]
    all_mas = [masses]
    for y, m in zip(moved, masses):
        child = coef.offspring(t, mu, w, float(y))
        if child.n_atoms:
            all_pos.append(child.positions)
            all_mas.append(dt * m * child.masses)
    out = AtomicMeasure(np.concatenate(all_pos), np.concatenate(all_mas))
    return frozen_merged(out, 1e-9 * max(mu.support_diameter(), 1.0))


def frozen_weak_residual(coef, mu0, w, t0, t1, dt, phi, phi_t, phi_x):
    """``weak_residual`` before the one ``phi`` call per step, on the
    trajectory of ``frozen_measure_step``."""
    times, states = [t0], [mu0]
    now, mu = t0, mu0
    while now < t1 - 1e-15 * max(1.0, abs(t1)):
        step = min(dt, t1 - now)
        mu = frozen_measure_step(coef, mu, w, now, step)
        now += step
        times.append(now)
        states.append(mu)
    acc = 0.0
    for k in range(len(times) - 1):
        t = times[k]
        mu = states[k]
        step = times[k + 1] - times[k]
        x = mu.positions
        m = mu.masses
        body = (np.asarray(phi_t(t, x), dtype=float)
                + np.asarray(coef.drift(t, mu, w, x), dtype=float)
                * np.asarray(phi_x(t, x), dtype=float)
                - np.asarray(coef.decay(t, mu, w, x), dtype=float)
                * np.asarray(phi(t, x), dtype=float))
        acc += float(np.dot(body, m)) * step
        birth = 0.0
        for y, my in zip(x, m):
            child = coef.offspring(t, mu, w, float(y))
            if child.n_atoms:
                birth += float(np.dot(
                    np.asarray(phi(t, child.positions), dtype=float),
                    child.masses)) * my
        acc += birth * step
    end_term = float(np.dot(np.asarray(phi(t1, states[-1].positions),
                                       dtype=float), states[-1].masses))
    start_term = float(np.dot(np.asarray(phi(t0, mu0.positions),
                                         dtype=float), mu0.masses))
    return acc - (end_term - start_term)


def brood_fields():
    """Interacting fields whose atoms have zero, one or two offspring, at
    fixed sites so that the atom count stays bounded."""
    def offspring(t, mu, w, y):
        k = int(7 * y) % 3
        return AtomicMeasure(np.array([0.3, 0.6][:k]),
                             0.1 * np.arange(1, k + 1))
    return MeasureCoefficients(drift=interacting_fields().drift,
                               decay=interacting_fields().decay,
                               offspring=offspring, drift_bound=0.6,
                               decay_bound=0.4, birth_bound=0.3)


def same_measure(a, b):
    return (a.positions.tobytes() == b.positions.tobytes()
            and a.masses.tobytes() == b.masses.tobytes())


def residual_args():
    return dict(phi=lambda t, x: (1 + 0.5 * t) * cutoff(x),
                phi_t=lambda t, x: 0.5 * cutoff(x),
                phi_x=lambda t, x: (1 + 0.5 * t) * cutoff_slope(x))


class TestAgainstFrozenCopy:
    """The whole-array merge, offspring scaling and test-function
    evaluation give the bits of the per-atom loops they replace."""

    @pytest.mark.parametrize("positions, masses, eps", [
        # singletons only, with zero masses and signed zeros
        ([-0.0, 0.1, 0.7, 1.3, 2.9, 3.0], [0.3, 0.0, -0.0, 1e-300, 0.7,
                                           5e-324], 0.05),
        ([-0.0, 1.0], [-0.0, 0.0], 0.5),
        # multi-atom blocks beside singletons
        ([0.0, 1e-10, 0.5, 0.5 + 3e-10, 0.5 + 6e-10, 2.0],
         [0.25, 0.5, 0.125, 0.0, 0.3, 0.2], 1e-9),
        # zero-mass blocks
        ([0.2, 0.2 + 1e-12, 0.9, 1.0], [0.0, -0.0, 0.0, 0.4], 1e-9),
    ])
    def test_merged(self, positions, masses, eps):
        mu = AtomicMeasure(np.array(positions), np.array(masses))
        assert same_measure(mu.merged(eps), frozen_merged(mu, eps))

    def test_merged_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pos = np.round(rng.uniform(0.0, 3.0, 40), 1)
            mas = np.where(rng.random(40) < 0.2, 0.0,
                           rng.uniform(0.0, 1.0, 40))
            mu = AtomicMeasure(pos, mas)
            for eps in (1e-9, 0.15, 0.0):
                assert same_measure(mu.merged(eps), frozen_merged(mu, eps))

    @pytest.mark.parametrize("fields", [interacting_fields, brood_fields])
    def test_measure_step(self, fields):
        coef = fields()
        mu = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                           np.array([0.4, 0.3, 0.3]))
        for k in range(16):
            got = measure_step(coef, mu, None, k / 16, 1.0 / 16)
            assert same_measure(got, frozen_measure_step(coef, mu, None,
                                                         k / 16, 1.0 / 16))
            mu = got

    @pytest.mark.parametrize("fields", [interacting_fields, brood_fields])
    def test_weak_residual(self, fields):
        coef = fields()
        mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                            np.array([0.4, 0.3, 0.3]))
        for steps in (8, 16, 32, 64):
            got = weak_residual(coef, mu0, None, 0.0, 1.0, 1.0 / steps,
                                **residual_args())
            want = frozen_weak_residual(coef, mu0, None, 0.0, 1.0,
                                        1.0 / steps, **residual_args())
            assert got.hex() == want.hex()

    def test_call_counts(self):
        base = brood_fields()
        births = []

        def offspring(t, mu, w, y):
            births.append(y)
            return base.offspring(t, mu, w, y)

        coef = MeasureCoefficients(
            drift=base.drift, decay=base.decay, offspring=offspring,
            drift_bound=base.drift_bound, decay_bound=base.decay_bound,
            birth_bound=base.birth_bound)
        mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                            np.array([0.4, 0.3, 0.3]))
        measure_step(coef, mu0, None, 0.0, 0.125)
        moved = mu0.positions + 0.125 * base.drift(0.0, mu0, None,
                                                   mu0.positions)
        assert births == list(moved)

        births.clear()
        phi_calls = []
        args = residual_args()
        phi = args.pop("phi")
        weak_residual(coef, mu0, None, 0.0, 1.0, 0.125,
                      phi=lambda t, x: phi_calls.append(t) or phi(t, x),
                      **args)
        _, states = evolve(base, mu0, None, 0.0, 1.0, 0.125)
        atoms = sum(st.n_atoms for st in states[:-1])
        # the trajectory's steps, then the residual's own pass
        assert len(births) == 2 * atoms
        assert phi_calls == [k * 0.125 for k in range(8)] + [1.0, 0.0]

    def test_offspring_evaluation_points(self):
        """``measure_step`` takes offspring at the transported positions,
        ``weak_residual`` at the pre-step atoms.  With an offspring that
        depends on its site the two differ, and so would a residual that
        reused the trajectory's children."""
        base = interacting_fields()
        sites = []

        def offspring(t, mu, w, y):
            sites.append(y)
            return AtomicMeasure(np.array([0.3 + 0.5 * y]),
                                 np.array([0.1 + 0.05 * np.cos(3.0 * y)]))

        coef = MeasureCoefficients(
            drift=base.drift, decay=base.decay, offspring=offspring,
            drift_bound=base.drift_bound, decay_bound=base.decay_bound,
            birth_bound=0.15)
        mu0 = AtomicMeasure(np.array([0.2, 0.8, 1.5]),
                            np.array([0.4, 0.3, 0.3]))
        dt = 0.125
        times, states = evolve(coef, mu0, None, 0.0, 0.5, dt)
        pre = [float(y) for st in states[:-1] for y in st.positions]
        moved = [float(y) for t, st in zip(times, states[:-1])
                 for y in np.maximum(st.positions + dt * base.drift(
                     t, st, None, st.positions), 0.0)]
        assert sites == moved

        sites.clear()
        args = residual_args()
        weak_residual(coef, mu0, None, 0.0, 0.5, dt, **args)
        # the trajectory's steps, then the residual's own pass
        assert sites == moved + pre
        assert all(a != b for a, b in zip(moved, pre))

        def birth_term(at):
            """The residual's offspring integral with children taken at
            the sites ``at(t, mu)`` of each step's state."""
            total = 0.0
            for t, mu in zip(times[:-1], states[:-1]):
                for y, m in zip(at(t, mu), mu.masses):
                    child = offspring(t, mu, None, float(y))
                    total += float(np.dot(args["phi"](t, child.positions),
                                          child.masses)) * m * dt
            return total

        reused = birth_term(lambda t, mu: np.maximum(
            mu.positions + dt * base.drift(t, mu, None, mu.positions), 0.0))
        own = birth_term(lambda t, mu: mu.positions)
        assert abs(reused - own) > 1e-4
