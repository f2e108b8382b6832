"""Atomic measures, the flat distance, and a particle scheme on them.

States are finite positive atomic measures on the half line, metrized by
the bounded-Lipschitz (flat) distance.  One step of the scheme for a
nonlinear balance law splits the dynamics: transport each atom along the
drift, damp each mass by the exponential of the decay rate, add each atom's
offspring measure scaled by ``dt * mass``, then merge near-coincident atoms
mass-conservatively.  The scheme's weak residual is first order in the
step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import MassBlowup


# --------------------------------------------------------------------------
# Atomic measures and the flat distance
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive atomic measure on the half line.

    Positions are kept sorted ascending; masses are nonnegative.
    """

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1)
        mas = np.asarray(self.masses, dtype=float).reshape(-1)
        if pos.shape != mas.shape:
            raise ValueError("positions and masses must have equal length")
        if np.any(mas < 0):
            raise ValueError("masses must be nonnegative")
        if np.any(pos < 0):
            raise ValueError("positions must be nonnegative")
        order = np.argsort(pos, kind="stable")
        object.__setattr__(self, "positions", pos[order])
        object.__setattr__(self, "masses", mas[order])

    @staticmethod
    def empty() -> "AtomicMeasure":
        return AtomicMeasure(np.zeros(0), np.zeros(0))

    @property
    def n_atoms(self) -> int:
        return int(self.positions.size)

    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def support_diameter(self) -> float:
        if self.n_atoms < 2:
            return 0.0
        return float(self.positions[-1] - self.positions[0])

    def merged(self, eps: float) -> "AtomicMeasure":
        """Merge clusters of atoms closer than ``eps``.

        Consecutive atoms with gaps < eps collapse to a single atom at the
        mass-weighted mean position; total mass is conserved exactly.
        """
        if self.n_atoms == 0 or eps <= 0:
            return self
        pos, mas = self.positions, self.masses
        cut = np.flatnonzero(np.diff(pos) >= eps) + 1
        starts = np.concatenate(([0], cut))
        ends = np.append(cut, self.n_atoms)
        # one-atom blocks as the per-block np.sum, np.dot and np.mean below
        # give them: the sum adds 0.0 (a -0.0 turns into 0.0), and
        # (p * m) / m need not be p
        new_mas = mas[starts] + 0.0
        new_pos = pos[starts] + 0.0
        np.divide(pos[starts] * new_mas, new_mas, out=new_pos,
                  where=new_mas > 0)
        for k in np.flatnonzero(ends - starts > 1):
            block_m = mas[starts[k]:ends[k]]
            block_p = pos[starts[k]:ends[k]]
            m = float(np.sum(block_m))
            if m > 0:
                p = float(np.dot(block_p, block_m) / m)
            else:
                p = float(np.mean(block_p))
            new_pos[k] = p
            new_mas[k] = m
        return AtomicMeasure(new_pos, new_mas)


def flat_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Bounded-Lipschitz (flat) distance between two atomic measures.

    Maximizes ``sum phi(x_i) * (mu - nu)({x_i})`` over test functions with
    ``|phi| <= 1`` and ``|slope| <= 1``.  Only the values ``phi_i`` at the
    sorted distinct atom sites matter, under ``|phi_i| <= 1`` and
    ``|phi_{i+1} - phi_i| <= gap_i``, so an exact dynamic program along the
    chain solves it: the best partial sum as a function ``V`` of the current
    value ``phi`` is concave and piecewise linear on ``[-1, 1]``.  Each gap
    ``g`` widens ``V`` at a maximiser ``a`` into a flat top on
    ``[a - g, a + g]`` (breakpoints left of ``a`` move by ``-g``, right of
    it by ``+g``); the result is cut back to ``[-1, 1]`` and the next site's
    net mass times ``phi`` is added.  The distance is ``max V``.
    """
    if mu.n_atoms == 0 and nu.n_atoms == 0:
        return 0.0
    # net signed mass per distinct position
    pos = np.concatenate([mu.positions, nu.positions])
    sgn = np.concatenate([mu.masses, -nu.masses])
    support, inv = np.unique(pos, return_inverse=True)
    weights = np.zeros(support.size)
    np.add.at(weights, inv, sgn)

    phi = np.array([-1.0, 1.0])     # breakpoints of V
    val = weights[0] * phi          # V at the breakpoints
    for g, w in zip(np.diff(support), weights[1:]):
        a = int(np.argmax(val))
        xs = np.concatenate((phi[:a + 1] - g, phi[a:] + g))
        ys = np.concatenate((val[:a + 1], val[a:]))
        inside = np.abs(xs) < 1.0
        ends = np.interp((-1.0, 1.0), xs, ys)
        phi = np.concatenate(((-1.0,), xs[inside], (1.0,)))
        val = np.concatenate((ends[:1], ys[inside], ends[1:])) + w * phi
    return float(np.max(val))


# --------------------------------------------------------------------------
# The particle scheme
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureCoefficients:
    """Drift, decay and offspring fields with certified bounds.

    ``drift(t, mu, w, x)`` and ``decay(t, mu, w, x)`` are vectorized over
    the position array ``x``; ``offspring(t, mu, w, y)`` returns the atomic
    measure produced per unit mass per unit time by an atom at ``y``.
    Certificates: ``drift_bound`` (|drift| and its slope), ``decay_bound``,
    ``birth_bound`` (offspring mass).  ``mass_radius`` is the configured
    blow-up guard.
    """

    drift: Callable[[float, AtomicMeasure, Any, np.ndarray], np.ndarray]
    decay: Callable[[float, AtomicMeasure, Any, np.ndarray], np.ndarray]
    offspring: Callable[[float, AtomicMeasure, Any, float], AtomicMeasure]
    drift_bound: float = 0.0
    decay_bound: float = 0.0
    birth_bound: float = 0.0
    mass_radius: float = math.inf


def default_merge_eps(mu: AtomicMeasure) -> float:
    return 1e-9 * max(mu.support_diameter(), 1.0)


def audit_coefficients(coef: MeasureCoefficients, mu: AtomicMeasure, w,
                       rng: random.Random, n: int = 16,
                       x_hi: float = 4.0,
                       t_range: tuple[float, float] = (0.0, 1.0)) -> float:
    """Sampled bound audit (worst violation, <= 0 ok).

    Checks |drift| and |decay| against their bounds, the offspring mass
    against the birth bound, and nonnegativity of the drift at the origin,
    at ``n`` times and eight positions each drawn with ``rng.uniform``.
    """
    worst = -math.inf
    for _ in range(n):
        t = rng.uniform(*t_range)
        xs = np.array([rng.uniform(0.0, x_hi) for _ in range(8)])
        worst = max(worst, float(np.max(np.abs(coef.drift(t, mu, w, xs))))
                    - coef.drift_bound)
        worst = max(worst, float(np.max(np.abs(coef.decay(t, mu, w, xs))))
                    - coef.decay_bound)
        child = coef.offspring(t, mu, w, float(xs[0]))
        worst = max(worst, child.total_mass() - coef.birth_bound)
        at_origin = float(np.asarray(coef.drift(t, mu, w,
                                                np.zeros(1)))[0])
        worst = max(worst, -at_origin)
    return worst


def measure_step(coef: MeasureCoefficients, mu: AtomicMeasure, w,
                 t: float, dt: float) -> AtomicMeasure:
    """One splitting step of length ``dt`` with all fields frozen at ``mu``.

    Transport uses the drift at the pre-transport positions; decay and
    offspring are evaluated at the transported positions (offspring masses
    scale with the post-decay masses).  Positions are clamped to the half
    line; with a nonnegative drift at the origin the clamp stays inactive.
    Atoms are processed in position order, so results are deterministic.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if mu.total_mass() > coef.mass_radius * (1 + 1e-12):
        raise MassBlowup(
            f"mass {mu.total_mass():.3g} exceeds radius {coef.mass_radius:.3g}")
    if mu.n_atoms == 0:
        return mu

    pos = mu.positions
    vel = np.asarray(coef.drift(t, mu, w, pos), dtype=float)
    moved = np.maximum(pos + dt * vel, 0.0)

    rate = np.asarray(coef.decay(t, mu, w, moved), dtype=float)
    masses = mu.masses * np.exp(-dt * rate)

    children = [coef.offspring(t, mu, w, float(y)) for y in moved]
    counts = [child.n_atoms for child in children]
    born = np.repeat(dt * masses, counts) * np.concatenate(
        [child.masses for child in children])
    out = AtomicMeasure(
        np.concatenate([moved] + [child.positions for child in children]),
        np.concatenate((masses, born)))
    return out.merged(default_merge_eps(mu))


def measure_domain_bound(t: float, horizon: float, radius: float,
                         drift_bound: float, decay_bound: float,
                         birth_bound: float) -> float:
    """Mass envelope of the invariant domain at time ``t``."""
    if not 0 <= t <= horizon * (1 + 1e-12):
        raise ValueError("t must lie in [0, horizon]")
    total = drift_bound + decay_bound + birth_bound
    return radius * math.exp(-3.0 * total * (horizon - t))


def evolve(coef: MeasureCoefficients, mu0: AtomicMeasure, w,
           t0: float, tau: float, dt: float
           ) -> tuple[list[float], list[AtomicMeasure]]:
    """Times and states of fixed steps of ``dt`` from ``t0`` over ``tau``
    (the last step shortened); ``tau`` must be finite and nonnegative."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    t1 = t0 + tau
    times = [t0]
    states = [mu0]
    now, mu = t0, mu0
    while now < t1 - 1e-15 * max(1.0, abs(t1)):
        step = min(dt, t1 - now)
        mu = measure_step(coef, mu, w, now, step)
        now += step
        times.append(now)
        states.append(mu)
    return times, states


def weak_residual(coef: MeasureCoefficients, mu0: AtomicMeasure, w,
                  t0: float, tau: float, dt: float,
                  phi: Callable[[float, np.ndarray], np.ndarray],
                  phi_t: Callable[[float, np.ndarray], np.ndarray],
                  phi_x: Callable[[float, np.ndarray], np.ndarray]) -> float:
    """Defect of the weak formulation along ``evolve``'s trajectory.

    For a C1, globally Lipschitz test function ``phi(t, x)`` the exact
    solution satisfies

        int int (phi_t + drift * phi_x - decay * phi) dmu dt
        + int int [int phi(t, .) d offspring(y)] dmu(y) dt
        = int phi(t1) dmu(t1) - int phi(t0) dmu0,   t1 = t0 + tau,

    and the splitting scheme drives the defect to zero at first order in
    ``dt``.  Time integrals use the left-endpoint rule on the step grid.
    ``phi`` must act elementwise on the position array: each step
    evaluates it once, on the atoms and their offspring's sites together.
    """
    times, states = evolve(coef, mu0, w, t0, tau, dt)
    return _weak_defect(coef, w, t0, tau, times, states, phi, phi_t, phi_x)


def _weak_defect(coef: MeasureCoefficients, w, t0: float, tau: float,
                 times: list[float], states: list[AtomicMeasure],
                 phi: Callable[[float, np.ndarray], np.ndarray],
                 phi_t: Callable[[float, np.ndarray], np.ndarray],
                 phi_x: Callable[[float, np.ndarray], np.ndarray]) -> float:
    """``weak_residual``'s defect along ``times, states``, a trajectory that
    ``evolve(coef, states[0], w, t0, tau, dt)`` returned."""
    t1 = t0 + tau
    mu0 = states[0]
    acc = 0.0
    for k in range(len(times) - 1):
        t = times[k]
        mu = states[k]
        step = times[k + 1] - times[k]
        if mu.n_atoms == 0:
            continue
        x = mu.positions
        m = mu.masses
        children = [coef.offspring(t, mu, w, float(y)) for y in x]
        phis = np.asarray(phi(t, np.concatenate(
            [x] + [child.positions for child in children])), dtype=float)
        body = (np.asarray(phi_t(t, x), dtype=float)
                + np.asarray(coef.drift(t, mu, w, x), dtype=float)
                * np.asarray(phi_x(t, x), dtype=float)
                - np.asarray(coef.decay(t, mu, w, x), dtype=float)
                * phis[:x.size])
        acc += float(np.dot(body, m)) * step
        birth = 0.0
        end = x.size
        for child, my in zip(children, m):
            if child.n_atoms:
                start, end = end, end + child.n_atoms
                birth += float(np.dot(phis[start:end], child.masses)) * my
        acc += birth * step
    mu_end = states[-1]
    end_term = (float(np.dot(np.asarray(phi(t1, mu_end.positions), dtype=float),
                             mu_end.masses)) if mu_end.n_atoms else 0.0)
    start_term = (float(np.dot(np.asarray(phi(t0, mu0.positions), dtype=float),
                               mu0.masses)) if mu0.n_atoms else 0.0)
    return acc - (end_term - start_term)
