"""Particle scheme for a nonlinear balance law on positive measures.

States are finite positive atomic measures on the half line.  One step
splits the dynamics: transport each atom along the drift, damp each mass by
the exponential of the decay rate, add each atom's offspring measure scaled
by ``dt * mass``, then merge near-coincident atoms mass-conservatively.  The
scheme's weak residual is first order in the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import MassBlowup
from .spaces import AtomicMeasure


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
                       rng: np.random.Generator, n: int = 16,
                       x_hi: float = 4.0,
                       t_range: tuple[float, float] = (0.0, 1.0)) -> float:
    """Sampled bound audit (worst violation, <= 0 ok).

    Checks |drift| and |decay| against their bounds, the offspring mass
    against the birth bound, and nonnegativity of the drift at the origin.
    """
    worst = -math.inf
    for _ in range(n):
        t = float(rng.uniform(*t_range))
        xs = rng.uniform(0.0, x_hi, 8)
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
                 t: float, dt: float,
                 merge_eps: float | None = None) -> AtomicMeasure:
    """One splitting step of length ``dt`` with all fields frozen at ``mu``.

    Transport uses the drift at the pre-transport positions; decay and
    offspring are evaluated at the transported positions (offspring masses
    scale with the post-decay masses).  Positions are clamped to the half
    line; with a nonnegative drift at the origin the clamp stays inactive.
    Atoms are processed in position order, so results are deterministic.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if mu.total_mass() > coef.mass_radius * (1 + 1e-12):
        raise MassBlowup(
            f"mass {mu.total_mass():.3g} exceeds radius {coef.mass_radius:.3g}")
    if merge_eps is None:
        merge_eps = default_merge_eps(mu)
    if mu.n_atoms == 0:
        return mu

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
    return out.merged(merge_eps)


def measure_domain_bound(t: float, horizon: float, radius: float,
                         drift_bound: float, decay_bound: float,
                         birth_bound: float) -> float:
    """Mass envelope of the invariant domain at time ``t``."""
    if not 0 <= t <= horizon * (1 + 1e-12):
        raise ValueError("t must lie in [0, horizon]")
    total = drift_bound + decay_bound + birth_bound
    return radius * math.exp(-3.0 * total * (horizon - t))


def evolve(coef: MeasureCoefficients, mu0: AtomicMeasure, w,
           t0: float, t1: float, dt: float,
           merge_eps: float | None = None
           ) -> tuple[list[float], list[AtomicMeasure]]:
    """Run fixed steps from ``t0`` to ``t1`` (last step shortened)."""
    times = [t0]
    states = [mu0]
    now, mu = t0, mu0
    while now < t1 - 1e-15 * max(1.0, abs(t1)):
        step = min(dt, t1 - now)
        mu = measure_step(coef, mu, w, now, step, merge_eps=merge_eps)
        now += step
        times.append(now)
        states.append(mu)
    return times, states


def weak_residual(coef: MeasureCoefficients, mu0: AtomicMeasure, w,
                  t0: float, t1: float, dt: float,
                  phi: Callable[[float, np.ndarray], np.ndarray],
                  phi_t: Callable[[float, np.ndarray], np.ndarray],
                  phi_x: Callable[[float, np.ndarray], np.ndarray],
                  merge_eps: float | None = None) -> float:
    """Defect of the weak formulation along a discrete trajectory.

    For a C1, globally Lipschitz test function ``phi(t, x)`` the exact
    solution satisfies

        int int (phi_t + drift * phi_x - decay * phi) dmu dt
        + int int [int phi(t, .) d offspring(y)] dmu(y) dt
        = int phi(t1) dmu(t1) - int phi(t0) dmu0,

    and the splitting scheme drives the defect to zero at first order in
    ``dt``.  Time integrals use the left-endpoint rule on the step grid.
    """
    times, states = evolve(coef, mu0, w, t0, t1, dt, merge_eps=merge_eps)
    acc = 0.0
    for k in range(len(times) - 1):
        t = times[k]
        mu = states[k]
        step = times[k + 1] - times[k]
        if mu.n_atoms == 0:
            continue
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
    mu_end = states[-1]
    end_term = (float(np.dot(np.asarray(phi(t1, mu_end.positions), dtype=float),
                             mu_end.masses)) if mu_end.n_atoms else 0.0)
    start_term = (float(np.dot(np.asarray(phi(t0, mu0.positions), dtype=float),
                               mu0.masses)) if mu0.n_atoms else 0.0)
    return acc - (end_term - start_term)
