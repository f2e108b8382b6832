"""The pursuit model: a prey density fleeing a predator that climbs it.

The transported prey density (continuity equation with a predator-driven
velocity and a feeding sink) is coupled with the predator's ODE through
``scenarios._run_coupled``.  Every kernel is a compactly supported
polynomial bump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, KernelOutOfBox
from .metric import RefineSchedule
from .ode import OdeField, make_ode_process, ode_domain_radius
from .renewal import (RenewalCoefficients, ivp_domain_bounds,
                      make_renewal_process)
from .scenarios import _memo_last, _run_coupled
from .spaces import GridFunction
from .trajectory import Trajectory


# --------------------------------------------------------------------------
# Compactly supported polynomial bumps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Bump:
    """Profile ``s -> amp * (1 - (s / radius)^2)^4`` on ``|s| < radius``.

    Every power is a product: IEEE multiplication is correctly rounded on
    every SIMD level, where NumPy's ``power`` kernels are not."""

    radius: float
    amp: float = 1.0

    def __call__(self, s):
        y = np.asarray(s, dtype=float) / self.radius
        # amp * (q2 * q2) with q2 = q * q, squared in place
        q = np.maximum(1.0 - y * y, 0.0)
        q *= q
        q *= q
        return self.amp * q

    def slope(self, s):
        y = np.asarray(s, dtype=float) / self.radius
        q = np.maximum(1.0 - y * y, 0.0)
        return self.amp * 4.0 * (q * q * q) * (-2.0 * y / self.radius)


def spatial_bump_norm(radius: float, dim: int) -> float:
    """Integral of ``(1 - (|x| / radius)^2)^4`` over R^dim."""
    if dim == 1:
        return radius * 256.0 / 315.0
    if dim == 2:
        return math.pi * radius ** 2 / 5.0
    raise ValueError("dim must be 1 or 2")


# --------------------------------------------------------------------------
# Pursuit model (prey density + predator position)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PredatorPreyParams:
    """Configuration of the pursuit model.

    The prey flees with speed ``-(p - x) / (alpha + |p - x|^2)`` weighted by
    a unit-integral bump of the squared distance (spatial support radius
    ``escape_radius``); the predator climbs the density averaged by a
    unit-integral spatial bump of radius ``search_radius``; feeding removes
    prey at rate ``feeding_rate`` within ``feeding_radius`` of the predator.
    """

    dim: int
    alpha: float
    escape_radius: float
    search_radius: float
    feeding_radius: float
    feeding_rate: float
    box: tuple[tuple[float, float], ...]
    cells: tuple[int, ...]
    horizon: float
    macro_step: float
    prey_center: tuple[float, ...]
    prey_radius: float
    prey_amp: float
    predator_start: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        for name in ("prey_center", "predator_start", "box", "cells"):
            value = getattr(self, name)
            if not (hasattr(value, "__len__") and len(value) == self.dim):
                raise ValueError(f"{name} must hold one entry per axis")
        for name in ("prey_center", "predator_start"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} entries must be finite")
        for name in ("alpha", "escape_radius", "search_radius",
                     "feeding_radius", "prey_radius", "prey_amp"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.feeding_rate >= 0:
            raise ValueError("feeding_rate must be nonnegative")
        if not all(len(b) == 2 and b[1] > b[0] for b in self.box):
            raise ValueError("box entries must be [lo, hi] with hi > lo")
        if not all(math.isfinite(hi - lo) for lo, hi in self.box):
            raise ValueError("box spans hi - lo must be finite")
        if not all(n > 0 for n in self.cells):
            raise ValueError("cells entries must be positive")
        # each kernel's support, a ball of its radius, must fit the box
        span = min(hi - lo for lo, hi in self.box)
        for name in ("escape_radius", "search_radius", "feeding_radius"):
            if 2.0 * getattr(self, name) > span:
                raise KernelOutOfBox(f"{name} must be at most half the "
                                     f"box span {span:.3g}")
        # the density samples the prey at the cell centres, and the centre
        # nearest prey_center (nearest per axis) sees the most of it
        nearest = []
        for (lo, hi), n, c in zip(self.box, self.cells, self.prey_center):
            dx = (float(hi) - float(lo)) / n
            if not dx > 0:
                raise ValueError("cells must leave each cell a positive width")
            i = np.clip(np.floor((c - float(lo)) / dx), 0, n - 1)
            nearest.append(float(lo) + (i + 0.5) * dx)
        with np.errstate(over="ignore"):  # a far centre squares to inf
            seen = self._prey(*nearest) > 0
        if not seen:
            raise ValueError("prey_radius is too small for the cells: the "
                             "prey is zero at every cell centre")

    def grid(self) -> GridFunction:
        return GridFunction.uniform(list(self.box), list(self.cells))

    def _prey(self, *x):
        """The prey bump at the points of coordinate arrays ``x``."""
        c = np.asarray(self.prey_center, dtype=float)
        bump = Bump(self.prey_radius, self.prey_amp)
        if self.dim == 1:
            return bump(np.abs(x[0] - c[0]))
        return bump(np.hypot(x[0] - c[0], x[1] - c[1]))

    def initial_density(self) -> GridFunction:
        g = self.grid()
        return GridFunction.from_callable(self._prey, g.origin, g.dx,
                                          g.values.shape)


@dataclass(frozen=True)
class PredatorPreyFields:
    prey: RenewalCoefficients
    predator: OdeField
    escape: Bump
    search: Bump
    feeding: Bump



def _sampled_sup(f: Callable[[np.ndarray], np.ndarray], lo: float,
                 hi: float) -> float:
    xs = np.linspace(lo, hi, 4001)
    return float(np.max(np.abs(f(xs))))


def predator_prey_fields(params: PredatorPreyParams,
                         density: GridFunction | None = None
                         ) -> PredatorPreyFields:
    """Build the two coefficient sets with sampled certificates.

    The predator field's ``sup`` and ``lip`` scale with the mass of
    ``density``, the prey density the run starts from (by default
    ``params.initial_density()``, built after the prey's certificates).
    """
    dim = params.dim
    # weight of the squared distance; evaluating the spatial profile at the
    # plain distance realizes exactly the same function
    escape = Bump(params.escape_radius,
                  1.0 / spatial_bump_norm(params.escape_radius, dim))
    search = Bump(params.search_radius,
                  1.0 / spatial_bump_norm(params.search_radius, dim))
    feeding = Bump(params.feeding_radius, params.feeding_rate)
    alpha = params.alpha

    def offset(x, p):
        """``z = p - x`` and ``|z|^2`` (two products, no axis reduction).

        In 2D each axis is a separate call, since NumPy loops slowly over
        a broadcast axis of length two."""
        p = np.asarray(p, dtype=float)
        x = np.asarray(x, dtype=float)
        if dim == 1:
            d = p - x
            return d, d * d
        d = np.empty(np.broadcast(p, x).shape)
        for a in range(2):
            np.subtract(p[a], x[..., a], out=d[..., a])
        dist_sq = d[..., 0] * d[..., 0]
        dist_sq += d[..., 1] * d[..., 1]
        return d, dist_sq

    # the growth and divergence at one midpoint read only |z|^2, and share
    # it; the velocity, read at RK4 stage points that no other kernel sees,
    # takes its own offset, so the memo keeps no stage's arrays alive
    shared_dist_sq = _memo_last(lambda x, p: offset(x, p)[1])

    # the kernels below reuse their own temporaries through ``out=``, in
    # the operation order of the plain expressions in their comments
    def prey_velocity(t, x, p):
        # -d * (escape(|d|) / (alpha + |d|^2)), in the offset's buffers
        d, dist_sq = offset(x, p)
        w = _profile_sq(escape, dist_sq)
        w /= np.add(alpha, dist_sq, out=dist_sq)
        np.negative(d, out=d)
        if dim == 1:
            d *= w
        else:
            # w first: of two NaN operands the product keeps the first, and
            # the broadcast product -d * w[..., None] kept w's
            for a in range(2):
                np.multiply(w, d[..., a], out=d[..., a])
        return d

    # v = -z g(s) with s = |z|^2 and g(s) = amp q^4 / (alpha + s),
    # q = (1 - s / R^2)_+, so div v = dim g + 2 s g'(s) with
    # g'(s) = -4 amp q^3 / (R^2 (alpha + s)) - g / (alpha + s)
    inv_r2 = 1.0 / (escape.radius * escape.radius)
    four_amp = 4.0 * escape.amp * inv_r2

    def prey_divergence(t, x, p):
        # inv = 1 / (alpha + s); q = max(1 - s * inv_r2, 0); q3 = q * q * q
        # g = amp * q3 * q * inv
        # dim * g - 2 * s * inv * (four_amp * q3 + g)
        dist_sq = shared_dist_sq(x, p)
        inv = np.add(alpha, dist_sq)
        np.divide(1.0, inv, out=inv)
        q = np.multiply(dist_sq, inv_r2)
        np.maximum(np.subtract(1.0, q, out=q), 0.0, out=q)
        q3 = np.multiply(q, q)
        q3 *= q
        g = np.multiply(escape.amp, q3)
        g *= q
        g *= inv
        rate = np.multiply(2.0, dist_sq)
        rate *= inv
        np.multiply(four_amp, q3, out=q3)
        q3 += g
        rate *= q3
        np.multiply(dim, g, out=g)
        return np.subtract(g, rate, out=g)

    def prey_sink(t, x, p):
        q = _profile_sq(feeding, shared_dist_sq(x, p))
        return np.negative(q, out=q)

    # speed certificates from the 1D radial profile g(s) = s/(a+s^2) w(s)
    radial = lambda s: s / (alpha + s * s) * escape(s)
    reach = params.escape_radius
    v_sup = _sampled_sup(radial, 0.0, reach) * 1.0000001
    h = reach / 4000.0
    radial_slope = lambda s: (radial(s + h) - radial(s - h)) / (2 * h)
    v_lip = _sampled_sup(radial_slope, h, reach - h) * (2.0 if dim == 2 else 1.0)
    v_lip = max(v_lip, v_sup / math.sqrt(alpha)) * 1.05
    # div-gradient L1 bound, sampled on the kernel support
    xs = np.linspace(-reach, reach, 2001)
    if dim == 1:
        # the 1D speed is odd around the predator, so its divergence is the
        # even extension of the radial slope
        div = radial_slope(np.abs(xs))
        grad_div = np.gradient(div, xs)
        v_div_lip = float(np.trapezoid(np.abs(grad_div), xs)) * 1.1
    else:
        n2 = 201
        g1 = np.linspace(-reach, reach, n2)
        X, Y = np.meshgrid(g1, g1, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        dd = g1[1] - g1[0]
        divv = prey_divergence(0.0, pts, np.zeros(2)).reshape(n2, n2)
        gx, gy = np.gradient(divv, dd, dd)
        v_div_lip = float(np.sum(np.hypot(gx, gy)) * dd * dd) * 1.1

    m_sup = params.feeding_rate
    if dim == 1:
        m_tv = 2.0 * params.feeding_rate
        m_param_lip = m_tv  # same gradient integral controls the p-shift
    else:
        rr = np.linspace(0, params.feeding_radius, 2001)
        # the gradient integral bounds the p-shift; GridFunction.tv sums the
        # axis-wise jumps, which for a radial profile is 4/pi times that
        m_param_lip = float(np.trapezoid(
            np.abs(feeding.slope(rr)) * 2 * np.pi * rr, rr)) * 1.05
        m_tv = m_param_lip * 4.0 / np.pi

    prey = RenewalCoefficients(
        velocity=prey_velocity, growth=prey_sink,
        divergence=prey_divergence,
        # every prey kernel vanishes outside the wider of the two discs
        support=lambda p: (p, max(params.escape_radius,
                                  params.feeding_radius)),
        v_sup=v_sup, v_lip=v_lip, v_div_lip=v_div_lip,
        m_sup_tv=m_sup + m_tv, m_param_lip=m_param_lip,
        q_sup_tv=0.0, q_l1=0.0, q_param_lip=0.0)

    # predator field: gradient-of-average drift
    grad_sup = _sampled_sup(search.slope, 0.0, params.search_radius) * 1.05
    hess_sup = grad_sup / params.search_radius * 8.0  # coarse curvature bound
    if density is None:
        density = params.initial_density()
    mass_bound = density.l1() * 1.5 + 1e-9

    # grad_p of search(|p - x|) is the polynomial
    # -8 amp / r^2 (1 - |z|^2 / r^2)_+^3 z in z = p - x, so the drift sums
    # it over the window of cells within search_radius of p on each axis
    r = params.search_radius
    r2 = r * r
    drift_scale = -8.0 * search.amp / r2
    # every density of the run shares the starting density's grid, so its
    # centres and cell volume are computed once
    start_grid = ([density.axis_centers(a) for a in range(dim)],
                  density.cell_volume)

    def predator_velocity(t, p, rho: GridFunction):
        p = np.asarray(p, dtype=float)
        centers, volume = (start_grid if rho.same_grid(density) else
                           ([rho.axis_centers(a) for a in range(dim)],
                            rho.cell_volume))
        z, window = [], []
        for a, xc in enumerate(centers):
            lo, hi = np.searchsorted(xc, (p[a] - r, p[a] + r),
                                     side="right")
            z.append(p[a] - xc[lo:hi])
            window.append(slice(lo, hi))
        weight = rho.values[tuple(window)]
        if dim == 1:
            q = np.maximum(1.0 - z[0] * z[0] / r2, 0.0)
            val = np.array([np.dot(z[0], q * q * q * weight)])
        else:
            # w = max(1 - (z0^2 + z1^2) / r2, 0)^3 * weight, in place; the
            # cube w * (w * w) leaves 0.0 and NaN as they are
            w = np.add.outer(z[0] * z[0], z[1] * z[1])
            w /= r2
            np.maximum(np.subtract(1.0, w, out=w), 0.0, out=w)
            w *= w * w
            w *= weight
            val = np.array([np.dot(z[0], w.sum(axis=1)),
                            np.dot(z[1], w.sum(axis=0))])
        return val * (drift_scale * volume)

    predator = OdeField(
        f=predator_velocity,
        lip=max(hess_sup * mass_bound, grad_sup) * 1.1,
        sup=grad_sup * mass_bound,
        radius=1.0,  # placeholder; sized in run_predator_prey
    )
    return PredatorPreyFields(prey=prey, predator=predator, escape=escape,
                              search=search, feeding=feeding)


def _profile_sq(bump: Bump, dist_sq: np.ndarray) -> np.ndarray:
    """``bump`` at the distance whose square is ``dist_sq``, as a new array:
    ``amp * (q2 * q2)`` with ``q2 = q * q`` and
    ``q = max(1 - dist_sq / radius^2, 0)``."""
    q = np.divide(dist_sq, bump.radius * bump.radius)
    np.maximum(np.subtract(1.0, q, out=q), 0.0, out=q)
    np.multiply(q, q, out=q)
    np.multiply(q, q, out=q)
    return np.multiply(bump.amp, q, out=q)



def run_predator_prey(params: PredatorPreyParams,
                      schedule: RefineSchedule = RefineSchedule(),
                      initial: tuple[GridFunction, np.ndarray] | None = None,
                      ) -> Trajectory:
    """Run the coupled pursuit model over macro steps.

    The model is the transported prey density, the predator's ODE ball and
    their two processes; ``_run_coupled`` fits the density's envelope and
    refines each macro step.  Diagnostics add the predator's position
    (``p``, or ``px`` and ``py``), the density's mass and the predator's
    ball margin to the driver's norm, margin and gap columns.
    ``initial`` overrides the configured initial pair (used for restarts).
    The predator field's certificate is sized from the density the run
    starts from, built once.
    """
    if initial is None:
        rho0 = params.initial_density()
        p0 = np.asarray(params.predator_start, dtype=float)
    else:
        rho0 = initial[0]
        p0 = np.asarray(initial[1], dtype=float)
    fields = predator_prey_fields(params, rho0)

    macro = params.macro_step
    sup_p = fields.predator.sup
    with np.errstate(over="ignore"):  # a far predator's norm is inf
        reach_p = 2.0 * (np.linalg.norm(p0) + 1.0)
    if not math.isfinite(reach_p):
        raise ConfigError("params.predator_start is too far from the "
                          "origin: the predator's ball radius is not finite")
    radius_p = max(reach_p, 2.2 * sup_p * macro)
    predator = replace(fields.predator, radius=radius_p)

    def build(moduli_radius):
        return (make_renewal_process(fields.prey, moduli_radius, macro,
                                     n_sub_per_unit=16.0),
                make_ode_process(predator, macro, steps_per_unit=64.0))

    radius_rho, times, states, cols, meta = _run_coupled(
        build, (rho0, p0), 0,
        lambda t, r, h: ivp_domain_bounds(t, r, h, fields.prey),
        lambda t, rho: (rho.l1(), rho.linf(), rho.tv()),
        macro, params.horizon, schedule, fields.prey.v_sup)

    ball = ode_domain_radius(macro, macro, radius_p, sup_p)
    gaps = cols.pop("refine_gap")
    axes = ["p"] if params.dim == 1 else ["px", "py"]
    diag = {**{axis: [float(p[a]) for _, p in states]
               for a, axis in enumerate(axes)},
            "mass": [rho.mass() for rho, _ in states], **cols,
            "p_ball_margin": [ball - float(np.linalg.norm(p))
                              for _, p in states],
            "refine_gap": gaps}
    return Trajectory(times=times, states=states, diagnostics=diag,
                      meta={"radius_rho": radius_rho, "radius_p": radius_p,
                            **meta})
