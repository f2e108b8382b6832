"""Coupled application models: pursuit on a density, and staged vaccination.

Both models pair two of the concrete solvers through the product-space
coupler: the pursuit model couples the transported prey density (continuity
equation with a predator-driven velocity and a feeding sink) with the
predator's ODE; the vaccination model couples the susceptible/infective ODE
block with the transport of the vaccinated cohort along its immunization
age, fed by the vaccination-rate boundary series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, InadmissibleHorizon, KernelOutOfBox
from .ibvp import (InflowBoundary, _envelope_norms, ibvp_domain_bounds,
                   make_ibvp_process)
from .metric import Process, couple, refine_to_process
from .ode import OdeField, make_ode_process, ode_domain_radius
from .renewal import (RenewalCoefficients, ivp_domain_bounds,
                      make_renewal_process)
from .spaces import BvTimeSeries, GridFunction
from .trajectory import Trajectory


@dataclass(frozen=True)
class RefineSchedule:
    """Dyadic refinement schedule for the coupled polygonals."""

    j0: int = 0
    j_max: int = 8
    tol: float = 1e-5


# --------------------------------------------------------------------------
# Compactly supported polynomial bumps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Bump:
    """Profile ``s -> amp * (1 - (s / radius)^2)^4`` on ``|s| < radius``."""

    radius: float
    amp: float = 1.0

    def __call__(self, s):
        y = np.asarray(s, dtype=float) / self.radius
        return self.amp * np.maximum(1.0 - y * y, 0.0) ** 4

    def slope(self, s):
        y = np.asarray(s, dtype=float) / self.radius
        return (self.amp * 4.0 * np.maximum(1.0 - y * y, 0.0) ** 3
                * (-2.0 * y / self.radius))


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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def grid(self) -> GridFunction:
        return GridFunction.uniform(list(self.box), list(self.cells))

    def initial_density(self) -> GridFunction:
        g = self.grid()
        c = np.asarray(self.prey_center, dtype=float)
        bump = Bump(self.prey_radius, self.prey_amp)
        if self.dim == 1:
            return GridFunction.from_callable(
                lambda x: bump(np.abs(x - c[0])), g.origin, g.dx,
                g.values.shape)
        return GridFunction.from_callable(
            lambda x, y: bump(np.hypot(x - c[0], y - c[1])),
            g.origin, g.dx, g.values.shape)


@dataclass(frozen=True)
class PredatorPreyFields:
    prey: RenewalCoefficients
    predator: OdeField
    escape: Bump
    search: Bump
    feeding: Bump


def _memo_last(fn: Callable) -> Callable:
    """``fn`` recomputed only when an argument is not the object of the
    previous call.

    For values computed from frozen inputs that a solver hands in again and
    again: the parameter of one solve, or the midpoint at which
    ``backward_transport`` evaluates both growth and divergence.  The memo
    holds the previous arguments, so their ids cannot be reused.
    """
    last_args, last = (), None

    def memo(*args):
        nonlocal last_args, last
        if len(args) != len(last_args) or not all(
                map(operator.is_, args, last_args)):
            last_args, last = args, fn(*args)
        return last

    return memo


def _sampled_sup(f: Callable[[np.ndarray], np.ndarray], lo: float,
                 hi: float, n: int = 4001) -> float:
    xs = np.linspace(lo, hi, n)
    return float(np.max(np.abs(f(xs))))


def predator_prey_fields(params: PredatorPreyParams) -> PredatorPreyFields:
    """Build the two coefficient sets with sampled certificates."""
    dim = params.dim
    for a in range(dim):
        span = params.box[a][1] - params.box[a][0]
        widest = 2.0 * max(params.escape_radius, params.search_radius,
                           params.feeding_radius)
        if widest > span:
            raise KernelOutOfBox(
                f"kernel diameter {widest:.3g} exceeds box span {span:.3g} "
                f"on axis {a}")

    # weight of the squared distance; evaluating the spatial profile at the
    # plain distance realizes exactly the same function
    escape = Bump(params.escape_radius,
                  1.0 / spatial_bump_norm(params.escape_radius, dim))
    search = Bump(params.search_radius,
                  1.0 / spatial_bump_norm(params.search_radius, dim))
    feeding = Bump(params.feeding_radius, params.feeding_rate)
    alpha = params.alpha

    @_memo_last
    def offset(x, p):
        """``z = p - x`` and ``|z|^2`` (two products, no axis reduction),
        once for the growth and divergence at one midpoint."""
        d = np.asarray(p, dtype=float) - np.asarray(x, dtype=float)
        if dim == 1:
            return d, d * d
        return d, d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]

    def prey_velocity(t, x, p):
        d, dist_sq = offset(x, p)
        w = _profile_sq(escape, dist_sq) / (alpha + dist_sq)
        return -d * (w if dim == 1 else w[..., None])

    # v = -z g(s) with s = |z|^2 and g(s) = amp q^4 / (alpha + s),
    # q = (1 - s / R^2)_+, so div v = dim g + 2 s g'(s) with
    # g'(s) = -4 amp q^3 / (R^2 (alpha + s)) - g / (alpha + s)
    inv_r2 = 1.0 / (escape.radius * escape.radius)
    four_amp = 4.0 * escape.amp * inv_r2

    def prey_divergence(t, x, p):
        _, dist_sq = offset(x, p)
        inv = 1.0 / (alpha + dist_sq)
        q = np.maximum(1.0 - dist_sq * inv_r2, 0.0)
        q3 = q * q * q
        g = escape.amp * q3 * q * inv
        return dim * g - 2.0 * dist_sq * inv * (four_amp * q3 + g)

    def prey_sink(t, x, p):
        return -_profile_sq(feeding, offset(x, p)[1])

    def zero_source(t, x, p):
        return np.zeros(np.shape(x)[0] if np.ndim(x) else 1)

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
        velocity=prey_velocity, growth=prey_sink, source=zero_source,
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
    rho0 = params.initial_density()
    mass_bound = rho0.l1() * 1.5 + 1e-9

    # grad_p of search(|p - x|) is the polynomial
    # -8 amp / r^2 (1 - |z|^2 / r^2)_+^3 z in z = p - x, so the drift sums
    # it over the window of cells within search_radius of p on each axis
    r = params.search_radius
    r2 = r * r
    drift_scale = -8.0 * search.amp / r2

    def predator_velocity(t, p, rho: GridFunction):
        p = np.asarray(p, dtype=float)
        z, window = [], []
        for a in range(dim):
            xc = rho.axis_centers(a)
            lo, hi = np.searchsorted(xc, (p[a] - r, p[a] + r),
                                     side="right")
            z.append(p[a] - xc[lo:hi])
            window.append(slice(lo, hi))
        weight = rho.values[tuple(window)]
        if dim == 1:
            q = np.maximum(1.0 - z[0] * z[0] / r2, 0.0)
            val = np.array([np.dot(z[0], q ** 3 * weight)])
        else:
            q = np.maximum(1.0 - (z[0][:, None] ** 2 + z[1][None, :] ** 2)
                           / r2, 0.0)
            w = q ** 3 * weight
            val = np.array([np.dot(z[0], w.sum(axis=1)),
                            np.dot(z[1], w.sum(axis=0))])
        return val * (drift_scale * rho.cell_volume)

    predator = OdeField(
        f=predator_velocity,
        lip=max(hess_sup * mass_bound, grad_sup) * 1.1,
        sup=grad_sup * mass_bound,
        radius=1.0,  # placeholder; sized in run_predator_prey
    )
    return PredatorPreyFields(prey=prey, predator=predator, escape=escape,
                              search=search, feeding=feeding)


def _profile_sq(bump: Bump, dist_sq):
    """``bump`` at the distance whose square is ``dist_sq``."""
    q = np.maximum(1.0 - dist_sq / (bump.radius * bump.radius), 0.0)
    q2 = q * q
    return bump.amp * (q2 * q2)


def _macro_count(horizon: float, macro: float) -> int:
    """Number of macro steps; the horizon must be a multiple of the step."""
    n_macro = int(round(horizon / macro))
    if (n_macro < 1
            or abs(n_macro * macro - horizon) > 1e-9 * max(1.0, horizon)):
        raise ConfigError("time.horizon must be a multiple of time.macro_step")
    return n_macro


def _fit_radius(envelope: Callable[[float], tuple[float, float, float]],
                norms: tuple[float, float, float]) -> float:
    """Smallest doubling radius whose envelope admits the datum's norms.

    ``envelope(radius)`` returns the bounds ``(alpha_1, alpha_inf,
    alpha_tv)`` at the start time, or raises ``InadmissibleHorizon``;
    ``norms`` are the datum's matching ``(L1, sup, variation)`` measures.
    """
    radius = max(max(norms), 1e-6) * 2.0
    for _ in range(60):
        try:
            if all(n <= b for n, b in zip(norms, envelope(radius))):
                return radius
        except InadmissibleHorizon:
            pass
        radius *= 2.0
    raise InadmissibleHorizon(
        "no admissible radius: horizon too long for the coefficient bounds")


def _run_coupled(build: Callable[[float], tuple[Process, Process]], state,
                 index: int,
                 bounds: Callable[[float, float, float],
                                  tuple[float, float, float]],
                 norms: Callable[[float, GridFunction],
                                 tuple[float, float, float]],
                 macro: float, horizon: float, schedule: RefineSchedule,
                 speed: float, dx: float):
    """Run one coupled model over the refined macro steps of ``horizon``.

    ``state[index]`` is the grid field that one of the two processes
    transports; ``bounds(t, radius, horizon)`` is its invariant envelope
    (``ivp_domain_bounds`` or ``ibvp_domain_bounds``) and ``norms(t,
    field)`` the matching ``(L1, sup, variation)`` measures.  The driver
    fits the smallest doubling radius whose envelope admits the datum over
    one macro step and hands it to ``build(moduli_radius)``, which returns
    the two processes.  Sharp coefficients can make the envelope
    inadmissible at the macro length: the radius and margins are then NaN,
    and the moduli radius is ``2 max(norms, 1)``.

    Step ``k`` shifts both processes to ``[k macro, (k + 1) macro]`` and
    refines the coupled polygonal dyadically between the schedule's levels;
    its ``RefinementResult`` is the step's record.  Polygonal steps shorter
    than the crossing time ``dx / speed`` of the field's grid make the cell
    lookup quantize the transport away, so ``j_max`` is clamped to the
    deepest level whose step still crosses a cell (no clamp when ``speed``
    is 0), and ``j0`` to ``j_max``.

    Returns the fitted radius, the times, the states, the field's columns
    ``l1, linf, tv``, ``alpha*_margin`` (end-of-step bound minus norm) and
    ``refine_gap`` (0 at the start), and the meta ``macro_step``,
    ``envelope``, ``j0``, ``j_max`` (as applied), ``macro_steps``,
    ``converged_steps`` and the last ``refine_gap``.
    """
    n_macro = _macro_count(horizon, macro)
    datum = norms(0.0, state[index])
    try:
        radius = _fit_radius(lambda r: bounds(0.0, r, macro), datum)
        moduli_radius, envelope = radius, "admissible"
        end_bounds = bounds(macro, radius, macro)
    except InadmissibleHorizon:
        radius, end_bounds = math.nan, (math.nan,) * 3
        moduli_radius = 2.0 * max(*datum, 1.0)
        envelope = "inadmissible-at-macro-length"
    proc_u, proc_w = build(moduli_radius)

    j_max = schedule.j_max
    if speed > 0:
        j_max = min(j_max, max(0, int(math.floor(
            math.log2(max(macro * speed / dx, 1.0)) + 1e-9))))
    j0 = min(schedule.j0, j_max)
    states, steps = [state], []
    for k in range(n_macro):
        t = k * macro
        flow = couple(
            replace(proc_u, interval=(t, t + macro)),
            replace(proc_w, interval=(t, t + macro)))
        steps.append(refine_to_process(flow, macro, t, states[-1],
                                       schedule.tol, j0, j_max))
        states.append(steps[-1].point)
    times = [k * macro for k in range(n_macro + 1)]

    fields = [s[index] for s in states]
    cols = {"l1": [f.l1() for f in fields],
            "linf": [f.linf() for f in fields],
            "tv": [f.tv() for f in fields]}
    for name, bound, col in zip(
            ("alpha1_margin", "alphainf_margin", "alphatv_margin"),
            end_bounds, zip(*map(norms, times, fields))):
        cols[name] = [bound - n for n in col]
    cols["refine_gap"] = [0.0] + [res.gap for res in steps]
    meta = {"macro_step": macro, "envelope": envelope, "j0": j0,
            "j_max": j_max, "macro_steps": n_macro,
            "converged_steps": sum(res.converged for res in steps),
            "refine_gap": cols["refine_gap"][-1]}
    return radius, times, states, cols, meta


def run_predator_prey(params: PredatorPreyParams,
                      schedule: RefineSchedule = RefineSchedule(),
                      initial: tuple[GridFunction, np.ndarray] | None = None,
                      ) -> Trajectory:
    """Run the coupled pursuit model over macro steps.

    The model is the transported prey density, the predator's ODE ball and
    their two processes; ``_run_coupled`` fits the density's envelope and
    refines each macro step.  Diagnostics add the density's mass and the
    predator's ball margin to the driver's norm, margin and gap columns.
    ``initial`` overrides the configured initial pair (used for restarts).
    """
    fields = predator_prey_fields(params)
    if initial is None:
        rho0 = params.initial_density()
        p0 = np.asarray(params.predator_start, dtype=float)
    else:
        rho0 = initial[0]
        p0 = np.asarray(initial[1], dtype=float)

    macro = params.macro_step
    sup_p = fields.predator.sup
    radius_p = max(2.0 * (np.linalg.norm(p0) + 1.0),
                   2.2 * sup_p * macro)
    predator = OdeField(f=fields.predator.f, lip=fields.predator.lip,
                        sup=sup_p, radius=radius_p)

    def build(moduli_radius):
        return (make_renewal_process(fields.prey, moduli_radius, macro,
                                     n_sub_per_unit=16.0),
                make_ode_process(predator, macro, steps_per_unit=64.0))

    radius_rho, times, states, cols, meta = _run_coupled(
        build, (rho0, p0), 0,
        lambda t, r, h: ivp_domain_bounds(t, r, h, fields.prey),
        lambda t, rho: (rho.l1(), rho.linf(), rho.tv()),
        macro, params.horizon, schedule, fields.prey.v_sup, min(rho0.dx))

    ball = ode_domain_radius(macro, macro, radius_p, sup_p)
    gaps = cols.pop("refine_gap")
    diag = {"mass": [rho.mass() for rho, _ in states], **cols,
            "p_ball_margin": [ball - float(np.linalg.norm(p))
                              for _, p in states],
            "refine_gap": gaps}
    return Trajectory(times=times, states=states, diagnostics=diag,
                      meta={"radius_rho": radius_rho, "radius_p": radius_p,
                            **meta})


# --------------------------------------------------------------------------
# Vaccination model (S/I ODE + immunization-age transport)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EpidemicParams:
    """Configuration of the staged-vaccination model.

    The vaccinated cohort ``V(t, tau)`` is transported in its time since
    dose ``tau`` on ``[0, immunization_lag]``, damped by the infections it
    still incurs at reduced rate ``vaccinated_infectivity(tau) * I``, and fed
    at ``tau = 0`` by the vaccination rate; at ``tau = immunization_lag``
    individuals exit into the recovered compartment.
    """

    infection_rate: float                    # susceptible infectivity
    recovery_rate: float
    mortality_rate: float
    vaccination_rate: BvTimeSeries           # inflow series p(t) >= 0
    immunization_lag: float
    vaccinated_infectivity: GridFunction     # rate vs time since dose
    s0: float
    i0: float
    r0: float
    v0: GridFunction                         # initial cohort on [0, lag]
    admissible_radius: float                 # bound r in the data condition
    horizon: float
    macro_step: float

    def __post_init__(self):
        r = self.admissible_radius
        for name in ("s0", "i0", "r0"):
            v = getattr(self, name)
            if not 0 <= v <= r:
                raise ValueError(f"{name} must lie in [0, {r}]")
        if self.v0.tv() + self.v0.linf() > r * (1 + 1e-12):
            raise ValueError("initial cohort violates the data bound: "
                             "TV(V0) + sup|V0| must not exceed the radius")
        if np.any(self.v0.values < 0):
            raise ValueError("initial cohort must be nonnegative")
        if np.any(self.vaccination_rate.vals < 0):
            raise ValueError("vaccination rate must be nonnegative")
        if not self.v0.same_grid(self.vaccinated_infectivity):
            raise ValueError("v0 and vaccinated_infectivity must share a grid")


@dataclass
class EpidemicRun:
    trajectory: Trajectory
    warnings: list[str] = field(default_factory=list)

    def final_cohort(self) -> GridFunction:
        return self.trajectory.states[-1][1]


def _epidemic_ode_field(params: EpidemicParams, ball_radius: float,
                        cohort_mass_bound: float) -> OdeField:
    rho_s = params.infection_rate
    theta, mu = params.recovery_rate, params.mortality_rate
    rho_v = params.vaccinated_infectivity
    rate_fn = params.vaccination_rate
    cell = rho_v.cell_volume

    # the frozen cohort of one solve is handed to every RK4 stage
    @_memo_last
    def exposure(cohort: GridFunction) -> float:
        return float(np.sum(rho_v.values * cohort.values) * cell)

    def f(t, u, cohort: GridFunction):
        s, i = float(u[0]), float(u[1])
        ds = -rho_s * s * i - float(rate_fn(t))
        di = (rho_s * s + exposure(cohort) - theta - mu) * i
        return np.array([ds, di])

    rho_v_sup = rho_v.linf()
    lip = (2.0 * rho_s * ball_radius + rho_v_sup * cohort_mass_bound
           + theta + mu + ball_radius * rho_v_sup)
    sup = (rho_s * ball_radius ** 2 + rate_fn.sup()
           + ball_radius * (rho_s * ball_radius
                            + rho_v_sup * cohort_mass_bound + theta + mu))
    return OdeField(f=f, lip=lip, sup=sup, radius=ball_radius)


def _epidemic_ibvp(params: EpidemicParams, i_bound: float
                   ) -> tuple[RenewalCoefficients, InflowBoundary]:
    """The cohort's transport in its age at unit speed, and its inflow."""
    rho_v = params.vaccinated_infectivity

    def growth(t, x, w):
        return -rho_v.lookup(np.asarray(x, dtype=float), outside="clamp") \
            * float(np.asarray(w, dtype=float).reshape(-1)[1])

    def source(t, x, w):
        return np.zeros(np.shape(np.asarray(x))[0])

    p = params.vaccination_rate
    horizon = params.horizon
    coef = RenewalCoefficients(
        velocity=1.0, growth=growth, source=source,
        v_sup=1.0, v_lip=0.0,
        m_sup_tv=(rho_v.linf() + rho_v.tv()) * i_bound,
        m_param_lip=rho_v.l1(),
        q_l1=0.0, q_sup_tv=0.0, q_param_lip=0.0)
    return coef, InflowBoundary(series=p, speed_min=1.0,
                                b_l1=p.l1(0.0, horizon),
                                b_sup_tv=p.sup() + p.tv())


def run_epidemic(params: EpidemicParams,
                 schedule: RefineSchedule = RefineSchedule()) -> EpidemicRun:
    """Run the coupled vaccination model over macro steps.

    The model is the (S, I) ball with its certified segment and the
    cohort's age transport with its inflow; ``_run_coupled`` fits the
    cohort's envelope and refines each macro step.  The recovered
    compartment is integrated afterwards by the trapezoid rule from
    ``recovery_rate * I`` plus the cohort's exit trace, reflecting the
    model's triangular structure.  States dipping below ``-1e-9`` are
    reported as warnings, never clamped.
    """
    macro = params.macro_step
    horizon = params.horizon
    pop0 = params.s0 + params.i0 + params.r0 + params.v0.l1()
    ball = 2.0 * (math.hypot(params.s0, params.i0) + 0.5)
    cohort_mass_bound = (params.v0.l1()
                         + params.vaccination_rate.sup() * horizon + 1.0)
    ode_field = _epidemic_ode_field(params, ball, cohort_mass_bound)
    # shrink the macro horizon if the certified ball segment is shorter
    seg_cap = ball / (2.0 * ode_field.sup) if ode_field.sup > 0 else macro
    if macro > seg_cap * (1 + 1e-12):
        raise ConfigError(
            f"time.macro_step {macro} exceeds the certified segment "
            f"{seg_cap:.3g}; reduce it or the ball radius")
    coef, inflow = _epidemic_ibvp(params, i_bound=ball)

    def build(moduli_radius):
        return (make_ode_process(ode_field, macro, steps_per_unit=32.0),
                make_ibvp_process(coef, inflow, moduli_radius, macro,
                                  n_sub_per_unit=32.0, outflow_edge=True))

    radius_v, times, states, cols, meta = _run_coupled(
        build, (np.array([params.s0, params.i0]), params.v0), 1,
        lambda t, r, h: ibvp_domain_bounds(t, r, h, coef, inflow),
        lambda t, v: _envelope_norms(inflow, t, v),
        macro, horizon, schedule, coef.v_sup, params.v0.dx[0])

    # triangular tail: recovered compartment by the trapezoid rule
    integrand = [params.recovery_rate * float(uu[1]) + float(vv.values[-1])
                 for uu, vv in states]
    recovered = [params.r0]
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        recovered.append(recovered[-1]
                         + 0.5 * dt * (integrand[k] + integrand[k + 1]))

    gaps = cols.pop("refine_gap")
    diag = {"S": [float(uu[0]) for uu, _ in states],
            "I": [float(uu[1]) for uu, _ in states],
            **cols,
            "population": [float(uu[0]) + float(uu[1]) + vv.l1() + r
                           for (uu, vv), r in zip(states, recovered)],
            "refine_gap": gaps,
            "R": recovered}
    warnings = [f"negative state at t={t:.6g}: S={uu[0]:.3g} I={uu[1]:.3g}"
                for t, (uu, _) in zip(times, states) if min(uu) < -1e-9]
    traj = Trajectory(times=times, states=states, diagnostics=diag,
                      meta={"radius_v": radius_v, "ball": ball,
                            "population0": pop0, **meta})
    return EpidemicRun(trajectory=traj, warnings=warnings)


def epidemic_cohort_reference(params: EpidemicParams, times: list[float],
                              i_values: list[float], t_query: float,
                              n_time: int = 2000) -> GridFunction:
    """Closed-form cohort profile at ``t_query`` from a sampled I history.

    Along the age characteristic through ``(t, tau)`` the damping rate is
    ``vaccinated_infectivity(s - t + tau) * I(s)``; the profile is seeded by
    the initial cohort where the characteristic predates the start, by the
    vaccination-rate series once it enters through ``tau = 0``.  ``I`` is
    interpolated linearly between the given samples.
    """
    rho_v = params.vaccinated_infectivity
    v0 = params.v0
    p = params.vaccination_rate
    taus = v0.axis_centers(0)
    t_arr = np.asarray(times, dtype=float)
    i_arr = np.asarray(i_values, dtype=float)
    out = np.zeros(taus.shape[0])
    for idx, tau in enumerate(taus):
        if t_query <= tau:  # characteristic reaches back to the start
            s = np.linspace(0.0, t_query, n_time)
            base = float(v0.lookup(np.array([tau - t_query]),
                                   outside="clamp")[0])
        else:
            s = np.linspace(t_query - tau, t_query, n_time)
            base = float(p(t_query - tau))
        ages = s - t_query + tau
        rates = rho_v.lookup(ages, outside="clamp") * np.interp(s, t_arr, i_arr)
        expo = float(np.trapezoid(rates, s))
        out[idx] = base * math.exp(-expo)
    return v0.with_values(out)
