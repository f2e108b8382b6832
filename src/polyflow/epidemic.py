"""The staged-vaccination model: an S/I ODE block and its vaccinated cohort.

The susceptible/infective ODE block is coupled through
``scenarios._run_coupled`` with the transport of the vaccinated cohort along
its immunization age, fed by the vaccination-rate boundary series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ibvp import (InflowBoundary, _envelope_norms, ibvp_domain_bounds,
                   make_ibvp_process)
from .metric import RefineSchedule
from .ode import OdeField, make_ode_process
from .renewal import RenewalCoefficients
from .scenarios import _macro_count, _memo_last, _run_coupled
from .spaces import MAX_GRID_CELLS, BvTimeSeries, GridFunction
from .trajectory import Trajectory


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
        for name in ("infection_rate", "recovery_rate", "mortality_rate",
                     "admissible_radius"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        cells = len(self.v0.values)
        if not (cells and self.v0.same_grid(
                _age_grid(self.immunization_lag, cells))):
            raise ValueError("v0 must lie on the age cells of "
                             "[0, immunization_lag]")
        if not self.vaccinated_infectivity.same_grid(self.v0):
            raise ValueError("vaccinated_infectivity must share v0's grid")
        r = self.admissible_radius
        for name in ("s0", "i0", "r0"):
            v = getattr(self, name)
            if not 0 <= v <= r:
                raise ValueError(f"{name} must lie in [0, {r}]")
        if self.v0.tv() + self.v0.linf() > r * (1 + 1e-12):
            raise ValueError("v0 violates the data bound: TV(V0) + sup|V0| "
                             "must not exceed admissible_radius")
        if np.any(self.v0.values < 0):
            raise ValueError("v0 must be nonnegative")
        if np.any(self.vaccination_rate.vals < 0):
            raise ValueError("vaccination_rate must be nonnegative")


def _age_grid(lag: float, cells: int) -> GridFunction:
    """Zero cohort on ``cells`` equal age cells of ``[0, lag]``."""
    if not lag > 0:
        raise ValueError("immunization_lag must be positive")
    if cells <= 0:
        raise ValueError("cells must be positive")
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"cells ask for {cells} grid cells, above the cap "
                         f"of {MAX_GRID_CELLS}")
    return GridFunction.uniform((0.0, lag), cells)


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
        return float((rho_v.values * cohort.values).sum() * cell)

    def f(t, u, cohort: GridFunction):
        s, i = u.tolist()
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
    # a constant-speed solve hands in the same cached midpoints for every
    # step of one length
    minus_rho_v_at = _memo_last(lambda x: -rho_v.lookup(x, outside="clamp"))

    def growth(t, x, w):
        return minus_rho_v_at(np.asarray(x, dtype=float)) \
            * float(np.asarray(w, dtype=float).reshape(-1)[1])

    p = params.vaccination_rate
    horizon = params.horizon
    coef = RenewalCoefficients(
        velocity=1.0, growth=growth,
        v_sup=1.0, v_lip=0.0,
        m_sup_tv=(rho_v.linf() + rho_v.tv()) * i_bound,
        m_param_lip=rho_v.l1(),
        q_l1=0.0, q_sup_tv=0.0, q_param_lip=0.0)
    return coef, InflowBoundary(series=p, speed_min=1.0,
                                b_l1=p.l1(0.0, horizon),
                                b_sup_tv=p.sup() + p.tv())


def _epidemic_model(params: EpidemicParams) -> tuple:
    """The (S, I) ball radius and ODE field and the cohort's transport and
    inflow, once the time grid and the ball's certified segment are checked;
    the config layer builds it too, so a config it accepts passes both."""
    macro, horizon = params.macro_step, params.horizon
    _macro_count(horizon, macro)
    ball = 2.0 * (math.hypot(params.s0, params.i0) + 0.5)
    cohort_mass_bound = (params.v0.l1()
                         + params.vaccination_rate.sup() * horizon + 1.0)
    ode_field = _epidemic_ode_field(params, ball, cohort_mass_bound)
    seg_cap = ball / (2.0 * ode_field.sup) if ode_field.sup > 0 else macro
    if macro > seg_cap * (1 + 1e-12):
        raise ConfigError(
            f"time.macro_step {macro} exceeds the certified segment "
            f"{seg_cap:.3g}; reduce it or the ball radius")
    return ball, ode_field, *_epidemic_ibvp(params, i_bound=ball)


def run_epidemic(params: EpidemicParams,
                 schedule: RefineSchedule = RefineSchedule()) -> Trajectory:
    """Run the coupled vaccination model over macro steps.

    The model is the (S, I) ball with its certified segment and the
    cohort's age transport with its inflow; ``_run_coupled`` fits the
    cohort's envelope and refines each macro step.  The recovered
    compartment is integrated afterwards by the trapezoid rule from
    ``recovery_rate * I`` plus the cohort's exit trace, reflecting the
    model's triangular structure.  States are never clamped: the ``S``
    and ``I`` columns show where they dip below zero.
    """
    macro = params.macro_step
    pop0 = params.s0 + params.i0 + params.r0 + params.v0.l1()
    ball, ode_field, coef, inflow = _epidemic_model(params)

    def build(moduli_radius):
        return (make_ode_process(ode_field, macro, n_sub_per_unit=32.0),
                make_ibvp_process(coef, inflow, moduli_radius, macro,
                                  n_sub_per_unit=32.0))

    radius_v, times, states, cols, meta = _run_coupled(
        build, (np.array([params.s0, params.i0]), params.v0), 1,
        lambda t, r, h: ibvp_domain_bounds(t, r, h, coef, inflow),
        lambda t, v: _envelope_norms(inflow, t, v),
        macro, params.horizon, schedule, coef.v_sup)

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
    return Trajectory(times=times, states=states, diagnostics=diag,
                      meta={"radius_v": radius_v, "ball": ball,
                            "population0": pop0, **meta})


def epidemic_cohort_reference(params: EpidemicParams, times: list[float],
                              i_values: list[float], t_query: float
                              ) -> GridFunction:
    """Closed-form cohort profile at ``t_query`` from a sampled I history.

    Along the age characteristic through ``(t, tau)`` the damping rate is
    ``vaccinated_infectivity(s - t + tau) * I(s)``; the profile is seeded by
    the initial cohort where the characteristic predates the start, by the
    vaccination-rate series once it enters through ``tau = 0``.  ``I`` is
    interpolated linearly between the given samples, and the damping
    integral is a trapezoid rule on 2000 points.
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
            s = np.linspace(0.0, t_query, 2000)
            base = float(v0.lookup(np.array([tau - t_query]),
                                   outside="clamp")[0])
        else:
            s = np.linspace(t_query - tau, t_query, 2000)
            base = float(p(t_query - tau))
        ages = s - t_query + tau
        rates = rho_v.lookup(ages, outside="clamp") * np.interp(s, t_arr, i_arr)
        expo = float(np.trapezoid(rates, s))
        out[idx] = base * math.exp(-expo)
    return v0.with_values(out)
