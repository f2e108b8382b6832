import math
import operator
import random
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polyflow import spaces
from polyflow.epidemic import (EpidemicParams, _age_grid, _epidemic_ibvp,
                               _epidemic_ode_field, epidemic_cohort_reference,
                               run_epidemic)
from polyflow.errors import ConfigError, KernelOutOfBox
from polyflow.harness import (_population_drift, epidemic_params_from_config,
                              load_config, predator_prey_params_from_config,
                              schedule_from_config)
from polyflow.ibvp import ibvp_domain_bounds
from polyflow.metric import RefineSchedule
from polyflow.ode import OdeField, ode_solve
from polyflow.pursuit import (PredatorPreyParams, predator_prey_fields,
                              run_predator_prey)
from polyflow.renewal import audit_coefficients, ivp_domain_bounds
from polyflow.scenarios import _MAX_MACRO_STEPS, _macro_count
from polyflow.spaces import (MAX_GRID_CELLS, BvTimeSeries, GridFunction,
                             l1_distance, total_variation)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def pursuit_params(dim=2, feeding_rate=0.0, predator=(0.15, 0.0),
                   horizon=0.3, macro=0.3, alpha=1.2):
    start = predator[:dim]
    center = (0.0, 0.0)[:dim]
    return PredatorPreyParams(
        dim=dim, alpha=alpha, escape_radius=0.8, search_radius=0.6,
        feeding_radius=0.4, feeding_rate=feeding_rate,
        box=(((-1.0, 1.0),) * dim), cells=((100,) * dim),
        horizon=horizon, macro_step=macro,
        prey_center=center, prey_radius=0.7, prey_amp=1.0,
        predator_start=start)


class TestPursuitFields:
    def test_escape_weight_unit_integral(self):
        params = pursuit_params()
        fields = predator_prey_fields(params)
        # fine midpoint quadrature of the spatial weight x -> w(|x|^2)
        n = 1200
        xs = np.linspace(-1, 1, n, endpoint=False) + 1.0 / n
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        vals = fields.escape(np.hypot(X, Y))
        integral = float(np.sum(vals)) * (2.0 / n) ** 2
        assert abs(integral - 1.0) < 1e-6

    def test_kernels_vanish_outside_radii(self):
        params = pursuit_params()
        fields = predator_prey_fields(params)
        assert fields.escape(0.81) == 0.0
        assert fields.search(0.61) == 0.0
        assert fields.feeding(0.41) == 0.0

    def test_prey_velocity_vanishes_at_predator(self):
        params = pursuit_params()
        fields = predator_prey_fields(params)
        p = np.array([0.2, -0.1])
        v = fields.prey.velocity(0.0, p.reshape(1, 2), p)
        assert np.allclose(v, 0.0)

    def test_predator_drift_zero_for_symmetric_density(self):
        params = pursuit_params(predator=(0.0, 0.0))
        fields = predator_prey_fields(params)
        rho = params.initial_density()
        u = fields.predator.f(0.0, np.zeros(2), rho)
        assert float(np.linalg.norm(u)) < 1e-12

    def test_kernel_out_of_box(self):
        params = pursuit_params()
        with pytest.raises(KernelOutOfBox, match="search_radius"):
            PredatorPreyParams(**{**params.__dict__, "search_radius": 1.5})

    @pytest.mark.parametrize("cells", [50, 100, 200])
    def test_bundled_2d_prey_passes_the_audit(self, cells):
        # the sink's variation certificate covers GridFunction.tv's
        # axis-wise variation, 4/pi times the isotropic one
        base = predator_prey_params_from_config(
            load_config(CONFIG_DIR / "predator_prey_2d.json"))
        params = PredatorPreyParams(**{**base.__dict__,
                                       "cells": (cells, cells)})
        prey = predator_prey_fields(params).prey
        assert audit_coefficients(
            prey, params.initial_density(),
            np.asarray(params.predator_start, dtype=float),
            random.Random(0)) == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_kernels_fresh_when_points_or_predator_change(self, dim):
        # growth and divergence share one offset per midpoint; alternating
        # points and predator positions must never reuse a stale one
        params = pursuit_params(dim=dim, feeding_rate=0.5)
        prey = predator_prey_fields(params).prey
        rng = np.random.default_rng(2)
        shape = (40,) if dim == 1 else (40, 2)
        xs = [rng.uniform(-1, 1, shape) for _ in range(2)]
        ps = [rng.uniform(-0.3, 0.3, dim) for _ in range(2)]
        fns = (prey.velocity, prey.growth, prey.divergence)
        # fresh copies of the arguments never meet a remembered offset
        ref = predator_prey_fields(params).prey
        want = {(i, j, k): fn(0.0, xs[i].copy(), ps[j].copy())
                for i in range(2) for j in range(2)
                for k, fn in enumerate((ref.velocity, ref.growth,
                                        ref.divergence))}
        for i, j, k in [(0, 0, 1), (0, 0, 2), (1, 0, 2), (1, 1, 1),
                        (1, 1, 0), (0, 1, 2), (0, 0, 0), (0, 0, 2),
                        (1, 0, 1), (1, 0, 1)]:
            assert np.array_equal(fns[k](0.3, xs[i], ps[j]), want[i, j, k])

    def test_velocity_certificate_sampled(self):
        params = pursuit_params()
        fields = predator_prey_fields(params)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (200, 2))
        p = rng.uniform(-0.5, 0.5, 2)
        speeds = np.linalg.norm(fields.prey.velocity(0.0, pts, p), axis=1)
        assert float(np.max(speeds)) <= fields.prey.v_sup * (1 + 1e-9)

    def test_setup_peak_memory_in_grid_sizes(self):
        """The start density builds no full-grid coordinate arrays, and the
        fields build no point list for the ``v_div_lip`` certificate: the
        traced peaks are about 4 density grids and 6 arrays of the
        certificate's 201 x 201 sampling grid (8 and 10 when they did)."""
        def traced_peak(fn) -> int:
            fn()  # warm: lazy imports and caches are not the call's cost
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        params = replace(pursuit_params(), cells=(120, 120))
        rho = params.initial_density()
        assert traced_peak(params.initial_density) <= 5 * rho.values.nbytes
        assert (traced_peak(lambda: predator_prey_fields(params, rho))
                <= 7 * 201 * 201 * 8)


class TestPursuitRuns:
    def test_one_run_measures_each_state_once(self, monkeypatch):
        # the driver's datum, columns and margins and the predator's mass
        # bound all read the cached norms of each state
        measured = []

        def counted(u):
            measured.append(u)
            return total_variation(u)

        monkeypatch.setattr(spaces, "total_variation", counted)
        params = pursuit_params(feeding_rate=0.3, horizon=0.2, macro=0.1)
        traj = run_predator_prey(params, RefineSchedule(0, 1, 1e-6))
        rhos = [rho for rho, _ in traj.states]
        assert len(rhos) == 3
        assert len(measured) == len(rhos)
        assert all(map(operator.is_, measured, rhos))

    def test_mass_conserved_without_feeding(self):
        traj = run_predator_prey(pursuit_params(),
                                 RefineSchedule(0, 0, math.inf))
        masses = traj.column("mass")
        assert abs(masses[-1] - masses[0]) / masses[0] <= 1e-3

    def test_mass_nonincreasing_with_feeding(self):
        traj = run_predator_prey(
            pursuit_params(feeding_rate=0.5, horizon=0.2, macro=0.1),
            RefineSchedule(0, 0, math.inf))
        masses = traj.column("mass")
        for a, b in zip(masses, masses[1:]):
            assert b <= a + 1e-9

    def test_out_of_reach_predator_freezes_everything(self):
        # all kernels vanish on the prey support: velocity and sink are
        # exactly zero there, so the density never changes and the predator
        # sees no drift
        params = PredatorPreyParams(
            dim=1, alpha=1.0, escape_radius=0.3, search_radius=0.3,
            feeding_radius=0.3, feeding_rate=0.5,
            box=((-1.0, 1.0),), cells=(100,), horizon=0.2, macro_step=0.1,
            prey_center=(-0.5,), prey_radius=0.3, prey_amp=1.0,
            predator_start=(0.8,))
        traj = run_predator_prey(params, RefineSchedule(0, 0, math.inf))
        rho0 = params.initial_density()
        rho_end = traj.states[-1][0]
        assert np.array_equal(rho_end.values, rho0.values)
        assert float(traj.states[-1][1][0]) == 0.8

    def test_symmetric_stationarity_first_step(self):
        traj = run_predator_prey(
            pursuit_params(feeding_rate=0.5, predator=(0.0, 0.0),
                           horizon=0.1, macro=0.1),
            RefineSchedule(0, 0, math.inf))
        assert float(np.linalg.norm(traj.states[1][1])) <= 1e-8

    def test_semigroup_restart(self):
        params = pursuit_params(feeding_rate=0.3, horizon=0.2, macro=0.1)
        direct = run_predator_prey(params, RefineSchedule(0, 0, math.inf))
        half = PredatorPreyParams(**{**params.__dict__, "horizon": 0.1})
        first = run_predator_prey(half, RefineSchedule(0, 0, math.inf))
        second = run_predator_prey(half, RefineSchedule(0, 0, math.inf),
                                   initial=first.states[-1])
        rho_d, p_d = direct.states[-1]
        rho_r, p_r = second.states[-1]
        gap = l1_distance(rho_d, rho_r) + float(np.linalg.norm(p_d - p_r))
        # the fields are autonomous, so the restarted composition repeats
        # the same float operations; one-step tolerance is generous
        one_step = 2 * min(rho_d.dx)
        assert gap <= 5 * one_step

    def test_overlapped_steps_give_the_sequential_bits(self, overlap_gate):
        # the benchmark's 200x200 pursuit, refined to level 1, with every
        # step's two solves overlapped and with none; the threads switch
        # often, so state that the two solves shared would show
        params = replace(pursuit_params(feeding_rate=0.5),
                         cells=(200, 200))
        runs = {}
        switch = sys.getswitchinterval()
        for on in (False, True):
            futures = overlap_gate(on)
            sys.setswitchinterval(1e-5)
            try:
                runs[on] = run_predator_prey(params,
                                             RefineSchedule(0, 1, 1e-6))
            finally:
                sys.setswitchinterval(switch)
            assert len(futures) == (3 if on else 0)
        seq, ovl = runs[False], runs[True]
        assert ovl.times == seq.times
        assert repr(ovl.diagnostics) == repr(seq.diagnostics)  # NaN margins
        for (rho_s, p_s), (rho_o, p_o) in zip(seq.states, ovl.states):
            assert rho_o.values.tobytes() == rho_s.values.tobytes()
            assert p_o.tobytes() == p_s.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_configured_run_builds_its_density_once(self, dim,
                                                    monkeypatch):
        built = []
        build = PredatorPreyParams.initial_density

        def counted(params):
            built.append(build(params))
            return built[-1]

        monkeypatch.setattr(PredatorPreyParams, "initial_density", counted)
        params = pursuit_params(dim=dim, feeding_rate=0.3, horizon=0.1,
                                macro=0.1)
        traj = run_predator_prey(params, RefineSchedule(0, 0, math.inf))
        assert len(built) == 1
        assert traj.states[0][0] is built[0]
        # the predator's certificate is the one sized from that density
        fields = predator_prey_fields(params, built[0]).predator
        assert traj.meta["radius_p"] == max(
            2.0 * (np.linalg.norm(params.predator_start) + 1.0),
            2.2 * fields.sup * params.macro_step)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_restart_sizes_the_predator_from_its_density(self, dim):
        # a restart from three times the configured mass gets a predator
        # field whose sup and ball are sized from that mass
        params = pursuit_params(dim=dim, feeding_rate=0.3, horizon=0.1,
                                macro=0.1)
        rho0 = params.initial_density()
        heavy = rho0.with_values(3.0 * rho0.values)
        base = predator_prey_fields(params).predator
        scaled = predator_prey_fields(params, heavy).predator
        assert scaled.sup == pytest.approx(3.0 * base.sup, rel=1e-8)
        assert scaled.lip >= base.lip
        same = predator_prey_fields(params, rho0).predator
        assert (same.sup, same.lip) == (base.sup, base.lip)
        p0 = np.asarray(params.predator_start, dtype=float)
        ball = lambda sup: max(2.0 * (np.linalg.norm(p0) + 1.0),
                               2.2 * sup * params.macro_step)
        assert ball(scaled.sup) > ball(base.sup)
        schedule = RefineSchedule(0, 0, math.inf)
        restart = run_predator_prey(params, schedule, initial=(heavy, p0))
        assert restart.meta["radius_p"] == ball(scaled.sup)
        assert (run_predator_prey(params, schedule).meta["radius_p"]
                == ball(base.sup))

    @pytest.mark.parametrize("config, name, value", [
        ("predator_prey_1d.json", "predator_start", (0.1, 0.2)),
        ("predator_prey_1d.json", "prey_center", (0.0, 1.0)),
        ("predator_prey_1d.json", "box", ((-1.0, 1.0), (-1.0, 1.0))),
        ("predator_prey_1d.json", "cells", (100, 100)),
        ("predator_prey_1d.json", "prey_center", 0.0),
        ("predator_prey_2d.json", "predator_start", (0.1,)),
        ("predator_prey_2d.json", "cells", (50,)),
    ])
    def test_params_hold_one_entry_per_axis(self, config, name, value):
        params = predator_prey_params_from_config(
            load_config(CONFIG_DIR / config))
        with pytest.raises(ValueError,
                           match=f"{name} must hold one entry per axis"):
            replace(params, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("alpha", 0.0, "alpha must be positive"),
        ("escape_radius", -0.8, "escape_radius must be positive"),
        ("prey_radius", math.nan, "prey_radius must be positive"),
        ("prey_amp", 0.0, "prey_amp must be positive"),
        ("feeding_rate", -0.5, "feeding_rate must be nonnegative"),
        ("dim", 3, "dim must be 1 or 2"),
        ("box", ((1.0, -1.0), (-1.0, 1.0)), "box entries must be"),
        ("box", ((-1.0,), (-1.0, 1.0)), "box entries must be"),
        ("cells", (50, 0), "cells entries must be positive"),
        # finite ends whose span is not
        ("box", ((-1e308, 1e308), (-1.0, 1.0)), "box spans hi - lo must be"),
        ("box", ((-1.0, 1.0), (0.0, math.inf)), "box spans hi - lo must be"),
        ("cells", (1025, 1024),
         "cells ask for 1049600 grid cells, above the cap of 1048576"),
    ])
    def test_params_reject_out_of_range_fields(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            replace(pursuit_params(), **{name: value})

    @pytest.mark.parametrize("name, value", [
        # the message names the field: the prey check would blame
        # prey_radius for a NaN centre, and an infinite start would run
        ("prey_center", (math.nan,)),
        ("predator_start", (math.inf,)),
        ("predator_start", (-math.inf,)),
    ])
    def test_params_reject_non_finite_positions(self, name, value):
        params = pursuit_params(dim=1, predator=(0.1,))
        with pytest.raises(ValueError,
                           match=f"{name} entries must be finite"):
            replace(params, **{name: value})

    @pytest.mark.parametrize("dim, box, center, sees", [
        # cells of width 2: the centre nearest 0 lies at 1, beyond the
        # prey radius 0.7, but a prey centred on a cell centre is seen
        (1, ((-100.0, 100.0),), (0.0,), False),
        (1, ((-100.0, 100.0),), (1.0,), True),
        # 1.6 lies in the cell centred at 1, not nearer the one at 3
        (1, ((-100.0, 100.0),), (1.6,), True),
        (1, ((-1e300, 1e300),), (0.0,), False),
        # the nearest centre per axis is the nearest one: (1, 1), at
        # distance sqrt(2) from the origin, and (1, 1) itself
        (2, ((-100.0, 100.0),) * 2, (0.0, 0.0), False),
        (2, ((-100.0, 100.0),) * 2, (1.0, 1.0), True),
        (2, ((-100.0, 100.0), (-1.0, 1.0)), (0.0, 0.0), False),
        # a centre outside the box looks at the edge cell
        (1, ((-1.0, 1.0),), (1.5,), True),
        (1, ((-1.0, 1.0),), (1.8,), False),
    ])
    def test_prey_seen_by_a_cell_centre(self, dim, box, center, sees):
        # 100 cells per axis; without a centre inside the prey the density
        # would be zero everywhere and the run would carry no mass
        params = pursuit_params(dim=dim, predator=(0.1, 0.0))
        if not sees:
            with pytest.raises(ValueError, match="prey_radius"):
                replace(params, box=box, prey_center=center)
            return
        edited = replace(params, box=box, prey_center=center)
        assert edited.initial_density().mass() > 0

    def test_horizon_not_a_multiple_of_macro_step(self):
        with pytest.raises(ConfigError, match="time.macro_step"):
            run_predator_prey(pursuit_params(horizon=0.3, macro=0.2),
                              RefineSchedule(0, 0, math.inf))

    def test_1d_variant(self):
        # 1D lacks the transverse cancellation of the 2D lookup noise, so
        # only a loose mass check is meaningful here
        params = pursuit_params(dim=1, predator=(0.1,), horizon=0.2,
                                macro=0.2)
        traj = run_predator_prey(params, RefineSchedule(0, 0, math.inf))
        masses = traj.column("mass")
        assert abs(masses[-1] - masses[0]) / masses[0] <= 1e-2
        # predator drifts toward the density peak (negative direction)
        assert traj.states[-1][1][0] < 0.1


def epidemic_grid(cells=200, lag=1.0):
    return GridFunction.uniform((0.0, lag), cells)


def epidemic_params(cells=200, rho_v_scale=0.8, p_series=None,
                    v0_scale=0.2, rho_s=1.5, theta=0.3, mu=0.1,
                    horizon=0.5, macro=None):
    lag = 1.0
    grid = epidemic_grid(cells, lag)
    xs = grid.axis_centers(0)
    if macro is None:
        macro = 8 * lag / cells
    return EpidemicParams(
        infection_rate=rho_s, recovery_rate=theta, mortality_rate=mu,
        vaccination_rate=(p_series if p_series is not None
                          else BvTimeSeries(np.array([0.0, 0.25]),
                                            np.array([0.3, 0.15]))),
        immunization_lag=lag,
        vaccinated_infectivity=grid.with_values(rho_v_scale * (1 - xs / lag)),
        s0=0.7, i0=0.2, r0=0.0,
        v0=grid.with_values(v0_scale * np.exp(-3 * xs)),
        admissible_radius=1.0,
        horizon=horizon, macro_step=macro)


# a macro step or horizon that makes no time grid, and the field it names
BAD_TIME_GRIDS = [
    *[("macro", value, "time.macro_step")
      for value in (0.0, -0.02, math.nan, math.inf)],
    *[("horizon", value, "time.horizon")
      for value in (0.0, -0.5, math.inf, math.nan)]]


@pytest.mark.parametrize("key, value, field", BAD_TIME_GRIDS)
@pytest.mark.parametrize("model", ["epidemic", "pursuit"])
def test_runners_reject_a_bad_time_grid(model, key, value, field):
    times = {"horizon": 0.2, "macro": 0.02, key: value}
    schedule = RefineSchedule(0, 0, math.inf)
    with pytest.raises(ConfigError, match=field):
        if model == "epidemic":
            run_epidemic(epidemic_params(**times), schedule)
        else:
            run_predator_prey(
                pursuit_params(dim=1, predator=(0.1,), **times), schedule)


@pytest.mark.parametrize("horizon, macro, count", [
    (1e6, 1e-3, "1000000000"), (1e300, 1e-3, "1e+303"),
    (2.0 ** 20 + 1.0, 1.0, "1048577")])
def test_macro_step_count_is_capped(horizon, macro, count):
    # the driver lists every step's start time before the first step
    with pytest.raises(ConfigError, match=re.escape(
            f"asks for {count} macro steps, above the cap of 1048576")):
        _macro_count(horizon, macro)


def test_macro_step_count_at_the_cap():
    assert _MAX_MACRO_STEPS == 2 ** 20
    assert _macro_count(2.0 ** 19, 0.5) == _MAX_MACRO_STEPS


class TestRefineSchedule:
    @pytest.mark.parametrize("fields, message", [
        ({"j0": 5, "j_max": 2}, "j0 5 must not exceed refine.j_max 2"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": math.nan}, "tol must be positive"),
        ({"j0": -1}, "j0 must be nonnegative"),
    ], ids=["inverted", "tol-zero", "tol-nan", "j0-negative"])
    def test_rules_raise_when_built(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RefineSchedule(**fields)

    def test_unrefined_schedule_builds(self):
        assert RefineSchedule(0, 0, math.inf).tol == math.inf

    def test_config_defaults_are_the_dataclass_defaults(self):
        assert schedule_from_config({}) == RefineSchedule()
        assert schedule_from_config({"refine": {}}) == RefineSchedule()

    def test_inverted_schedule_no_longer_runs(self):
        # the driver used to lower j0 5 to j_max 2 and run level 2
        params = epidemic_params(cells=100, horizon=0.1, macro=0.02)
        with pytest.raises(ValueError, match="refine.j_max"):
            run_epidemic(params, RefineSchedule(j0=5, j_max=2))

    @pytest.mark.parametrize("cells, applied", [(400, 2), (100, 1)])
    def test_start_level_lowered_only_by_the_crossing_clamp(self, cells,
                                                            applied):
        # a macro step of 0.02 crosses 8 age cells of 400, so level 2
        # runs as asked, and 2 cells of 100, so the clamp stops at level 1
        params = epidemic_params(cells=cells, horizon=0.04, macro=0.02)
        run = run_epidemic(params, RefineSchedule(2, 3, math.inf))
        assert run.meta["j0"] == applied

    def test_crossing_clamp_reads_the_narrowest_cell(self):
        # cells 0.02 wide in x and 0.1 in y: a macro step of 0.3 at the
        # prey's speed bound (about 0.33) crosses about 5 cells in x, so
        # level 2 is the deepest whose step still crosses one
        params = replace(pursuit_params(dim=2), cells=(100, 20))
        assert predator_prey_fields(params).prey.v_sup == pytest.approx(
            0.33, abs=0.01)
        run = run_predator_prey(params, RefineSchedule(8, 8, math.inf))
        assert run.meta["j_max"] == 2


class TestEpidemicValidation:
    def test_age_cells_capped_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid-sized array was allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match=f"cells ask for "
                           f"{MAX_GRID_CELLS + 1} grid cells, above the cap"):
            _age_grid(1.0, MAX_GRID_CELLS + 1)

    def test_initial_bounds_enforced(self):
        with pytest.raises(ValueError):
            epidemic_params(rho_s=1.0).__class__(
                **{**epidemic_params().__dict__, "s0": 1.5})

    def test_cohort_bound_enforced(self):
        base = epidemic_params()
        vals = np.zeros(200)
        vals[::2] = 0.9  # oscillation: tv + sup far above the radius
        with pytest.raises(ValueError):
            EpidemicParams(**{**base.__dict__,
                              "v0": base.v0.with_values(vals)})

    def test_negative_rate_rejected(self):
        base = epidemic_params()
        bad = BvTimeSeries(np.array([0.0]), np.array([-0.1]))
        with pytest.raises(ValueError,
                           match="vaccination_rate must be nonnegative"):
            EpidemicParams(**{**base.__dict__, "vaccination_rate": bad})

    @pytest.mark.parametrize("name", ["infection_rate", "recovery_rate",
                                      "mortality_rate", "admissible_radius"])
    def test_negative_constant_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            replace(epidemic_params(), **{name: -0.1})

    @pytest.mark.parametrize("lag", [0.0, -1.0, math.nan])
    def test_immunization_lag_positive(self, lag):
        with pytest.raises(ValueError,
                           match="immunization_lag must be positive"):
            replace(epidemic_params(), immunization_lag=lag)

    def test_cohort_on_the_lag_grid(self):
        # the cohort's age cells must cover [0, immunization_lag]
        with pytest.raises(ValueError, match="v0 must lie on the age cells"):
            replace(epidemic_params(), immunization_lag=2.0)
        base = epidemic_params()
        coarse = epidemic_grid(cells=100)
        with pytest.raises(ValueError, match="vaccinated_infectivity"):
            replace(base, vaccinated_infectivity=coarse)


class TestEpidemicRuns:
    def test_sir_reduction_conserves_population(self):
        params = epidemic_params(
            p_series=BvTimeSeries.constant(0.0), v0_scale=0.0, mu=0.0,
            horizon=1.0, macro=0.01, cells=100)
        run = run_epidemic(params, RefineSchedule(0, 6, 1e-9))
        pop = run.column("population")
        assert abs(pop[-1] - pop[0]) / 1.0 <= 1e-6
        assert run.states[-1][1].l1() == 0.0

    def test_pure_decay_of_infectives(self):
        params = epidemic_params(rho_s=0.0, rho_v_scale=0.0, horizon=1.0,
                                 macro=0.02, cells=400)
        run = run_epidemic(params, RefineSchedule(0, 6, 1e-9))
        i_end = run.column("I")[-1]
        expect = 0.2 * math.exp(-(0.3 + 0.1) * 1.0)
        assert abs(i_end - expect) <= 1e-6

    def test_cohort_trace_matches_closed_form(self):
        params = epidemic_params(cells=400, horizon=0.5)
        traj = run_epidemic(params, RefineSchedule(0, 3, 1e-8))
        ref = epidemic_cohort_reference(params, traj.times,
                                        traj.column("I"), 0.5)
        assert l1_distance(traj.states[-1][1], ref) <= 1e-3

    def test_population_balance_with_mortality(self):
        params = epidemic_params(cells=400, horizon=0.5, mu=0.1)
        traj = run_epidemic(params, RefineSchedule(0, 3, 1e-8))
        pop = traj.column("population")
        absorbed = float(np.trapezoid(traj.column("I"), traj.times))
        drift = abs(pop[-1] - (pop[0] - 0.1 * absorbed)) / 0.5
        assert drift <= 1e-4

    def test_semigroup_restart(self):
        # constant vaccination rate makes the dynamics time-homogeneous,
        # so a restarted run is directly comparable
        p = BvTimeSeries.constant(0.2)
        params = epidemic_params(cells=200, horizon=0.4, macro=0.04,
                                 p_series=p)
        one = run_epidemic(params, RefineSchedule(0, 3, 1e-8))
        half = EpidemicParams(**{**params.__dict__, "horizon": 0.2})
        first = run_epidemic(half, RefineSchedule(0, 3, 1e-8))
        s_m, i_m = first.column("S")[-1], first.column("I")[-1]
        second_params = EpidemicParams(
            **{**params.__dict__, "horizon": 0.2, "s0": s_m, "i0": i_m,
               "v0": first.states[-1][1]})
        second = run_epidemic(second_params, RefineSchedule(0, 3, 1e-8))
        du = abs(second.column("S")[-1] - one.column("S")[-1]) \
            + abs(second.column("I")[-1] - one.column("I")[-1])
        dv = l1_distance(second.states[-1][1], one.states[-1][1])
        # single-level tolerance: the splitting gap recorded along the run
        tol = max(max(one.column("refine_gap")), 1e-6)
        assert du + dv <= 5 * tol * len(one.times)

    def test_sample_times_are_whole_macro_steps(self):
        # an accumulated t += 0.02 reads 0.23999999999999996 at step 12
        params = epidemic_params(cells=100, horizon=0.3, macro=0.02)
        run = run_epidemic(params, RefineSchedule(0, 0, math.inf))
        assert run.times == [k * 0.02 for k in range(16)]

    def test_infinite_tol_converges_no_step(self):
        # an infinite tolerance compares no two levels
        params = epidemic_params(cells=100, horizon=0.1, macro=0.02)
        run = run_epidemic(params, RefineSchedule(j0=1, j_max=1,
                                                  tol=math.inf))
        meta = run.meta
        assert (meta["j_max"], meta["macro_steps"]) == (1, 5)
        assert meta["converged_steps"] == 0

    def test_negative_state_warning_not_clamped(self):
        # aggressive vaccination drives S below zero; the run keeps the
        # negative states for the harness to warn about, never clamps them
        p = BvTimeSeries.constant(3.0)
        params = epidemic_params(cells=100, horizon=0.4, macro=0.04,
                                 p_series=p, v0_scale=0.0,
                                 rho_v_scale=0.0)
        params = EpidemicParams(**{**params.__dict__, "s0": 0.2,
                                   "admissible_radius": 4.0})
        run = run_epidemic(params, RefineSchedule(0, 2, 1e-6))
        assert run.column("S")[-1] < 0

    def test_rate_jump_on_a_step_start_read_from_inside(self):
        # the vaccination rate of epidemic.json jumps at t = 0.25, where a
        # macro step starts; a jump one ulp later has the same exact
        # solution, but the step from 0.25 then reads the pre-jump rate in
        # its first RK4 stage, as a solver reading the left limit there would
        cfg = load_config(CONFIG_DIR / "epidemic.json")
        params = epidemic_params_from_config(cfg)
        rate = params.vaccination_rate
        assert rate.times[1] == 0.25
        later = replace(params, vaccination_rate=BvTimeSeries(
            np.array([0.0, math.nextafter(0.25, math.inf)]), rate.vals))
        drift = [_population_drift(run_epidemic(
            p, schedule_from_config(cfg)), p)
            for p in (params, later)]
        assert 4.0 * drift[0] <= drift[1]

    def test_epidemic_age_speed_is_the_constant_one(self):
        coef, inflow = _epidemic_ibvp(epidemic_params(), i_bound=1.0)
        assert coef.velocity == 1.0 and coef.divergence is None
        assert coef.v_sup == inflow.speed_min == 1.0

    @pytest.mark.parametrize("name", ["epidemic.json", "epidemic_sir.json"])
    def test_cohort_certificates_pass_the_audit(self, name):
        # the runner's infective bound is its ODE ball radius
        params = epidemic_params_from_config(load_config(CONFIG_DIR / name))
        ball = 2.0 * (math.hypot(params.s0, params.i0) + 0.5)
        coef, _ = _epidemic_ibvp(params, i_bound=ball)
        for i in (0.0, params.i0, ball):
            worst = audit_coefficients(
                coef, params.v0, np.array([params.s0, i]),
                random.Random(0), t_range=(0.0, params.horizon))
            assert worst <= 0.0


def per_stage_exposure_field(params, field):
    """The epidemic (S, I) field summing the exposure at every call."""
    rho_v = params.vaccinated_infectivity
    rho_s, cell = params.infection_rate, rho_v.cell_volume
    theta, mu = params.recovery_rate, params.mortality_rate

    def f(t, u, cohort):
        exposure = float(np.sum(rho_v.values * cohort.values) * cell)
        s, i = float(u[0]), float(u[1])
        ds = -rho_s * s * i - float(params.vaccination_rate(t))
        di = (rho_s * s + exposure - theta - mu) * i
        return np.array([ds, di])

    return OdeField(f=f, lip=field.lip, sup=field.sup, radius=field.radius)


class TestEpidemicExposure:
    def test_one_exposure_sum_per_solve(self):
        reads = []

        class Cohort(GridFunction):
            def __getattribute__(self, name):
                if name == "values":
                    reads.append(id(self))
                return super().__getattribute__(name)

        params = epidemic_params()
        field = _epidemic_ode_field(params, 4.0, 2.0)
        reference = per_stage_exposure_field(params, field)
        xs = params.v0.axis_centers(0)
        a = Cohort(0.2 * np.exp(-3 * xs), params.v0.origin, params.v0.dx)
        b = Cohort(0.5 * np.cos(xs) ** 2, params.v0.origin, params.v0.dx)
        u0 = np.array([params.s0, params.i0])
        for cohort in (a, b, a, a, b):
            reads.clear()
            got = ode_solve(field, 0.0, 0.1, u0, cohort, n_sub=8)
            assert len(reads) <= 1
            want = ode_solve(reference, 0.0, 0.1, u0, cohort, n_sub=8)
            assert np.array_equal(got, want)
        reads.clear()
        ode_solve(field, 0.0, 0.1, u0, a, n_sub=8)
        assert reads == [id(a)]


class TestEnvelopeMargins:
    """Each margin column is the end-of-step envelope bound minus the
    state's norm, recomputed here from the returned states."""

    @staticmethod
    def assert_columns(traj, fields, norms, bounds):
        assert traj.column("l1") == [f.l1() for f in fields]
        assert traj.column("linf") == [f.linf() for f in fields]
        assert traj.column("tv") == [f.tv() for f in fields]
        for k, name in enumerate(("alpha1_margin", "alphainf_margin",
                                  "alphatv_margin")):
            assert traj.column(name) == [bounds[k] - n[k] for n in norms]

    def test_epidemic_variation_margin_has_boundary_mismatch(self):
        params = epidemic_params(cells=100, horizon=0.2, macro=0.04)
        traj = run_epidemic(params, RefineSchedule(0, 2, 1e-6))
        macro = params.macro_step
        coef, inflow = _epidemic_ibvp(params, i_bound=traj.meta["ball"])
        bounds = ibvp_domain_bounds(macro, traj.meta["radius_v"], macro,
                                    coef, inflow)
        cohorts = [v for _, v in traj.states]
        gaps = [abs(float(params.vaccination_rate(t)) - float(v.values[0]))
                for t, v in zip(traj.times, cohorts)]
        assert min(gaps) > 0.0
        norms = [(v.l1(), v.linf(), v.tv() + g)
                 for v, g in zip(cohorts, gaps)]
        self.assert_columns(traj, cohorts, norms, bounds)

    def test_admissible_pursuit(self):
        params = pursuit_params(dim=1, predator=(0.1,), horizon=0.2,
                                macro=0.1)
        traj = run_predator_prey(params, RefineSchedule(0, 2, 1e-6))
        assert traj.meta["envelope"] == "admissible"
        bounds = ivp_domain_bounds(0.1, traj.meta["radius_rho"], 0.1,
                                   predator_prey_fields(params).prey)
        rhos = [rho for rho, _ in traj.states]
        norms = [(rho.l1(), rho.linf(), rho.tv()) for rho in rhos]
        self.assert_columns(traj, rhos, norms, bounds)

    def test_inadmissible_pursuit_margins_are_nan(self):
        params = pursuit_params(dim=1, predator=(0.1,), horizon=0.2,
                                macro=0.2)
        traj = run_predator_prey(params, RefineSchedule(0, 2, 1e-6))
        assert traj.meta["envelope"] == "inadmissible-at-macro-length"
        for name in ("alpha1_margin", "alphainf_margin", "alphatv_margin"):
            assert all(math.isnan(m) for m in traj.column(name))
        rhos = [rho for rho, _ in traj.states]
        assert traj.column("tv") == [rho.tv() for rho in rhos]
