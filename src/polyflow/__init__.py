"""Coupling well-posed evolution solvers through polygonal time stepping.

Two parametrized solution operators on metric spaces are paired into a
product-space flow by freezing each one's parameter over a short step;
dyadic refinement of the step recovers the coupled solution operator with
explicit stability and tangency bounds.  Shipped component solvers: ODE
(RK4), renewal/continuity transport on characteristics, inflow boundary
balance law, scalar conservation law (Godunov), and an atomic-measure
balance law; plus two assembled applications (pursuit, staged vaccination).
"""

from .claw import (ParamFlux, claw_constants, claw_solve, claw_solve_many,
                   entropy_residuals, godunov_flux)
from .errors import (ClearanceViolated, ConfigError, DomainExit,
                     GridMismatch, HorizonExceeded, InadmissibleHorizon,
                     KernelOutOfBox, MassBlowup, NegativeRadius, NoCrossing,
                     PolyflowError, StepTooLarge, SupportClearanceViolated,
                     UndefinedBoundaryDatum)
from .ibvp import (InflowBoundary, boundary_crossing_time,
                   ibvp_domain_bounds, ibvp_lipschitz_constants, ibvp_solve,
                   make_ibvp_process)
from .measures import (MeasureCoefficients, measure_domain_bound,
                       measure_step, weak_residual)
from .metric import (CouplingBounds, EuclideanSpace, GridFunctionSpace,
                     LocalFlow, MetricSpace, Process, ProcessConstants,
                     ProductSpace, RefinementResult, couple, coupling_bounds,
                     euler_polygonal, merge_constants, refine_to_process)
from .ode import (OdeField, make_ode_process, ode_constants,
                  ode_domain_radius, ode_solve)
from .renewal import (RenewalCoefficients, characteristic,
                      ivp_domain_bounds, ivp_lipschitz_constants,
                      make_renewal_process, renewal_solve)
from .scenarios import (EpidemicParams, EpidemicRun, PredatorPreyParams,
                        RefineSchedule, epidemic_cohort_reference,
                        predator_prey_fields, run_epidemic,
                        run_predator_prey)
from .spaces import (AtomicMeasure, BvTimeSeries, GridFunction,
                     bv_estimate_checks, flat_distance, l1_distance,
                     total_variation)
from .trajectory import Trajectory

__version__ = "0.1.0"
