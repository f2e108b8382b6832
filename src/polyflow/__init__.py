"""Coupling well-posed evolution solvers through polygonal time stepping.

Two parametrized solution operators on metric spaces are paired into a
product-space flow by freezing each one's parameter over a short step;
dyadic refinement of the step recovers the coupled solution operator with
explicit stability and tangency bounds.  Shipped component solvers: ODE
(RK4), renewal/continuity transport on characteristics, inflow boundary
balance law, scalar conservation law (Godunov), and an atomic-measure
balance law; plus two assembled applications (pursuit, staged vaccination).

Importing the package imports no solver: each exported name is imported
from its defining module the first time it is read (PEP 562), so a command
compiles only the modules it runs.
"""

from ._lazy import forwarder as _forwarder

_EXPORTS = {
    "claw": ("ParamFlux", "claw_constants", "claw_solve_many",
             "entropy_residuals", "godunov_flux"),
    "errors": ("ClearanceViolated", "ConfigError", "DomainExit",
               "GridMismatch", "HorizonExceeded", "InadmissibleHorizon",
               "KernelOutOfBox", "MassBlowup", "NegativeRadius", "NoCrossing",
               "PolyflowError", "StepTooLarge", "SupportClearanceViolated",
               "UndefinedBoundaryDatum"),
    "ibvp": ("InflowBoundary", "boundary_crossing_time", "ibvp_domain_bounds",
             "ibvp_lipschitz_constants", "ibvp_solve", "make_ibvp_process"),
    "measures": ("AtomicMeasure", "MeasureCoefficients", "flat_distance",
                 "measure_domain_bound", "measure_step", "weak_residual"),
    "metric": ("CouplingBounds", "LocalFlow", "Process", "ProcessConstants",
               "RefineSchedule", "RefinementResult", "couple",
               "coupling_bounds", "euler_polygonal", "merge_constants",
               "product_distance", "refine_to_process"),
    "ode": ("OdeField", "make_ode_process", "ode_constants",
            "ode_domain_radius", "ode_solve"),
    "renewal": ("RenewalCoefficients", "characteristic", "ivp_domain_bounds",
                "ivp_lipschitz_constants", "make_renewal_process",
                "renewal_solve"),
    "epidemic": ("EpidemicParams", "epidemic_cohort_reference",
                 "run_epidemic"),
    "pursuit": ("PredatorPreyParams", "predator_prey_fields",
                "run_predator_prey"),
    "spaces": ("BvTimeSeries", "GridFunction", "euclidean_distance",
               "l1_distance", "total_variation"),
    "suites": ("bv_estimate_checks",),
    "trajectory": ("Trajectory",),
}
_HOMES = {name: module for module, names in _EXPORTS.items()
          for name in names}
__all__ = sorted(_HOMES)
__version__ = "0.1.0"

__getattr__ = _forwarder(__name__, _HOMES)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
