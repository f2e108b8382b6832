"""Exception types shared across the package."""

from __future__ import annotations


class PolyflowError(Exception):
    """Base class for all package errors."""


class DomainExit(PolyflowError):
    """A trajectory left its admissible domain.

    Attributes:
        step: index of the failing step within the composition (0-based).
        time: time at which the state was found outside its domain.
        component: component tag when raised inside a coupled flow ("u" or "w").
    """

    def __init__(self, message: str, step: int = 0, time: float | None = None,
                 component: str | None = None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.component = component


class StepTooLarge(PolyflowError):
    """Polygonal step exceeds the local flow's maximal step."""


class HorizonExceeded(PolyflowError):
    """A solve longer than the handle's horizon."""


class NegativeRadius(PolyflowError):
    """Invariant-ball configuration leaves no admissible radius."""


class InadmissibleHorizon(PolyflowError):
    """Domain envelope turns non-positive for the configured radius/horizon."""


class GridMismatch(PolyflowError):
    """Two grid functions live on different grids."""


class SupportClearanceViolated(PolyflowError):
    """Initial datum support too close to the truncation box edge."""


class ClearanceViolated(SupportClearanceViolated):
    """Conservation-law datum not constant on the required edge collar."""


class NoCrossing(PolyflowError):
    """Backward characteristic exits through the initial time, not the boundary."""


class UndefinedBoundaryDatum(PolyflowError):
    """Boundary series cannot be evaluated on the requested interval."""


class MassBlowup(PolyflowError):
    """Measure mass exceeded the configured radius."""


class KernelOutOfBox(PolyflowError):
    """Interaction kernel support does not fit the truncation box."""


class ConfigError(PolyflowError):
    """Invalid harness configuration; message names the offending field."""
