"""Exception types shared across the package.

A route that does not answer either refuses its input with a
:class:`PreconditionError`, raised once by the function that checks it
(:class:`ContourValidityError` for a loop spec outside its window), or fails
with a :class:`ConvergenceError` when the numerics miss the tolerance
(:class:`IntegrandError` for a non-finite integrand or an untruncatable ray).
"""

from __future__ import annotations


class MlcError(Exception):
    """Base class for all mlcontour errors."""


class PreconditionError(MlcError, ValueError):
    """An input lies outside the domain of the function called with it."""


class ContourValidityError(PreconditionError):
    """A contour specification violates its admissibility window.

    ``violations`` holds every violated constraint, each a
    :class:`~mlcontour.geometry.Violation` with its distance to the
    admissible region.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        details = "; ".join(
            f"{v.constraint} (distance {v.distance:.3g})" for v in self.violations
        )
        super().__init__(f"contour specification is not admissible: {details}")


class ConvergenceError(MlcError, RuntimeError):
    """The quadrature (or series) failed to reach the requested tolerance."""


class IntegrandError(ConvergenceError):
    """The integrand is not finite, or its ray cannot be truncated."""
