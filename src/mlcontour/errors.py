"""Exception types shared across the package.

Every refusal of an input is a :class:`PreconditionError`, raised once by
the function that checks the condition; a loop spec outside its
admissibility window is the subclass :class:`ContourValidityError`.
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


class IntegrandError(MlcError, ArithmeticError):
    """The integrand produced a non-finite sample; the segment is aborted."""
