"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: validation problems exit 2, a run that
fails numerically (divergence, or a violated run-time invariant) exits 3,
I/O failures exit 4.
"""

from __future__ import annotations


class ResoptError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ValidationError(ResoptError):
    """A scenario file, matrix, or parameter violates a documented invariant."""


class AssumptionViolatedError(ValidationError):
    """The graph hypothesis fails: a graph of the family is not
    weight-balanced, or a closed class of the switching chain that it can
    enter has a mirror union of non-positive minimum cut."""


class RegulationError(ValidationError):
    """The regulator equations admit no solution at the requested tolerance."""


class UnboundedObjectiveError(ResoptError):
    """No sign change of the summed gradient was found inside the search range."""


class DivergenceError(ResoptError):
    """A simulated state left the finite range. Carries the abort time and the
    trajectory truncated to the last finite grid point."""

    exit_code = 3

    def __init__(self, time: float, trajectory=None):
        super().__init__(f"state became non-finite or exceeded 1e9 at t={time:.6f}")
        self.time = time
        self.trajectory = trajectory


class InvariantViolatedError(ResoptError):
    """A run-time invariant of the integrator failed: an event-triggered run's
    auxiliary trigger variable stopped being positive.  Carries the time."""

    exit_code = 3

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time
