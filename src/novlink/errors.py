"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: configuration problems exit with 2,
mathematical obstructions (non-Morse points, obstructed lifts, degenerate
traces) exit with 3.
"""

from __future__ import annotations


class NovlinkError(Exception):
    """Base class for all library errors."""


class ConfigError(NovlinkError):
    """Malformed configuration, schema violation, or inconsistent input data."""


class PrecisionError(NovlinkError):
    """An operation needs more precision than the inputs carry."""


class NotInvertibleError(NovlinkError):
    """Series is zero modulo its precision and cannot be inverted."""


class InexactDivisionError(NovlinkError):
    """Exact division was requested but the quotient is not a finite series."""


class NonUnitaryError(NovlinkError):
    """A point coordinate is not a unit (valuation zero, invertible lead)."""


class AlgebraMismatchError(NovlinkError):
    """Operands belong to structurally different algebras."""


class SingularMatrixError(NovlinkError):
    """Linear system has no invertible pivot at the available precision."""


class NotZeroDimensionalError(NovlinkError):
    """Leading polynomial system has a positive-dimensional solution set."""


class NonMorseError(NovlinkError):
    """Critical point is degenerate: the leading Hessian is singular."""


class ObstructedError(NovlinkError):
    """Lifting got stuck: the residual at some order cannot be removed.

    ``order`` carries the offending exponent.
    """

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class DegenerateTraceError(NovlinkError):
    """Trace vanishes; the underlying critical point is not Morse."""


class SpectrumError(NovlinkError):
    """Invalid spectrum data or a spectrality violation."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SubadditivityError(NovlinkError):
    """Sequence fails the subadditivity inequality; ``pair`` names (m, n)."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class AreaError(NovlinkError):
    """Link area data violates the monotonicity or consistency constraints."""
