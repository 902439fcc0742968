"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: configuration problems exit with 2,
mathematical obstructions (non-Morse points, obstructed lifts, degenerate
traces) exit with 3.

Context beyond the message is given by keyword only and read as an
attribute, ``None`` when not given: ``ObstructedError.order``,
``SpectrumError.index`` and ``SubadditivityError.pair``.
"""

from __future__ import annotations


class NovlinkError(Exception):
    """Base class for all library errors."""

    _context: tuple = ()

    def __init__(self, message, **context):
        super().__init__(message)
        for name in self._context:
            setattr(self, name, context.pop(name, None))
        if context:
            raise TypeError(f"unknown error context {', '.join(context)}")


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

    _context = ("order",)


class DegenerateTraceError(NovlinkError):
    """Trace vanishes; the underlying critical point is not Morse."""


class SpectrumError(NovlinkError):
    """Invalid spectrum data or a spectrality violation."""

    _context = ("index",)


class SubadditivityError(NovlinkError):
    """Sequence fails the subadditivity inequality; ``pair`` names (m, n)."""

    _context = ("pair",)


class AreaError(NovlinkError):
    """Link area data violates the monotonicity or consistency constraints."""
