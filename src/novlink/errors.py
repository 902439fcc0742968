"""Exception hierarchy shared across the library.

Each class carries the CLI's outcome for it: ``exit_code`` and the
``label`` that leads its stderr line.  A library error exits with 2, and a
mathematical obstruction (an ``Obstruction``: non-Morse points, obstructed
lifts, degenerate traces) exits with 3.

Context beyond the message is given by keyword only and read as an
attribute, ``None`` when not given: ``NotZeroDimensionalError.variables``,
``ObstructedError.order``, ``SpectrumError.index`` and
``SubadditivityError.pair``.
"""

from __future__ import annotations


class NovlinkError(Exception):
    """Base class for all library errors."""

    exit_code = 2
    label = "error"
    _context: tuple = ()

    def __init__(self, message, **context):
        super().__init__(message)
        for name in self._context:
            setattr(self, name, context.pop(name, None))
        if context:
            raise TypeError(f"unknown error context {', '.join(context)}")


class ConfigError(NovlinkError):
    """Malformed configuration, schema violation, or inconsistent input data."""

    label = "config error"


class Obstruction(NovlinkError):
    """Well-formed input for which no answer of the kind asked for exists."""

    exit_code = 3
    label = "obstruction"


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


class NotZeroDimensionalError(Obstruction):
    """Leading polynomial system has a positive-dimensional solution set.

    ``variables`` names the variables of its positive-dimensional blocks,
    in increasing order, such as ``("z2", "z3")``.
    """

    _context = ("variables",)


class NonMorseError(Obstruction):
    """Critical point is degenerate: the leading Hessian is singular."""


class ObstructedError(Obstruction):
    """Lifting got stuck: the residual at some order cannot be removed.

    ``order`` carries the offending exponent.
    """

    _context = ("order",)


class DegenerateTraceError(Obstruction):
    """Trace vanishes; the underlying critical point is not Morse."""


class SpectrumError(Obstruction):
    """Invalid spectrum data or a spectrality violation."""

    _context = ("index",)


class SubadditivityError(NovlinkError):
    """Sequence fails the subadditivity inequality; ``pair`` names (m, n)."""

    _context = ("pair",)


class AreaError(Obstruction):
    """Link area data violates the monotonicity or consistency constraints."""
