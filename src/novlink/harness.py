"""Scan driver: sweeps link families over k and tabulates the asymptotics.

``weyl_scan`` builds one chain link per ``k`` from an area schedule,
certifies its critical point, and reports the trace valuation per row; the
normalized column ``val_Z / k`` equals the disc area exactly, so a
schedule with shrinking discs exhibits the sublinear growth and a constant
schedule exhibits its failure.  ``nobulk_scan`` tabulates the counter
column: idempotent valuations of the undeformed symmetric algebra, whose
normalized valuation is pinned at ``-omega/2``.

All table entries are exact rationals rendered as ``p/q`` strings;
identical configurations produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import cliffordtrace
from .errors import AreaError, ConfigError
from .linkfam import BulkParameter, CircleLinkS2, _critical_data
from .novikov import (
    _echo,
    _json_fields,
    _pair,
    _parse_json_int,
    _positive_fraction,
    _text,
    as_fraction,
)
from .symprodqh import _idempotent_columns


#: Most digits of ``(k + shift)^|power|``, counted as ``|power|`` times
#: the digits of ``|k + shift|``, that a disc area is built with.  Python
#: prints no integer of more than 4 300 digits by default, and a one-row
#: scan at ``power`` 10**9, which builds ``Fraction(3) ** 10**9``, had not
#: finished after 5 s (Python 3.11, 2-core x86-64).
DISC_DIGIT_LIMIT = 1000


@dataclass(frozen=True)
class AreaSchedule:
    """Rule producing the disc and annulus areas for each ``k``.

    Kinds:

    * ``power``: ``B_k = beta / (k + shift)^p``; the annulus area defaults
      to half the disc area and the sphere area is derived per ``k`` from
      the region sum ``(k-1) A + 2 B``.
    * ``constant``: ``B_k = beta`` with the same annulus convention.
    * ``power_fixed_total``: same disc rule, but the annulus area is forced
      by a fixed total area; ``AreaError`` names the first ``k`` where the
      forced annuli stop being smaller than the discs.

    A fixed total is incompatible with fast-shrinking discs: once
    ``B_k < total/(k+1)`` the leftover annuli are wider than the discs, so
    the derived-total kinds are the ones usable for long sweeps.
    """

    kind: str = "power"
    beta: Fraction = Fraction(1)
    power: int = 2
    shift: int = 2
    annulus_ratio: Fraction = Fraction(1, 2)
    total_area: Optional[Fraction] = None

    def __post_init__(self):
        _parse_json_int(self.power, "power")
        _parse_json_int(self.shift, "shift")
        object.__setattr__(self, "beta", _positive_fraction(self.beta, "beta"))
        object.__setattr__(self, "annulus_ratio",
                           as_fraction(self.annulus_ratio, "annulus_ratio"))
        if self.total_area is not None:
            object.__setattr__(self, "total_area",
                               as_fraction(self.total_area, "total_area"))
        if self.kind not in ("power", "constant", "power_fixed_total"):
            raise ConfigError(f"unknown schedule kind {_echo(self.kind)}")
        if self.kind == "power_fixed_total" and self.total_area is None:
            raise ConfigError("power_fixed_total needs total_area")
        if not (0 < self.annulus_ratio < 1):
            raise ConfigError("annulus_ratio must lie in (0, 1)")

    def disc_area(self, k: int) -> Fraction:
        """``B_k``.  A ``k + shift`` of 0, or one whose ``|power|``-th
        power has more than ``DISC_DIGIT_LIMIT`` digits, raises
        ``ConfigError`` before it is built."""
        if self.kind == "constant":
            return self.beta
        n = k + self.shift
        if n == 0:
            raise ConfigError(f"k = {k} has k + shift = 0 (shift = "
                              f"{self.shift}), where the disc area "
                              f"beta / (k + shift)^power is undefined")
        if abs(self.power) * len(_text(abs(n))) > DISC_DIGIT_LIMIT:
            raise ConfigError(f"at k = {k}, |power| times the digits of "
                              f"k + shift is above DISC_DIGIT_LIMIT = "
                              f"{DISC_DIGIT_LIMIT}")
        return self.beta / Fraction(n) ** self.power

    def link(self, k: int) -> CircleLinkS2:
        B = self.disc_area(k)
        A = B * self.annulus_ratio
        if self.kind == "power_fixed_total":
            if k > 1:
                A = (self.total_area - 2 * B) / (k - 1)
            elif self.total_area != 2 * B:
                raise AreaError(f"schedule violates the area constraint "
                                f"at k = {k}")
        return CircleLinkS2(k, A, B)

    @classmethod
    def from_obj(cls, obj) -> "AreaSchedule":
        """Parse a schedule object: the fields by name, ``kind`` as
        ``type``, a missing one at its default.

        ``beta``, ``annulus_ratio`` and ``total_area`` must be JSON integers
        or ``"p/q"`` strings, ``power`` and ``shift`` JSON integers; anything
        else, or an unknown key, raises ``ConfigError``.
        """
        fields = _json_fields(obj, "schedule must be an object", optional=(
            "type", "beta", "power", "shift", "annulus_ratio", "total_area"))
        if "type" in fields:
            fields["kind"] = fields.pop("type")
        return cls(**fields)


@dataclass(frozen=True)
class ScanConfig:
    """Sweep settings of ``scan weyl``.  ``k_range`` has no usable
    default: a missing one raises ``ConfigError``."""

    k_range: Optional[Tuple[int, int]] = None
    schedule: AreaSchedule = field(default_factory=AreaSchedule)
    c0: Fraction = Fraction(1)
    output_format: str = "csv"

    def __post_init__(self):
        lo, hi = _pair(self.k_range, "k_range", _parse_json_int)
        if lo < 1 or hi < lo:
            raise ConfigError("k_range must satisfy 1 <= lo <= hi")
        object.__setattr__(self, "k_range", (lo, hi))
        shift = self.schedule.shift
        if lo <= -shift <= hi:
            self.schedule.disc_area(-shift)  # refuses 0
        # The largest |k + shift| makes the disc area of the most digits.
        self.schedule.disc_area(max(lo, hi, key=lambda k: abs(k + shift)))
        object.__setattr__(self, "c0", BulkParameter(self.c0).c0)
        _output_format(self.output_format)

    @classmethod
    def from_obj(cls, obj) -> "ScanConfig":
        """Parse a scan config object: the fields by name, a missing one at
        its default.  ``k_range`` is two JSON integers, ``c0`` a JSON
        integer or ``"p/q"`` string; an unknown key raises
        ``ConfigError``."""
        fields = _json_fields(obj, "a scan config must be an object",
                              optional=("k_range", "schedule", "c0",
                                        "output_format"))
        if "schedule" in fields:
            fields["schedule"] = AreaSchedule.from_obj(fields["schedule"])
        return cls(**fields)


#: The table formats ``render_rows`` writes.
OUTPUT_FORMATS = ("csv", "json")
WEYL_COLUMNS = ("k", "A", "B", "val_Z", "val_Z_over_k", "defect_bound")
NOBULK_COLUMNS = ("k", "idempotent_count", "val_e", "val_e_over_k")


#: Largest ``k`` a ``weyl_scan`` row is computed for.  The chain Hessian
#: is diagonal, so its trace and determinant factor into ``k`` one-entry
#: components, and a row's cost grows about as ``k^2`` (the Hessian's
#: entries): a row took 0.005 s at ``k = 64``, 0.017 s at 160 and 0.085 s
#: at 384 (in-process medians), under Python 3.11 on a 2-core x86-64
#: machine.
WEYL_K_LIMIT = 160


def weyl_scan(cfg: ScanConfig) -> List[Dict[str, object]]:
    """One row per ``k``: areas, trace valuation and defect bound.

    Each row certifies the chain critical point, traces the certified
    Hessian form itself (``cliffordtrace.trace_Z``'s kernel on the blocks
    the certificate read, so ``laurent._square`` reads each Hessian once;
    no algebra object is built), and reports ``val_Z`` from the trace
    (``defect_bound``).
    ``trace check``'s verdict checks every row: a trace whose valuation or
    leading coefficient is not the determinant's raises ``AreaError``
    naming ``k``.  A trace or determinant known only as ``O(T^p)`` raises
    ``PrecisionError``, a zero trace ``DegenerateTraceError``, and a range
    above ``WEYL_K_LIMIT`` ``ConfigError`` before any row is computed.
    """
    lo, hi = cfg.k_range
    if hi > WEYL_K_LIMIT:
        raise ConfigError(f"k = {hi} is above the limit WEYL_K_LIMIT = "
                          f"{WEYL_K_LIMIT}")
    bulk = BulkParameter(cfg.c0)
    rows = []
    for k in range(lo, hi + 1):
        link = cfg.schedule.link(k)
        cert, blocks = _critical_data(link, bulk)
        if not cert.morse:
            raise AreaError(f"critical point at k = {k} is not Morse: {cert.reason}")
        Z = cliffordtrace._trace(cert.hessian, blocks)
        val_z = cliffordtrace.defect_bound(Z)
        if not cliffordtrace._leading_terms_match(Z, cert.hessian_det):
            raise AreaError(f"trace and det leading terms differ at k = {k}")
        rows.append({
            "k": k,
            "A": link.A,
            "B": link.B,
            "val_Z": val_z,
            "val_Z_over_k": val_z / k,
            "defect_bound": val_z,
        })
    return rows


def nobulk_scan(k_range: Tuple[int, int], omega) -> List[Dict[str, object]]:
    """One row per ``k``: idempotent count and (normalized) valuation.

    ``k_range`` holds two JSON integers ``(lo, hi)``.  A range with
    ``hi < lo`` is empty and gives an empty table, whatever ``lo``; a
    ``lo`` below 1 raises ``ConfigError`` only in a range that is not
    empty.  The valuations are read off the integer Krawtchouk columns
    that ``symk_idempotents`` wraps into series
    (``symprodqh._idempotent_columns``), not the closed formula, and must
    all agree; no series is built.  An ``omega`` that is not positive, or a
    range reaching above ``SYMK_K_LIMIT``, raises ``ConfigError`` before
    any row is computed, an empty range's ``omega`` included.
    """
    lo, hi = _pair(k_range, "k_range", _parse_json_int)
    # The top k first, so a bad omega or a k above SYMK_K_LIMIT is refused
    # before any row (max(hi, 1): an empty range's omega too); its columns
    # make the last row, so no table is built twice.
    top = max(hi, 1)
    checked = _idempotent_columns(top, omega)
    omega = checked[0]
    rows = []
    for k in range(lo, hi + 1):
        _, step, cols = checked if k == top else _idempotent_columns(k, omega)
        tops = {max(w for w, a in enumerate(col) if a) for col in cols}
        if len(tops) != 1:
            raise ConfigError(f"idempotent valuations differ at k = {k}")
        val_e = step * tops.pop()
        rows.append({
            "k": k,
            "idempotent_count": len(cols),
            "val_e": val_e,
            "val_e_over_k": val_e / k,
        })
    return rows


def _output_format(x) -> str:
    """``x`` if it is one of ``OUTPUT_FORMATS``, else ``ConfigError``."""
    if x in OUTPUT_FORMATS:
        return x
    raise ConfigError(f"output_format must be {' or '.join(OUTPUT_FORMATS)}")


def render_rows(rows: List[Dict[str, object]], columns: Tuple[str, ...],
                output_format: str) -> str:
    """The table as CSV with a header row or as a JSON list of objects,
    every entry rendered with ``novikov._text``, so one past Python's print
    limit is a ``ConfigError``, as another format is."""
    if _output_format(output_format) == "json":
        out = [{c: _text(row[c]) for c in columns} for row in rows]
        return json.dumps(out, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_text(row[c]) for c in columns])
    return buf.getvalue()
