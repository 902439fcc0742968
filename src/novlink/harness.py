"""Scan driver: sweeps link families over k and tabulates the asymptotics.

``weyl_scan`` builds one chain link per ``k`` from an area schedule, lifts
its critical point, and reports the trace valuation per row; the
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
from .linkfam import BulkParameter, CircleLinkS2, critical_data
from .novikov import _parse_json_int, _parse_json_number, as_fraction
from .symprodqh import SYMK_K_LIMIT, symk_idempotents


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
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "annulus_ratio",
                           as_fraction(self.annulus_ratio))
        if self.total_area is not None:
            object.__setattr__(self, "total_area",
                               as_fraction(self.total_area))
        if self.kind not in ("power", "constant", "power_fixed_total"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "power_fixed_total" and self.total_area is None:
            raise ConfigError("power_fixed_total needs total_area")
        if not (0 < self.annulus_ratio < 1):
            raise ConfigError("annulus_ratio must lie in (0, 1)")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")

    def disc_area(self, k: int) -> Fraction:
        if self.kind == "constant":
            return self.beta
        if k + self.shift == 0:
            raise ConfigError(f"k = {k} has k + shift = 0 (shift = "
                              f"{self.shift}), where the disc area "
                              f"beta / (k + shift)^power is undefined")
        return self.beta / Fraction(k + self.shift) ** self.power

    def link(self, k: int) -> CircleLinkS2:
        B = self.disc_area(k)
        if self.kind == "power_fixed_total":
            if k == 1:
                A = B * self.annulus_ratio
                if self.total_area != 2 * B:
                    raise AreaError(f"schedule violates the area constraint "
                                    f"at k = {k}")
            else:
                A = (self.total_area - 2 * B) / (k - 1)
            if not (0 < A < B):
                raise AreaError(f"schedule violates A < B at k = {k}")
            return CircleLinkS2(k, A, B)
        A = B * self.annulus_ratio
        return CircleLinkS2(k, A, B)

    @classmethod
    def from_obj(cls, obj) -> "AreaSchedule":
        """Parse a schedule object.

        ``beta``, ``annulus_ratio`` and ``total_area`` must be JSON integers
        or ``"p/q"`` strings, ``power`` and ``shift`` JSON integers; anything
        else raises ``ConfigError``.
        """
        if not isinstance(obj, dict):
            raise ConfigError(f"schedule must be an object, got {obj!r}")
        return cls(
            kind=obj.get("type", "power"),
            beta=_rational(obj.get("beta", 1), "beta"),
            power=obj.get("power", 2),
            shift=obj.get("shift", 2),
            annulus_ratio=_rational(obj.get("annulus_ratio", "1/2"),
                                    "annulus_ratio"),
            total_area=(_rational(obj["total_area"], "total_area")
                        if "total_area" in obj else None),
        )


@dataclass(frozen=True)
class ScanConfig:
    """Sweep settings shared by the scan subcommands."""

    k_range: Tuple[int, int]
    schedule: AreaSchedule = field(default_factory=AreaSchedule)
    c0: Fraction = Fraction(1)
    output_format: str = "csv"

    def __post_init__(self):
        lo, hi = (_parse_json_int(x, "k_range entry") for x in self.k_range)
        if lo < 1 or hi < lo:
            raise ConfigError("k_range must satisfy 1 <= lo <= hi")
        object.__setattr__(self, "k_range", (lo, hi))
        if lo <= -self.schedule.shift <= hi:
            self.schedule.disc_area(-self.schedule.shift)  # refuses 0
        object.__setattr__(self, "c0", as_fraction(self.c0))
        if self.c0 == 0:
            raise ConfigError("c0 must be nonzero")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format must be csv or json")

    @classmethod
    def from_obj(cls, obj) -> "ScanConfig":
        """Parse a scan config: ``k_range`` is two JSON integers, ``c0`` a
        JSON integer or ``"p/q"`` string."""
        k_range = obj.get("k_range") if isinstance(obj, dict) else None
        if not (isinstance(k_range, list) and len(k_range) == 2):
            raise ConfigError("config needs k_range: [lo, hi]")
        return cls(
            k_range=tuple(k_range),
            schedule=AreaSchedule.from_obj(obj.get("schedule", {})),
            c0=_rational(obj.get("c0", 1), "c0"),
            output_format=obj.get("output_format", "csv"),
        )


def _rational(x, what: str) -> Fraction:
    return _parse_json_number(x, what, as_fraction)


WEYL_COLUMNS = ("k", "A", "B", "val_Z", "val_Z_over_k", "defect_bound")
NOBULK_COLUMNS = ("k", "idempotent_count", "val_e", "val_e_over_k")


def weyl_scan(cfg: ScanConfig) -> List[Dict[str, object]]:
    """One row per ``k``: areas, trace valuation and defect bound.

    Each row lifts the chain critical point, rebuilds the Clifford algebra
    from the evaluated Hessian, and reports ``val_Z`` from the trace; the
    determinant route must agree and is asserted on every row.  The chain
    Hessian at ``k`` has ``k`` rows, so a range reaching above
    ``TRACE_N_LIMIT`` raises ``ConfigError`` before any row is computed.
    """
    lo, hi = cfg.k_range
    if hi > cliffordtrace.TRACE_N_LIMIT:
        raise ConfigError(f"k = {hi} is above the limit TRACE_N_LIMIT = "
                          f"{cliffordtrace.TRACE_N_LIMIT}")
    rows = []
    for k in range(lo, hi + 1):
        link = cfg.schedule.link(k)
        bulk = BulkParameter(cfg.c0)
        cert = critical_data(link, bulk)
        if not cert.morse:
            raise AreaError(f"lift at k = {k} is not Morse: {cert.reason}")
        Z = cliffordtrace.trace_Z(
            cliffordtrace.CliffordAlgebraModel(cert.hessian))
        val_z = Z.valuation()
        det_val = cert.hessian_det.valuation()
        if val_z != det_val:
            raise AreaError(f"trace/determinant valuation mismatch at "
                            f"k = {k}: {val_z} vs {det_val}")
        rows.append({
            "k": k,
            "A": link.A,
            "B": link.B,
            "val_Z": val_z,
            "val_Z_over_k": val_z / k,
            "defect_bound": cliffordtrace.defect_bound(Z),
        })
    return rows


def nobulk_scan(k_range: Tuple[int, int], omega) -> List[Dict[str, object]]:
    """One row per ``k``: idempotent count and (normalized) valuation.

    Empty ranges give empty tables.  The valuations are read off the
    computed idempotents, not the closed formula, and must all agree.  A
    range reaching above ``SYMK_K_LIMIT`` raises ``ConfigError`` before any
    row is computed.
    """
    omega = as_fraction(omega)
    lo, hi = k_range
    if hi > SYMK_K_LIMIT:
        raise ConfigError(f"k = {hi} is above the limit SYMK_K_LIMIT = "
                          f"{SYMK_K_LIMIT}")
    rows = []
    for k in range(lo, hi + 1):
        idems = symk_idempotents(k, omega)
        vals = {e.valuation() for e in idems}
        if len(vals) != 1:
            raise ConfigError(f"idempotent valuations differ at k = {k}")
        val_e = vals.pop()
        rows.append({
            "k": k,
            "idempotent_count": len(idems),
            "val_e": val_e,
            "val_e_over_k": val_e / k,
        })
    return rows


def rows_to_csv(rows: List[Dict[str, object]],
                columns: Tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([str(row[c]) for c in columns])
    return buf.getvalue()


def rows_to_json(rows: List[Dict[str, object]],
                 columns: Tuple[str, ...]) -> str:
    out = [{c: str(row[c]) for c in columns} for row in rows]
    return json.dumps(out, indent=2) + "\n"


def render_rows(rows, columns, output_format: str) -> str:
    if output_format == "csv":
        return rows_to_csv(rows, columns)
    if output_format == "json":
        return rows_to_json(rows, columns)
    raise ConfigError("output_format must be csv or json")
