"""Action-spectrum enumeration, homogenized limits and rigidity checks.

Model orbit data is a finite list of exact rationals: the action each
primitive orbit class contributes per unit period.  A total period budget
``k`` is split into positive integer periods assigned to classes, so the
base value set is all sums of ``k`` class values with repetition.  The
full spectrum translates the base set by the discrete group generated by
``pi_generator`` and intersects a window; everything stays exact.

The homogenized limit of a subadditive sequence exists by the standard
minimum-over-prefixes argument; the estimator returns the running minimum
of ``c_m / m`` together with the bracket ``[min, c_M / M]``.

Rigidity: a path sampled with steps below the spectrum's minimal gap,
taking values inside the spectrum, cannot move; any change between
consecutive samples is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import ConfigError, SpectrumError, SubadditivityError
from .novikov import as_fraction


@dataclass(frozen=True)
class ModelOrbitSet:
    """Deduplicated, sorted list of per-period orbit actions."""

    values: Tuple[Fraction, ...]

    def __init__(self, values: Sequence):
        vals = tuple(sorted({as_fraction(v) for v in values}))
        object.__setattr__(self, "values", vals)

    def merged(self, other: "ModelOrbitSet") -> "ModelOrbitSet":
        return ModelOrbitSet(self.values + other.values)


@dataclass(frozen=True)
class SpectrumConfig:
    """Total period ``k``, lattice generator and enumeration window."""

    k: int
    pi_generator: Fraction
    window: Tuple[Fraction, Fraction]

    def __init__(self, k: int, pi_generator, window):
        if k < 1:
            raise ConfigError("k must be a positive integer")
        pi_generator = as_fraction(pi_generator)
        if pi_generator <= 0:
            raise ConfigError("pi_generator must be positive")
        lo, hi = (as_fraction(window[0]), as_fraction(window[1]))
        if lo > hi:
            raise ConfigError("window must satisfy lo <= hi")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "pi_generator", pi_generator)
        object.__setattr__(self, "window", (lo, hi))


def enumerate_spectrum(orbits: ModelOrbitSet,
                       cfg: SpectrumConfig) -> List[Fraction]:
    """Exact sorted spectrum inside the window.

    Base sums are built by a period-budget dynamic program; each base
    value is then translated by every lattice multiple landing in the
    window.
    """
    if not orbits.values:
        raise SpectrumError("no orbits: spectrum undefined for autonomous "
                            "model")
    sums = {Fraction(0)}
    for _ in range(cfg.k):
        sums = {s + v for s in sums for v in orbits.values}
    lo, hi = cfg.window
    g = cfg.pi_generator
    out = set()
    for base in sums:
        n_lo = math.ceil((lo - base) / g)
        n_hi = math.floor((hi - base) / g)
        for n in range(n_lo, n_hi + 1):
            out.add(base + n * g)
    return sorted(out)


def fekete_homogenize(c_values: Sequence) -> Tuple[Fraction,
                                                   Tuple[Fraction, Fraction]]:
    """Estimate the per-step limit of a subadditive sequence.

    ``c_values[i]`` is the value at index ``m = i + 1``.  Subadditivity
    ``c_{m+n} <= c_m + c_n`` is checked exhaustively first; a violation
    raises with the offending pair.  Returns ``(estimate, bracket)`` with
    ``estimate = min_m c_m / m`` and ``bracket = (estimate, c_M / M)``.
    """
    c = [as_fraction(v) for v in c_values]
    M = len(c)
    if M == 0:
        raise ConfigError("need at least one sequence value")

    def cv(m):
        return c[m - 1]

    for m in range(1, M + 1):
        for n in range(m, M - m + 1):
            if cv(m + n) > cv(m) + cv(n):
                raise SubadditivityError(
                    f"subadditivity violated at (m, n) = ({m}, {n}): "
                    f"c_{m + n} > c_{m} + c_{n}", pair=(m, n))

    ratios = [cv(m) / m for m in range(1, M + 1)]
    estimate = min(ratios)
    return estimate, (estimate, cv(M) / M)


@dataclass(frozen=True)
class RigidityResult:
    """Either a constant path, or the first sample index that moved."""

    constant: bool
    violation_index: Optional[int] = None


def spectrum_gap(spectrum: Sequence[Fraction]) -> Optional[Fraction]:
    """Minimal distance between distinct consecutive spectrum points."""
    pts = sorted({as_fraction(x) for x in spectrum})
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    return min(gaps) if gaps else None


def rigidity_check(spectrum: Sequence, path_samples: Sequence,
                   step_bound) -> RigidityResult:
    """Confinement test for a sampled path inside a gapped spectrum.

    Preconditions: the spectrum's minimal gap exceeds ``step_bound`` and
    every sample belongs to the spectrum.  A continuous path moving less
    than ``step_bound`` per sample cannot jump between spectrum points, so
    any consecutive difference is reported as a violation.
    """
    step_bound = as_fraction(step_bound)
    pts = sorted({as_fraction(x) for x in spectrum})
    gap = spectrum_gap(pts)
    if gap is not None and gap <= step_bound:
        raise SpectrumError("insufficient separation")
    samples = [as_fraction(s) for s in path_samples]
    members = set(pts)
    for i, s in enumerate(samples):
        if s not in members:
            raise SpectrumError(f"spectrality violated at index {i}",
                                index=i)
    for i in range(1, len(samples)):
        if samples[i] != samples[i - 1]:
            return RigidityResult(constant=False, violation_index=i)
    return RigidityResult(constant=True)
