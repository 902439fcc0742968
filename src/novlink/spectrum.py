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
from .novikov import (_iterable, _json_array, _pair, _positive_fraction,
                      _positive_int, _text, as_fraction)

#: Most spectrum points ``enumerate_spectrum`` may have to build.
SPECTRUM_POINT_LIMIT = 10 ** 6


@dataclass(frozen=True)
class ModelOrbitSet:
    """Deduplicated, sorted list of per-period orbit actions.

    ``values`` must be a list or tuple (``novikov._json_array``); anything
    else, a set or a string included, raises ``ConfigError``.
    """

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        values = _json_array(self.values, "values must be a list of rationals")
        object.__setattr__(self, "values", tuple(
            sorted({as_fraction(v, "values") for v in values})))


@dataclass(frozen=True)
class SpectrumConfig:
    """Total period ``k``, lattice generator and enumeration window.

    ``window`` must be a list or tuple ``(lo, hi)`` of rationals; anything
    else raises ``ConfigError``.
    """

    k: int
    pi_generator: Fraction
    window: Tuple[Fraction, Fraction]

    def __post_init__(self):
        _positive_int(self.k, "k")
        object.__setattr__(self, "pi_generator", _positive_fraction(
            self.pi_generator, "pi_generator"))
        lo, hi = _pair(self.window, "window", as_fraction)
        if lo > hi:
            raise ConfigError("window must satisfy lo <= hi")
        object.__setattr__(self, "window", (lo, hi))


def enumerate_spectrum(orbits: ModelOrbitSet,
                       cfg: SpectrumConfig) -> List[Fraction]:
    """Exact sorted spectrum inside the window.

    Everything runs on integers scaled by the least common denominator
    ``D`` of the values, the generator and the window.  A sum of exactly
    ``k`` values is ``k v_min`` plus a sum of at most ``k`` of the
    differences ``d_i = v_i - v_min > 0``; ``_shifted_sums`` builds those,
    one difference at a time.  A point ``x`` of the window is in the
    spectrum exactly when ``x - L`` is, modulo ``G``, the residue of some
    sum (``L``, ``G`` the scaled window start and generator), so the
    points are ``L + j G + r`` over the distinct residues ``r``, emitted in
    order with no sort.

    The ``C(k + n - 1, n - 1)`` multisets of ``k`` of the ``n`` values,
    each with at most ``floor((hi - lo)/g) + 1`` translates in the window,
    bound the output.  The sums take at most ``C(k + n - 1, n - 1) - 1``
    steps, one per multiset of at most ``k`` differences that uses one, so
    below the refused ``k C(k + n - 1, n - 1)``.  A request whose points
    or that ``k C(k + n - 1, n - 1)`` exceed ``SPECTRUM_POINT_LIMIT``
    raises ``ConfigError`` before any of the work.
    """
    if not orbits.values:
        raise SpectrumError("no orbits: spectrum undefined for autonomous "
                            "model")
    lo, hi = cfg.window
    g = cfg.pi_generator
    n = len(orbits.values)
    multisets = math.comb(cfg.k + n - 1, n - 1)
    bound = multisets * ((hi - lo) // g + 1)
    if bound > SPECTRUM_POINT_LIMIT:
        raise ConfigError(f"spectrum request may need {_text(bound)} "
                          f"points, above SPECTRUM_POINT_LIMIT = "
                          f"{SPECTRUM_POINT_LIMIT}")
    steps = cfg.k * multisets
    if steps > SPECTRUM_POINT_LIMIT:
        raise ConfigError(f"spectrum request may need {_text(steps)} steps to "
                          f"build its sums, above SPECTRUM_POINT_LIMIT = "
                          f"{SPECTRUM_POINT_LIMIT}")
    D = math.lcm(*(q.denominator for q in orbits.values + (g, lo, hi)))
    least, *rest = [int(v * D) for v in orbits.values]
    G, L, H = int(g * D), int(lo * D), int(hi * D)
    base = cfg.k * least - L
    residues = sorted({(base + s) % G
                       for s in _shifted_sums([v - least for v in rest],
                                              cfg.k)})
    out = []
    for start in range(L, H + 1, G):
        for r in residues:
            x = start + r
            if x > H:
                break
            out.append(Fraction(x, D))
    return out


def _shifted_sums(diffs: Sequence[int], k: int):
    """Every sum of at most ``k`` of the positive ``diffs``, repetition
    allowed, 0 included, in no order.

    ``live`` maps each sum found so far to the least count of differences
    reaching it, while that count is below ``k``; a sum reached with
    exactly ``k`` is parked in ``done``, and no later difference scans it.
    Difference ``d`` extends each live sum ``s`` of count ``c`` to ``s + m
    d`` for ``m = 1..k - c``.  Those steps are one per multiset of at most
    ``k`` of the differences so far that uses ``d``, so ``d_i`` costs
    ``C(k + i - 1, i)`` and the ``n - 1`` differences of ``n`` values
    ``C(k + n - 1, n - 1) - 1`` in all (the hockey-stick identity).  A sum
    parked and then reached with a lesser count goes live again; its entry
    in ``done`` is harmless.
    """
    live, done = {0: 0}, set()
    for d in diffs:
        for s, c in list(live.items()):
            for count in range(c + 1, k):
                s += d
                if live.get(s, k) > count:
                    live[s] = count
            done.add(s + d)
    done.update(live)
    return done


def fekete_homogenize(c_values: Sequence) -> Tuple[Fraction,
                                                   Tuple[Fraction, Fraction]]:
    """Estimate the per-step limit of a subadditive sequence.

    ``c_values[i]`` is the value at index ``m = i + 1``.  Subadditivity
    ``c_{m+n} <= c_m + c_n`` is checked exhaustively first; a violation
    raises with the offending pair.  Returns ``(estimate, bracket)`` with
    ``estimate = min_m c_m / m`` and ``bracket = (estimate, c_M / M)``.
    ``c_values`` is any iterable of rationals but a string or bytes
    (``novikov._iterable``); anything else raises ``ConfigError``.
    """
    c = [as_fraction(v, "c_values") for v in
         _iterable(c_values, "c_values must be a list of rationals")]
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


def _read_spectrum(spectrum: Sequence):
    """The set of the points of ``spectrum`` and the least distance between
    two of them (``None`` for fewer than two).  ``spectrum`` is any
    iterable of rationals but a string or bytes (``novikov._iterable``);
    anything else raises ``ConfigError``."""
    members = {as_fraction(x, "spectrum") for x in
               _iterable(spectrum, "spectrum must be a list of rationals")}
    pts = sorted(members)
    return members, min((b - a for a, b in zip(pts, pts[1:])), default=None)


def spectrum_gap(spectrum: Sequence[Fraction]) -> Optional[Fraction]:
    """Minimal distance between distinct consecutive spectrum points."""
    return _read_spectrum(spectrum)[1]


def rigidity_check(spectrum: Sequence, path_samples: Sequence,
                   step_bound) -> RigidityResult:
    """Confinement test for a sampled path inside a gapped spectrum.

    Preconditions: the spectrum's minimal gap exceeds ``step_bound`` and
    every sample belongs to the spectrum.  A continuous path moving less
    than ``step_bound`` per sample cannot jump between spectrum points, so
    any consecutive difference is reported as a violation.  ``spectrum``
    and ``path_samples`` are read as ``_read_spectrum`` reads the first.
    """
    step_bound = as_fraction(step_bound, "step_bound")
    members, gap = _read_spectrum(spectrum)
    if gap is not None and gap <= step_bound:
        raise SpectrumError("insufficient separation")
    samples = [as_fraction(s, "path_samples") for s in _iterable(
        path_samples, "path_samples must be a list of rationals")]
    for i, s in enumerate(samples):
        if s not in members:
            raise SpectrumError(f"spectrality violated at index {i}",
                                index=i)
    for i in range(1, len(samples)):
        if samples[i] != samples[i - 1]:
            return RigidityResult(constant=False, violation_index=i)
    return RigidityResult(constant=True)
