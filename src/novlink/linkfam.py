"""Concrete potentials for chains of parallel circles on the sphere.

A chain of ``k`` disjoint circles cuts the sphere into two discs of equal
area ``B`` and ``k - 1`` annuli of equal area ``A``, with the monotonicity
requirement ``0 < A < B``.  The lowest-order potential of the associated
symmetric-product torus has one monomial per disc,

    ``T^B z_1``  and  ``T^B / z_k``,

and, for each adjacent pair of circles, an annulus contribution weighted by
the square of a deformation parameter ``c`` of valuation ``(B - A)/2``:

    ``c^2 T^A (1/z_j + z_{j+1})``,   j = 1, ..., k-1.

Every coefficient then has valuation exactly ``B``, the leading gradient
system decouples into one quadratic per variable, and the Hessian
determinant at any lifted branch has valuation exactly ``k * B``.

Only these lowest-order terms are constructed; higher corrections enter as
caller-supplied extra monomials and are handled by the lifting machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .critlift import (
    CriticalCertificate,
    LiftConfig,
    _solve_leading_system,
    hensel_lift,
)
from .errors import AreaError, ConfigError, NotZeroDimensionalError
from .laurent import LaurentPotential, UnitaryPoint
from .novikov import (
    NovikovSeries,
    _parse_json_int,
    as_fraction,
)


@dataclass(frozen=True)
class CircleLinkS2:
    """Parallel-circle chain data: counts and exact region areas.

    ``k`` must be an int (a bool or float raises ``ConfigError``).  The
    sphere's area ``total_area`` is derived, ``(k - 1) * A + 2 * B``.
    """

    k: int
    A: Fraction
    B: Fraction
    total_area: Fraction

    def __init__(self, k: int, A, B):
        k = _parse_json_int(k, "k")
        A = as_fraction(A)
        B = as_fraction(B)
        if k < 1:
            raise ConfigError("k must be a positive integer")
        if not (0 < A < B):
            raise AreaError("not η-monotone")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "total_area", (k - 1) * A + 2 * B)


@dataclass(frozen=True)
class BulkParameter:
    """Deformation weight ``c``: leading coefficient plus optional tail.

    The valuation of ``c`` is pinned to ``(B - A)/2`` by the link geometry,
    so only the leading rational coefficient ``c0`` and an optional
    higher-order tail are free.  The tail, when present, must sit strictly
    above the base valuation.
    """

    c0: Fraction
    higher_terms: Optional[NovikovSeries] = None

    def __init__(self, c0=Fraction(1), higher_terms=None):
        c0 = as_fraction(c0)
        if c0 == 0:
            raise ConfigError("c0 must be a nonzero rational")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "higher_terms", higher_terms)

    def series(self, base_val) -> NovikovSeries:
        """The full parameter ``c = c0 T^base_val + tail``."""
        base_val = as_fraction(base_val)
        c = NovikovSeries.monomial(self.c0, base_val)
        if self.higher_terms is not None:
            tail = self.higher_terms
            if not tail.is_zero() and tail.valuation() <= base_val:
                raise ConfigError("bulk tail must have valuation above "
                                  "(B - A)/2")
            c = c + tail
        return c


def build_chain_potential(link: CircleLinkS2, bulk: BulkParameter,
                          extra_terms: Optional[LaurentPotential] = None
                          ) -> LaurentPotential:
    """Lowest-order chain potential, optionally plus user monomials.

    For ``k = 1`` the annulus sum is empty and the result is
    ``T^B (z + 1/z)``, the equatorial-circle potential.
    """
    k, A, B = link.k, link.A, link.B
    base_val = (B - A) / 2
    c = bulk.series(base_val)
    c2TA = c * c * NovikovSeries.monomial(1, A)
    TB = NovikovSeries.monomial(1, B)

    # The chain's 2k monomials are distinct.
    terms = {tuple(1 if i == 0 else 0 for i in range(k)): TB,
             tuple(-1 if i == k - 1 else 0 for i in range(k)): TB}
    for j in range(k - 1):
        terms[tuple(-1 if i == j else 0 for i in range(k))] = c2TA
        terms[tuple(1 if i == j + 1 else 0 for i in range(k))] = c2TA
    W = LaurentPotential(k, terms)
    if extra_terms is not None:
        if extra_terms.num_vars != k:
            raise ConfigError("extra terms have the wrong variable count")
        W = W + extra_terms
    return W


def preferred_branch_leads(link: CircleLinkS2,
                           bulk: BulkParameter) -> Tuple[Fraction, ...]:
    """Leading coordinates of the all-positive branch.

    The decoupled leading system forces ``z_1 = +-c0``, middle coordinates
    ``+-1`` and ``z_k = +-1/c0``; the all-plus sign choice is the default
    lift target.  For ``k = 1`` both disc terms fall on the single variable
    and the branch is ``z = 1``.
    """
    k = link.k
    if k == 1:
        return (Fraction(1),)
    leads = [bulk.c0]
    leads.extend(Fraction(1) for _ in range(k - 2))
    leads.append(1 / bulk.c0)
    return tuple(leads)


def critical_data(link: CircleLinkS2, bulk: BulkParameter
                  ) -> CriticalCertificate:
    """Certificate for the default branch of the chain potential.

    The certificate's Hessian determinant has valuation exactly
    ``k * B``.  The lift targets precision ``(k + 4) * B``, comfortably
    above the determinant valuation.
    """
    W = build_chain_potential(link, bulk)
    cfg = LiftConfig(target_precision=(link.k + 4) * link.B)
    # The decoupled leading system makes the all-plus branch explicit;
    # building it directly avoids enumerating all 2^k sign choices.
    z0 = UnitaryPoint([NovikovSeries.monomial(c, 0)
                       for c in preferred_branch_leads(link, bulk)])
    return hensel_lift(W, z0, cfg)


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of truncating a potential at a valuation cutoff.

    ``unobstructed`` records whether the truncated leading gradient system
    still has a unit-torus solution; when it does not, ``order`` names the
    valuation at which the critical-point equation fails.  ``points`` lists
    the rational leading solutions (free coordinates set to 1).
    """

    unobstructed: bool
    order: Optional[Fraction] = None
    points: Tuple[UnitaryPoint, ...] = ()
    note: str = ""


def truncation_obstruction(W: LaurentPotential, cutoff) -> TruncationReport:
    """Restrict to coefficients of valuation <= cutoff and test criticality.

    A single surviving monomial in some variable can never have a critical
    point on the unit torus (its gradient is a unit multiple of the
    monomial), so the truncation is obstructed at that coefficient's
    valuation.  A coefficient known only as ``O(T^p)`` with
    ``p <= cutoff`` may or may not survive the truncation, so it raises
    ``PrecisionError``.
    """
    truncated = LaurentPotential(W.num_vars,
                                 W.terms_through(as_fraction(cutoff)))
    if truncated.is_zero():
        return TruncationReport(unobstructed=True, note="empty truncation")
    min_val = truncated.min_coefficient_valuation()

    grads = truncated.log_gradient()
    active = [i for i, g in enumerate(grads) if not g.is_zero()]
    if not active:
        return TruncationReport(unobstructed=True,
                                note="truncation has no gradient constraints")
    sub = _restrict_to_variables(truncated, active)
    try:
        points, irrational = _solve_leading_system(sub)
    except NotZeroDimensionalError:
        return TruncationReport(
            unobstructed=True,
            note="leading system not zero-dimensional on the active "
                 "variables")
    if not points and not irrational:
        return TruncationReport(unobstructed=False, order=min_val)
    full_points = tuple(_embed_point(p, active, W.num_vars) for p in points)
    note = (f"{irrational} non-rational branch(es) dropped"
            if irrational else "")
    return TruncationReport(unobstructed=True, points=full_points, note=note)


def _restrict_to_variables(W: LaurentPotential,
                           keep: List[int]) -> LaurentPotential:
    index = {v: i for i, v in enumerate(keep)}
    terms = {}
    for m, c in W.items():
        mm = [0] * len(keep)
        for v, i in index.items():
            mm[i] = m[v]
        mm = tuple(mm)
        terms[mm] = terms.get(mm, NovikovSeries.zero()) + c
    return LaurentPotential(len(keep), terms)


def _embed_point(p: UnitaryPoint, active: List[int], k: int) -> UnitaryPoint:
    coords = [NovikovSeries.one()] * k
    for slot, var in enumerate(active):
        coords[var] = p[slot]
    return UnitaryPoint(coords)
