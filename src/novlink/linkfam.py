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
determinant at any of its branches has valuation exactly ``k * B``.  Each
branch is an exact critical point of this potential.

Only these lowest-order terms are constructed; higher corrections enter as
caller-supplied extra monomials and are handled by the lifting machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from .critlift import CriticalCertificate, _certify, _solve_leading_system
from .errors import AreaError, ConfigError, NotZeroDimensionalError
from .laurent import LaurentPotential, UnitaryPoint
from .novikov import (
    NovikovSeries,
    _positive_int,
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
    total_area: Fraction = field(init=False)

    def __post_init__(self):
        k = _positive_int(self.k, "k")
        A = as_fraction(self.A, "A")
        B = as_fraction(self.B, "B")
        if not (0 < A < B):
            raise AreaError(f"not η-monotone at k = {k}: 0 < A < B fails")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "total_area", (k - 1) * A + 2 * B)


@dataclass(frozen=True)
class BulkParameter:
    """Deformation weight ``c = c0 T^((B - A)/2)``.

    The valuation of ``c`` is pinned to ``(B - A)/2`` by the link geometry,
    so only the leading rational coefficient ``c0`` is free.  Higher-order
    corrections to ``c`` enter ``build_chain_potential`` as extra monomials.
    """

    c0: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "c0", as_fraction(self.c0, "c0"))
        if self.c0 == 0:
            raise ConfigError("c0 must be nonzero")


def build_chain_potential(link: CircleLinkS2, bulk: BulkParameter,
                          extra_terms: Optional[LaurentPotential] = None
                          ) -> LaurentPotential:
    """Lowest-order chain potential, optionally plus user monomials.

    For ``k = 1`` the annulus sum is empty and the result is
    ``T^B (z + 1/z)``, the equatorial-circle potential.  The chain part is
    built by the trusted ``LaurentPotential._raw``; ``extra_terms`` joins
    it through the public ``+``, which checks the sum.
    """
    k, B = link.k, link.B
    c2TA = NovikovSeries.monomial(bulk.c0 * bulk.c0, B)  # c^2 T^A
    TB = NovikovSeries.monomial(1, B)

    def unit(i, e):  # the exponent vector of z_i^e
        return (0,) * i + (e,) + (0,) * (k - 1 - i)

    # The chain's 2k monomials are distinct and, in the order the public
    # constructor sorts them, 1/z_1, ..., 1/z_k, z_k, ..., z_1: the disc
    # terms z_1 and 1/z_k, and c^2 T^A on 1/z_j and z_(j+1) for j < k.
    terms = tuple((unit(i, -1), TB if i == k - 1 else c2TA)
                  for i in range(k))
    terms += tuple((unit(i, 1), TB if i == 0 else c2TA)
                   for i in reversed(range(k)))
    W = LaurentPotential._raw(k, terms)
    return W if extra_terms is None else W + extra_terms


def preferred_branch_leads(link: CircleLinkS2,
                           bulk: BulkParameter) -> Tuple[Fraction, ...]:
    """Coordinates of the all-positive branch, an exact critical point.

    The decoupled leading system forces ``z_1 = +-c0``, middle coordinates
    ``+-1`` and ``z_k = +-1/c0``.  Each gradient component of the chain
    potential is a single leading layer, so these constants solve the full
    system, not just its leading order.  For ``k = 1`` both disc terms fall
    on the single variable and the branch is ``z = 1``.
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
    """Certificate for the all-plus branch of the chain potential.

    The branch is exact, so no Newton step is needed: the point is
    certified as it stands, known modulo ``T^((k + 4) B)``, comfortably
    above the determinant valuation ``k * B``.  That is the point and
    precision a lift to that target would hand to ``certify_morse``;
    ``residual_valuations`` is empty.
    """
    return _critical_data(link, bulk)[0]


def _critical_data(link: CircleLinkS2, bulk: BulkParameter):
    """``(certificate, blocks)``: ``critical_data``'s certificate and the
    blocks of its Hessian (``critlift._certify``).  Each coordinate is the
    constant ``c`` modulo ``T^target``, built on its integer form: ``c``
    over its denominator at exponent 0, the target over its own."""
    target = (link.k + 4) * link.B
    z0 = UnitaryPoint._raw(tuple(
        NovikovSeries._raw(target.denominator, c.denominator, (0,),
                           (c.numerator,), target.numerator)
        for c in preferred_branch_leads(link, bulk)))
    return _certify(build_chain_potential(link, bulk), z0)


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of truncating a potential at a valuation cutoff.

    ``unobstructed`` records whether the truncated leading gradient system
    still has a unit-torus solution; when it does not, ``order`` names the
    valuation at which the critical-point equation fails: every unit point's
    gradient has a component of that valuation or less.  It is the least,
    over the blocks of leading layers with no common torus root, of the
    greatest valuation among the block's layers; a layer of one monomial
    is such a block alone.  A solvable block beside them does not move it,
    but a layer that first becomes active at a higher cutoff can join a
    rootless block and raise it.  ``points`` lists the rational leading
    solutions (free coordinates set to 1).
    """

    unobstructed: bool
    order: Optional[Fraction] = None
    points: Tuple[UnitaryPoint, ...] = ()
    note: str = ""


def truncation_obstruction(W: LaurentPotential, cutoff) -> TruncationReport:
    """Restrict to coefficients of valuation <= cutoff and test criticality.

    The leading system on the variables the kept terms use is solved
    once, and ``order`` is read off that solve (see ``TruncationReport``).
    A coefficient known only as ``O(T^p)`` with ``p <= cutoff`` may or may
    not survive the truncation, so it raises ``PrecisionError``.
    """
    cutoff = as_fraction(cutoff, "cutoff")
    kept = W.terms_through(cutoff)
    if not kept:
        return TruncationReport(unobstructed=True, note="empty truncation")
    active = [i for i in range(W.num_vars) if any(m[i] for m in kept)]
    if not active:
        return TruncationReport(unobstructed=True,
                                note="truncation has no gradient constraints")
    sub = LaurentPotential(len(active), {tuple(m[v] for v in active): c
                                         for m, c in kept.items()})
    try:
        points, irrational, order = _solve_leading_system(sub)
    except NotZeroDimensionalError:
        return TruncationReport(
            unobstructed=True,
            note="leading system not zero-dimensional on the active "
                 "variables")
    if order is not None:
        return TruncationReport(unobstructed=False, order=order)
    full_points = tuple(
        UnitaryPoint([dict(zip(active, p)).get(v, NovikovSeries.one())
                      for v in range(W.num_vars)]) for p in points)
    note = (f"{irrational} non-rational branch(es) dropped"
            if irrational else "")
    return TruncationReport(unobstructed=True, points=full_points, note=note)
