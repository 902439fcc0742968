"""The sphere quantum algebra, its symmetric tensor powers and idempotents.

The rank-two algebra has basis ``1, H`` with the single relation
``H^2 = T^omega`` (``omega > 0`` the sphere area).  It is the ``k = 1``
case below: ``1`` is ``m_0`` and ``H`` is ``m_1``.  Its indecomposable
idempotents are ``(1 +- T^(-omega/2) H) / 2``, each of valuation
``-omega/2``.

The invariant subalgebra of the k-th tensor power is spanned by the
monomial symmetrizations ``m_j = sum over |S| = j of H placed in slots S``
for ``j = 0..k``.  Its ``k + 1`` indecomposable idempotents are the
symmetrized products of ``j`` plus-idempotents with ``k - j`` minus ones;
every one has valuation exactly ``-k * omega / 2``, so the normalized
valuation is the constant ``-omega/2`` whatever ``k`` is.  That constant
is the obstruction tabulated by the scan driver.

Grading convention: ``T^(a*omega)`` sits in degree ``-4a`` and ``H`` in
degree ``-2``, the unique assignment making the defining relation
homogeneous and the idempotents degree zero simultaneously.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import List, Optional, Tuple

from .errors import AlgebraMismatchError, ConfigError
from .novikov import (
    NovikovSeries,
    _least_valuation,
    _parse_json_int,
    _product_precision,
    as_fraction,
)

#: Largest ``k`` the idempotents are computed for.  Their ``(k+1)^2``
#: coefficients have ``k``-bit numerators, so memory grows about as
#: ``k^3``; ``scan nobulk`` up to this ``k`` takes about 10 s on a 2-core
#: machine (``qh idempotents --k 160`` about 0.3 s).
SYMK_K_LIMIT = 160


class SymQHElement:
    """Element of the symmetric invariants of the k-fold tensor power.

    Coefficients are stored over the monomial basis ``m_0, ..., m_k``
    (``m_j`` sums the ``C(k, j)`` arrangements of ``j`` copies of ``H``).
    ``k = 1`` is the rank-two algebra.  A ``k`` that is not a positive
    integer or an ``omega`` that is not positive raises ``ConfigError``.
    """

    __slots__ = ("k", "omega", "_coeffs")

    def __init__(self, k: int, omega, coeffs):
        if _parse_json_int(k, "k") < 1:
            raise ConfigError("k must be a positive integer")
        coeffs = tuple(NovikovSeries.from_scalar(c) for c in coeffs)
        if len(coeffs) != k + 1:
            raise ConfigError(f"need {k + 1} basis coefficients, "
                              f"got {len(coeffs)}")
        omega = as_fraction(omega, "omega")
        if omega <= 0:
            raise ConfigError("omega must be positive")
        self.k = k
        self.omega = omega
        self._coeffs = coeffs

    @property
    def coeffs(self) -> Tuple[NovikovSeries, ...]:
        return self._coeffs

    def __add__(self, other):
        self._check(other)
        return SymQHElement(self.k, self.omega,
                            [a + b for a, b in zip(self._coeffs,
                                                   other._coeffs)])

    def __sub__(self, other):
        self._check(other)
        return SymQHElement(self.k, self.omega,
                            [a - b for a, b in zip(self._coeffs,
                                                   other._coeffs)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def valuation(self):
        """The least coefficient valuation: ``novikov._least_valuation``."""
        return _least_valuation(self._coeffs, lambda j: f"coefficient m{j}")

    def __eq__(self, other):
        if not isinstance(other, SymQHElement):
            return NotImplemented
        return (self.k == other.k and self.omega == other.omega
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.k, self.omega, self._coeffs))

    def _check(self, other):
        if (not isinstance(other, SymQHElement) or other.k != self.k
                or other.omega != self.omega):
            raise AlgebraMismatchError("algebra mismatch: k or omega differ")

    def __repr__(self):
        body = ", ".join(f"m{j}: {c}" for j, c in enumerate(self._coeffs)
                         if not c.is_zero())
        return f"SymQH[k={self.k}]({body or '0'})"


def symk_multiply(x: SymQHElement, y: SymQHElement) -> SymQHElement:
    """Product in the monomial basis.

    ``m_i * m_j`` distributes over arrangement pairs: an overlap of size
    ``c`` turns into ``T^(c*omega)`` and the symmetric difference carries
    the surviving ``H`` factors, giving

        ``m_i m_j = sum_l C(l, i-c) C(k-l, c) T^(c*omega) m_l``

    with ``c = (i + j - l)/2`` running over ``max(0, i + j - k) <= c <=
    min(i, j)``, the range where both binomials are nonzero.

    The sum runs on the operands' integer forms: exponents, precisions and
    ``omega`` share one denominator, each operand's coefficients have their
    own.  A slot's precision is the least over its contributions of
    ``min(p_i + val_j, p_j + val_i) + c*omega``, exactly what series
    arithmetic would give; a slot nothing reaches stays an exact ``0``.
    """
    x._check(y)
    k, omega = x.k, x.omega
    xs = [(i, ci) for i, ci in enumerate(x.coeffs) if not ci.is_exact_zero()]
    ys = [(j, cj) for j, cj in enumerate(y.coeffs) if not cj.is_exact_zero()]
    de = lcm(omega.denominator, *(c.integer_form[0] for _, c in xs + ys))
    dcx = lcm(*(c.integer_form[1] for _, c in xs))
    dcy = lcm(*(c.integer_form[1] for _, c in ys))

    def scaled(series, dc):
        sde, sdc, E, C = series.integer_form
        return [(e * (de // sde), c * (dc // sdc)) for e, c in zip(E, C)]

    ny = [(j, cj, scaled(cj, dcy)) for j, cj in ys]
    step = omega.numerator * (de // omega.denominator)
    acc = [{} for _ in range(k + 1)]
    prec = [None] * (k + 1)  # ints over ``de``; ``None`` is ``INFINITY``
    for i, ci in xs:
        ti = scaled(ci, dcx)
        for j, cj, tj in ny:
            prod: dict = {}
            for ea, ca in ti:
                for eb, cb in tj:
                    e = ea + eb
                    prod[e] = prod.get(e, 0) + ca * cb
            base = _product_precision(ci, cj, de)
            for c in range(max(0, i + j - k), min(i, j) + 1):
                l = i + j - 2 * c
                mult = comb(l, i - c) * comb(k - l, c)
                shift = c * step
                slot = acc[l]
                get = slot.get
                for e, v in prod.items():
                    e += shift
                    slot[e] = get(e, 0) + v * mult
                if base is not None and (prec[l] is None
                                         or base + shift < prec[l]):
                    prec[l] = base + shift
    out = []
    for slot, p in zip(acc, prec):
        E = sorted(slot)
        out.append(NovikovSeries._raw(de, dcx * dcy, E, [slot[e] for e in E],
                                      p))
    return SymQHElement(k, omega, out)


def symk_idempotents(k: int, omega) -> List[SymQHElement]:
    """The ``k + 1`` indecomposable idempotents of the invariant algebra.

    ``E_j`` symmetrizes ``j`` plus-idempotents against ``k - j`` minus
    ones.  Expanding every slot of ``(1 +- T^(-omega/2) H)/2`` and
    collecting arrangements gives the closed form used here:

        ``E_j = 2^-k sum_w alpha_{j,w} T^(-w*omega/2) m_w``,
        ``alpha_{j,w} = sum_t (-1)^(w-t) C(w, t) C(k-w, j-t)``.

    They are pairwise orthogonal, sum to the unit, and each has valuation
    exactly ``-k*omega/2``.  A ``k`` that is not a positive integer up to
    ``SYMK_K_LIMIT``, or an ``omega`` that is not positive, raises
    ``ConfigError``.

    ``alpha_{j,w}`` is the coefficient of ``s^j`` in
    ``(s - 1)^w (1 + s)^(k-w)``, so column ``w + 1`` is column ``w``
    divided by ``1 + s`` and multiplied by ``s - 1``, both exact on
    integers: ``O(k^2)`` operations in all.
    """
    if _parse_json_int(k, "k") < 1:
        raise ConfigError("k must be a positive integer")
    if k > SYMK_K_LIMIT:
        raise ConfigError(f"k = {k} is above the limit SYMK_K_LIMIT = "
                          f"{SYMK_K_LIMIT}")
    omega = as_fraction(omega, "omega")
    denom = 2 ** k
    cols = [[comb(k, j) for j in range(k + 1)]]
    for _ in range(k):
        quot, q = [], 0
        for a in cols[-1][:k]:
            q = a - q
            quot.append(q)
        cols.append([b - a for a, b in zip(quot + [0], [0] + quot)])
    num, de = omega.numerator, 2 * omega.denominator
    return [SymQHElement(k, omega, [
        NovikovSeries._raw(de, denom, (-w * num,), (a,), None)
        for w, a in enumerate(row)]) for row in zip(*cols)]


def grading(x) -> Optional[Fraction]:
    """Common degree of a homogeneous element, or ``None`` for mixed.

    A term ``T^e`` on a basis element with ``w`` quantum-class factors has
    degree ``-4 e / omega - 2 w``.
    """
    if not isinstance(x, SymQHElement):
        raise TypeError("grading expects a sphere-algebra element")
    degree = None
    for w, series in enumerate(x.coeffs):
        for e, _ in series.terms:
            d = Fraction(-4) * e / x.omega - 2 * w
            if degree is None:
                degree = d
            elif degree != d:
                return None
    return degree
