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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import List, Optional, Tuple

from .errors import AlgebraMismatchError, ConfigError
from .novikov import (
    NovikovSeries,
    _entry,
    _least_valuation,
    _positive_fraction,
    _positive_int,
    _product_precision,
)

#: Largest ``k`` the idempotents are computed for.  Their ``(k+1)^2``
#: coefficients have ``k``-bit numerators, so memory grows about as
#: ``k^3``.  In process, ``scan nobulk --kmax 160`` took 0.3-0.5 s and
#: ``qh idempotents --k 160`` 0.25 s (Python 3.11.7, 2-core x86-64).
SYMK_K_LIMIT = 160


def _sphere_algebra(k, omega):
    """``(k, omega)`` of a ``k``-fold sphere algebra, ``omega`` as a
    ``Fraction``: a ``k`` that is not a positive JSON integer, or an
    ``omega`` that is not a positive rational, raises ``ConfigError``."""
    return _positive_int(k, "k"), _positive_fraction(omega, "omega")


@dataclass(frozen=True, slots=True)
class SymQHElement:
    """Element of the symmetric invariants of the k-fold tensor power.

    Coefficients are stored over the monomial basis ``m_0, ..., m_k``
    (``m_j`` sums the ``C(k, j)`` arrangements of ``j`` copies of ``H``).
    ``k = 1`` is the rank-two algebra.  A ``k`` that is not a positive
    integer or an ``omega`` that is not positive raises ``ConfigError``.
    """

    k: int
    omega: Fraction
    coeffs: Tuple[NovikovSeries, ...]

    def __post_init__(self):
        k, omega = _sphere_algebra(self.k, self.omega)
        coeffs = tuple(_entry(c, "coeffs", j)
                       for j, c in enumerate(self.coeffs))
        if len(coeffs) != k + 1:
            raise ConfigError(f"need {k + 1} basis coefficients, "
                              f"got {len(coeffs)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _raw(cls, k: int, omega: Fraction, coeffs) -> "SymQHElement":
        """Trusted constructor: ``k`` and ``omega`` already checked, as
        ``_sphere_algebra`` returns them, and ``coeffs`` ``k + 1`` series in
        a list or tuple."""
        x = object.__new__(cls)
        object.__setattr__(x, "k", k)
        object.__setattr__(x, "omega", omega)
        object.__setattr__(x, "coeffs", tuple(coeffs))
        return x

    def __add__(self, other):
        self._check(other)
        return SymQHElement(self.k, self.omega,
                            [a + b for a, b in zip(self.coeffs,
                                                   other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return SymQHElement(self.k, self.omega,
                            [a - b for a, b in zip(self.coeffs,
                                                   other.coeffs)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def valuation(self):
        """The least coefficient valuation: ``novikov._least_valuation``."""
        return _least_valuation(self.coeffs, lambda j: f"coefficient m{j}")

    def _check(self, other):
        if (not isinstance(other, SymQHElement) or other.k != self.k
                or other.omega != self.omega):
            raise AlgebraMismatchError("algebra mismatch: k or omega differ")

    def __repr__(self):
        body = ", ".join(f"m{j}: {c}" for j, c in enumerate(self.coeffs)
                         if not c.is_zero())
        return f"SymQH[k={self.k}]({body or '0'})"


def symk_multiply(x: SymQHElement, y: SymQHElement) -> SymQHElement:
    """Product in the monomial basis, by one of two paths with equal output.

    Rescaling the coefficient ``x_i`` of ``m_i`` to ``x~_i = x_i
    T^(i*omega/2)``, the coefficient of ``m~_i = T^(-i*omega/2) m_i``, only
    shifts exponents, so it is exact, and it takes ``T`` out of the
    structure constants (an overlap of ``c`` slots squares ``T^(-omega/2)
    H`` to ``1``):

        ``m~_i m~_j = sum_l C(l, i-c) C(k-l, c) m~_l``

    with ``c = (i + j - l)/2`` over ``max(0, i + j - k) <= c <= min(i,
    j)``, the range where both binomials are nonzero.  A rescaled exponent
    ``e`` has the degree ``-4e/omega`` of the grading, so the terms fall
    into degree classes; a homogeneous element, each idempotent included,
    has exactly one.

    * **Transform** (``_transform``), when each operand has exactly one
      class (``_degree_class``).  The class is a vector ``v`` over
      ``m~_0..m~_k``; its character ``chi_t = sum_i K_i(t) v_i``
      (``_krawtchouk``) evaluates it where ``t`` of the ``k`` tensor
      factors take ``T^(-omega/2) H = -1`` and the rest ``+1``, so
      characters multiply pointwise.  The orthogonality relation ``sum_t
      C(k, t) K_i(t) K_l(t) = 2^k C(k, i) delta_il`` and the reciprocity
      ``C(k, t) K_i(t) = C(k, i) K_t(i)`` make ``K`` its own inverse up to
      ``2^k``, so an output coefficient is ``2^-k sum_t K_t(l) chi_t``, an
      exact integer division, shifted back by ``-l*omega/2``: ``O(k^2)``
      integer products, where two dense factors cost ``O(k^3)``
      structure-constant updates.
    * **Scatter** (``_scatter``), for every other pair.  The structure
      constants in their unrescaled form ``m_i m_j = sum_l C(l, i-c) C(k-l,
      c) T^(c*omega) m_l``, summed over every slot pair.  Operands whose
      terms sit at unrelated exponents have about one class per term, and
      a transform per class pair would cost ``(k + 1)^2`` each.

    Either way the sum runs on integer forms: exponents, precisions and
    ``omega`` share one denominator, each operand's coefficients have their
    own.  Both paths take the slots' precisions from ``_slot_precisions``,
    the one precision rule, in ``O(k^2)`` steps: a slot's precision is the
    least over its contributions of ``min(p_i + val_j, p_j + val_i) +
    c*omega``, exactly what series arithmetic would give; a slot nothing
    reaches stays an exact ``0``.
    """
    x._check(y)
    k, omega = x.k, x.omega
    xs = [(i, ci) for i, ci in enumerate(x.coeffs) if not ci.is_exact_zero()]
    ys = [(j, cj) for j, cj in enumerate(y.coeffs) if not cj.is_exact_zero()]
    de, step = _grid(omega, xs + ys)
    dcx, xt = _integer_rows(xs, de)
    dcy, yt = _integer_rows(ys, de)
    a, b = _degree_class(step, xt), _degree_class(step, yt)
    slots = (_scatter(k, step, xt, yt) if a is None or b is None
             else _transform(k, step, a + b, xt, yt))
    out = []
    for slot, p in zip(slots, _slot_precisions(k, de, step, xt, yt)):
        E = sorted(slot)
        out.append(NovikovSeries._raw(de, dcx * dcy, E, [slot[e] for e in E],
                                      p))
    return SymQHElement._raw(k, omega, out)


def _grid(omega: Fraction, coeffs):
    """``(de, step)``: the least common denominator of ``omega`` and the
    exponents of the ``(i, series)`` pairs ``coeffs``, and ``omega`` over
    it, ``omega = step / de``."""
    de = lcm(omega.denominator, *(c.integer_form[0] for _, c in coeffs))
    return de, omega.numerator * (de // omega.denominator)


def _integer_rows(coeffs, de: int):
    """``(dc, rows)``: ``rows`` lists ``(i, series, [(e, c), ...])`` for
    each ``(i, series)`` of ``coeffs``, its terms ``(c / dc) T^(e /
    de)``."""
    dc = lcm(*(c.integer_form[1] for _, c in coeffs))
    rows = []
    for i, series in coeffs:
        sde, sdc, E, C = series.integer_form
        m, n = de // sde, dc // sdc
        rows.append((i, series, [(e * m, c * n) for e, c in zip(E, C)]))
    return dc, rows


def _degree_class(step: int, rows):
    """The class every term of ``rows`` (``_integer_rows``) falls in, or
    ``None`` when they have none or several.

    A term ``T^e`` of slot ``i`` has the rescaled exponent ``e + i*step/2``
    over ``de``; the class is keyed by the doubled value ``2e + i*step``,
    an integer.  One class holds at most one term per slot.
    """
    classes = {2 * e + i * step for i, _, terms in rows for e, _ in terms}
    return classes.pop() if len(classes) == 1 else None


def _transform(k: int, step: int, a: int, xt, yt):
    """Product terms of two one-class operands through the characters:
    ``[{e: c}]`` per slot ``l`` over the rows' ``de``, coefficients over
    the product of their ``dc``.

    ``a`` is the output class, the sum of the operands' ``_degree_class``;
    slot ``l`` holds the exponent ``(a - l*step) / 2``, an integer since
    every product exponent is one over ``de``.
    """
    K = _krawtchouk(k)

    def characters(rows):
        v = [0] * (k + 1)
        for i, _, terms in rows:
            for _, c in terms:
                v[i] = c
        return [sum(map(mul, r, v)) for r in K]

    chi = list(map(mul, characters(xt), characters(yt)))
    slots = [{} for _ in range(k + 1)]
    for l, (slot, r) in enumerate(zip(slots, K)):
        c = sum(map(mul, r, chi))
        if c:
            slot[(a - l * step) >> 1] = c >> k  # a multiple of 2^k
    return slots


def _scatter(k: int, step: int, xt, yt):
    """Product terms as ``_transform`` gives them, by the structure
    constants ``m_i m_j = sum_l C(l, i-c) C(k-l, c) T^(c*omega) m_l``;
    ``_slot_precisions`` gives the slots' precisions on both paths."""
    slots = [{} for _ in range(k + 1)]
    for i, _, ti in xt:
        for j, _, tj in yt:
            prod: dict = {}
            for ea, ca in ti:
                for eb, cb in tj:
                    e = ea + eb
                    prod[e] = prod.get(e, 0) + ca * cb
            for c in range(max(0, i + j - k), min(i, j) + 1):
                l = i + j - 2 * c
                mult = comb(l, i - c) * comb(k - l, c)
                shift = c * step
                slot = slots[l]
                get = slot.get
                for e, v in prod.items():
                    e += shift
                    slot[e] = get(e, 0) + v * mult
    return slots


def _slot_precisions(k: int, de: int, step: int, xt, yt):
    """Each slot's precision, from the rows of ``_integer_rows``, as an
    int over ``de`` (``None`` for ``INFINITY``): the least over the slot
    pairs ``i, j`` and overlaps ``c`` that reach slot ``l = i + j - 2c``
    of ``_product_precision + c * step``, which is ``(w(i, j) - l * step)
    / 2`` for ``w(i, j) = 2 * _product_precision + (i + j) * step``.

    The pairs that reach ``l`` with overlap ``c`` are those that reach
    ``l - 2`` with overlap ``c + 1`` and the two with ``min(i, j) = c``,
    ``(c, l + c)`` and ``(l + c, c)``.  So the least ``w`` per overlap,
    row ``l``, is one ``min`` per entry over row ``l - 2`` and two
    diagonals of ``w``: ``O(k^2)`` steps in all.  Two exact coefficients
    give no candidate, so exact operands give exact slots at once.
    """
    if all(c.is_exact() for _, c, _ in xt + yt):
        return [None] * (k + 1)
    inf = float("inf")  # no candidate; compared with ints, never added
    w = [[inf] * (k + 1) for _ in range(k + 1)]
    for i, ci, _ in xt:
        row = w[i]
        for j, cj, _ in yt:
            p = _product_precision(ci, cj, de)
            if p is not None:
                row[j] = 2 * p + (i + j) * step
    prec, older, old = [], [inf] * (k + 3), [inf] * (k + 2)
    for l in range(k + 1):
        n = k - l + 1  # overlaps 0..k-l
        least = list(map(min, older[1:n + 1],
                         [w[c][c + l] for c in range(n)],
                         [w[c + l][c] for c in range(n)]))
        p = min(least)
        prec.append(None if p == inf else (p - l * step) >> 1)
        older, old = old, least
    return prec


@lru_cache(maxsize=4)
def _krawtchouk(k: int):
    """Rows ``t = 0..k`` of ``K_i(t) = [z^i] (1 - z)^t (1 + z)^(k - t)``.

    Row ``t + 1`` is row ``t`` divided by ``1 + z`` and multiplied by
    ``1 - z``, both exact on integers: ``O(k^2)`` operations.  As a matrix
    ``K`` squares to ``2^k`` times the identity.  The four most recent
    tables are kept, so the products in one algebra share one.
    """
    row = [comb(k, i) for i in range(k + 1)]
    rows = [tuple(row)]
    for _ in range(k):
        quot, q = [], 0
        for a in row[:k]:
            q = a - q
            quot.append(q)
        row = [b - a for a, b in zip([0] + quot, quot + [0])]
        rows.append(tuple(row))
    return tuple(rows)


def _idempotent_columns(k: int, omega):
    """``(omega, step, cols)`` behind the idempotents ``E_0..E_k`` of
    ``symk_idempotents``: the checked ``omega`` as a ``Fraction``, ``step =
    -omega/2`` and ``cols[j] = (K_j(0), ..., K_j(k))``, column ``j`` of
    ``_krawtchouk(k)``.

    The coefficient of ``m_w`` in ``E_j`` is ``2^-k (-1)^w K_j(w)
    T^(w*step)``.  ``step`` is negative, so ``val(E_j)`` is ``step`` times
    the top ``w`` with ``K_j(w) != 0``: the scan reads it off the integers
    without building a series.  ``k`` and ``omega`` pass
    ``_sphere_algebra``, and a ``k`` above ``SYMK_K_LIMIT`` raises
    ``ConfigError`` too.
    """
    k, omega = _sphere_algebra(k, omega)
    if k > SYMK_K_LIMIT:
        raise ConfigError(f"k = {k} is above the limit SYMK_K_LIMIT = "
                          f"{SYMK_K_LIMIT}")
    return omega, -omega / 2, list(zip(*_krawtchouk(k)))


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

    ``alpha_{j,w}`` is the coefficient of ``s^j`` in ``(s - 1)^w (1 +
    s)^(k-w)``, that is ``(-1)^w K_j(w)`` read off ``_krawtchouk(k)``
    (``_idempotent_columns``): ``O(k^2)`` integers in all.  In rescaled
    coordinates ``E_j`` is one degree class whose only nonzero character is
    ``chi_(k-j) = 1``.
    """
    omega, step, cols = _idempotent_columns(k, omega)
    denom = 2 ** k
    num, de = step.numerator, step.denominator
    return [SymQHElement._raw(k, omega, [
        NovikovSeries._raw(de, denom, (w * num,), (-a if w % 2 else a,),
                           None)
        for w, a in enumerate(col)]) for col in cols]


def grading(x) -> Optional[Fraction]:
    """Common degree of a homogeneous element, or ``None`` for mixed.

    A term ``T^e`` on a basis element with ``w`` quantum-class factors has
    degree ``-4 e / omega - 2 w``: ``-2 a / step`` for the element's
    ``_degree_class`` ``a``, with ``omega = step / de``.
    """
    if not isinstance(x, SymQHElement):
        raise TypeError("grading expects a sphere-algebra element")
    coeffs = list(enumerate(x.coeffs))
    de, step = _grid(x.omega, coeffs)
    a = _degree_class(step, _integer_rows(coeffs, de)[1])
    return None if a is None else Fraction(-2 * a, step)
