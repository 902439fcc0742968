"""Clifford-algebra model of a torus Floer algebra and its trace.

The algebra on ``n`` generators is presented on the wedge-compatible basis
``{e_I : I subset {1..n}}`` (antisymmetrized generator products, matching
the cohomology basis of an n-torus).  Products follow the quantized
relation

    ``e_i e_j + e_j e_i = KAPPA * form[i][j]``,

realized on the wedge basis by the contraction rule: left multiplication
by a generator is "wedge plus contraction against the bilinear form
``KAPPA/2 * form``".

The pairing is the integration pairing of the torus: ``<e_I, e_J>`` is the
shuffle sign when ``J`` complements ``I`` and zero otherwise, so the Gram
matrix ``g`` is a signed permutation.  The trace

    ``Z = sum_{I,J} (-1)^{|I|} g^{IJ} <m2(e_I, vol), m2(e_J, vol)>``

uses the graded inverse ``g^{IJ} = (-1)^{|I| + n(n-1)/2} (g^{-1})_{IJ}``;
with ``KAPPA = 1`` these conventions are the unique calibration (fixed
once on the two-element basis, with the quadratic twist pinned by the
rank-4 diagonal case) under which ``Z`` reproduces the determinant of the
form exactly.  Both constants are frozen below and never re-tuned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import (
    AlgebraMismatchError,
    ConfigError,
    DegenerateTraceError,
)
from .laurent import _square
from .novikov import (
    Exponent,
    INFINITY,
    NovikovSeries,
    _entry,
    _iterable,
    _least_valuation,
    _parse_json_int,
    linear_combination,
)

Subset = Tuple[int, ...]

#: Frozen calibration scalar for the anticommutation relation.
KAPPA = Fraction(1)

#: Most units of work ``trace_Z`` accepts, as bounded from the supports of
#: the form alone (see ``_trace_work``): a mask visit or a weighted series
#: product, about 25 us each.  ``2^18`` masks of one key each took 6.5 s;
#: dense forms of two-term entries have the bound 48 034 at 7 generators
#: (1.2 s) and 205 904 at 8 (15 s), under Python 3.11 on a 2-core x86-64
#: machine.  No component above 16 generators passes; a diagonal form has
#: the bound ``3n`` for one-term entries.
TRACE_WORK_LIMIT = 10 ** 5

# Bits at odd 0-based positions: generators 2, 4, 6, ..., enough for any
# component within the limit (``2^m`` mask visits count against it).
_ODD_BITS = int("10" * TRACE_WORK_LIMIT.bit_length(), 2)


def shuffle_sign(I: Subset, J: Subset) -> int:
    """Sign of the shuffle sorting the concatenation of two disjoint tuples."""
    seq = list(I) + list(J)
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def _shuffle_parity(K: int) -> int:
    """Parity of the shuffle sorting the mask ``K`` followed by its
    complement: ``popcount(K & ODD) + C(|K|, 2)`` (see ``trace_Z``)."""
    m = K.bit_count()
    return ((K & _ODD_BITS).bit_count() + m * (m - 1) // 2) & 1


def _form_rows(form):
    """``(rows, blocks)`` of ``form`` by ``_square``, refusing asymmetry."""
    rows, blocks = _square(form, "form", "form matrix")
    if not all(flag for _, flag in blocks):
        raise ConfigError("form matrix is not symmetric")
    return rows, blocks


class CliffordAlgebraModel:
    """Rank ``2^n`` algebra built from a symmetric series-valued form."""

    def __init__(self, form: Sequence[Sequence[NovikovSeries]]):
        self.form, _ = _form_rows(form)
        self.n = len(self.form)
        # Contraction form B = (KAPPA/2) * form, the square of a generator.
        # An exact zero stays as it is: its product would be the same zero.
        half = KAPPA / 2
        self._b = tuple(tuple(entry if entry.is_exact_zero() else entry * half
                              for entry in row) for row in self.form)

    # -- elements ------------------------------------------------------------

    def element(self, coeffs: Dict[Subset, NovikovSeries]) -> "CliffordElement":
        return CliffordElement(self, coeffs)

    def basis_element(self, I: Iterable[int]) -> "CliffordElement":
        """``e_I`` for a subset ``I`` that ``_subset`` reads."""
        return CliffordElement(self, {_subset(I, self.n): NovikovSeries.one()})

    @property
    def unit(self) -> "CliffordElement":
        return self.basis_element(())

    @property
    def vol(self) -> "CliffordElement":
        """The volume class: the top wedge-basis element."""
        return self.basis_element(range(1, self.n + 1))

    def subsets(self) -> List[Subset]:
        out: List[Subset] = [()]
        for i in range(1, self.n + 1):
            out.extend(s + (i,) for s in list(out))
        return sorted(out, key=lambda s: (len(s), s))

    # -- products --------------------------------------------------------------

    def _generator_times(self, i: int,
                         coeffs: Dict[Subset, NovikovSeries]
                         ) -> Dict[Subset, NovikovSeries]:
        """Left product by ``e_i``: wedge insertion plus form contraction."""
        out: Dict[Subset, NovikovSeries] = {}
        for J, c in coeffs.items():
            if i not in J:
                pos = sum(1 for j in J if j < i)
                sign = -1 if pos % 2 else 1
                K = tuple(sorted(J + (i,)))
                _accumulate(out, K, c if sign == 1 else -c)
            for pos, j in enumerate(J):
                b = self._b[i - 1][j - 1]
                if b.is_exact_zero():
                    continue
                K = tuple(x for x in J if x != j)
                contrib = b * c
                _accumulate(out, K, contrib if pos % 2 == 0 else -contrib)
        return out

    def _basis_times(self, I: Subset,
                     coeffs: Dict[Subset, NovikovSeries]
                     ) -> Dict[Subset, NovikovSeries]:
        """Left product by the wedge-basis element ``e_I``.

        ``e_I = e_i * e_{I'} - iota_i(e_{I'})`` with ``i`` the least index,
        so the product recurses on strictly smaller wedge degree.
        """
        if not I:
            return dict(coeffs)
        i, rest = I[0], I[1:]
        acc = self._generator_times(i, self._basis_times(rest, coeffs))
        for pos, j in enumerate(rest):
            b = self._b[i - 1][j - 1]
            if b.is_exact_zero():
                continue
            K = tuple(x for x in rest if x != j)
            sub = self._basis_times(K, coeffs)
            sign = 1 if pos % 2 == 0 else -1
            for L, v in sub.items():
                _accumulate(acc, L, (-sign) * b * v)
        return acc

    # -- pairing ----------------------------------------------------------------

    def pairing_sign(self, I: Subset, J: Subset) -> int:
        """``<e_I, e_J>``: shuffle sign on complementary subsets, else 0."""
        if len(I) + len(J) != self.n or set(I) & set(J):
            return 0
        return shuffle_sign(I, J)


class CliffordElement:
    """Finite combination of wedge-basis elements with series coefficients.

    A coefficient known only as ``O(T^p)`` is kept: only exact zeros are
    dropped.  A key is a subset that ``_subset`` reads, and a coefficient
    must be a series or an exact rational; anything else raises
    ``ConfigError`` naming it, e.g. ``coeffs[(1,)]``.
    """

    __slots__ = ("algebra", "_coeffs")

    def __init__(self, algebra: CliffordAlgebraModel,
                 coeffs: Dict[Subset, NovikovSeries]):
        self.algebra = algebra
        cleaned = {}
        for I, c in coeffs.items():
            I = _subset(I, algebra.n)
            c = _entry(c, "coeffs", I)
            if not c.is_exact_zero():
                cleaned[I] = c
        self._coeffs = cleaned

    def coefficient(self, I: Iterable[int]) -> NovikovSeries:
        return self._coeffs.get(tuple(sorted(I)), NovikovSeries.zero())

    def is_zero(self) -> bool:
        """True when every coefficient is zero modulo its precision."""
        return all(c.is_zero() for c in self._coeffs.values())

    def __add__(self, other):
        _check_same_algebra(self, other)
        out = dict(self._coeffs)
        for I, c in other._coeffs.items():
            _accumulate(out, I, c)
        return CliffordElement(self.algebra, out)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return (self.algebra is other.algebra
                and self._coeffs == other._coeffs)

    def __repr__(self):
        if not self._coeffs:
            return "CliffordElement(0)"
        body = " + ".join(f"({c})*e{list(I)}"
                          for I, c in sorted(self._coeffs.items()))
        return f"CliffordElement({body})"


def _subset(I, n: int) -> Subset:
    """``I`` as a sorted tuple of distinct generators in ``1..n``.  ``I``
    is any iterable of JSON integers but a string or bytes
    (``novikov._iterable``, ``novikov._parse_json_int``); anything else
    raises ``ConfigError`` led by ``invalid basis subset``."""
    I = tuple(sorted(_parse_json_int(i, "invalid basis subset: a generator")
                     for i in _iterable(I, "invalid basis subset: not a list "
                                           "of generators")))
    if any(i < 1 or i > n for i in I) or len(set(I)) != len(I):
        raise ConfigError(f"invalid basis subset {I}")
    return I


def _accumulate(d: Dict, I, c: NovikovSeries):
    cur = d.get(I)
    c = cur + c if cur is not None else c
    if c.is_exact_zero():
        d.pop(I, None)
    else:
        d[I] = c


def _check_same_algebra(a: CliffordElement, b: CliffordElement):
    if not isinstance(b, CliffordElement):
        raise AlgebraMismatchError("algebra mismatch")
    if a.algebra is b.algebra:
        return
    if (a.algebra.n != b.algebra.n
            or a.algebra.form != b.algebra.form):
        raise AlgebraMismatchError("algebra mismatch")


def clifford_product(alg: CliffordAlgebraModel, a: CliffordElement,
                     b: CliffordElement) -> CliffordElement:
    """Bilinear product obeying ``e_i e_j + e_j e_i = KAPPA * form[i][j]``."""
    _check_same_algebra(a, b)
    if a.algebra is not alg and a.algebra.form != alg.form:
        raise AlgebraMismatchError("algebra mismatch")
    out: Dict[Subset, NovikovSeries] = {}
    for I, ca in a._coeffs.items():
        for J, cb in b._coeffs.items():
            w = ca * cb
            for K, v in alg._basis_times(I, {J: NovikovSeries.one()}).items():
                _accumulate(out, K, v * w)
    return CliffordElement(alg, out)


def poincare_pairing(alg: CliffordAlgebraModel, a: CliffordElement,
                     b: CliffordElement) -> NovikovSeries:
    """Integration pairing, extended bilinearly from the basis signs."""
    _check_same_algebra(a, b)
    total = NovikovSeries.zero()
    for I, ca in a._coeffs.items():
        for J, cb in b._coeffs.items():
            s = alg.pairing_sign(I, J)
            if s:
                term = ca * cb
                total = total + (term if s == 1 else -term)
    return total


def trace_Z(form: Sequence[Sequence[NovikovSeries]]) -> NovikovSeries:
    """The volume-class trace of ``CliffordAlgebraModel(form)``.

    Sums ``(-1)^{|I|} g^{IJ} <m2(e_I, vol), m2(e_J, vol)>`` over the basis,
    with the frozen graded-inversion signs; for a Hessian matrix this
    equals the Hessian determinant.  Each term is a product of ``n``
    entries of ``B = (KAPPA/2) form``, so the loop runs on the form and
    scales once: ``Z = (KAPPA/2)^n Z(form)``.  A form ``_form_rows``
    refuses, or a work bound off the supports (``_trace_work``) above
    ``TRACE_WORK_LIMIT``, raises ``ConfigError`` before any series product.

    The trace is the product of the traces of the form's components, the
    blocks ``laurent._square`` reads: when the generators split into two
    sets with ``B = 0`` between them, the algebra is the graded tensor
    product of the two sets' algebras (Chevalley; Lawson-Michelsohn, *Spin
    Geometry*, ch. I, section 1).  There ``e_I vol`` is, up to sign, the
    product of the two factors' ``e_{I1} vol1`` and ``e_{I2} vol2``, and the
    pairing and ``g^{IJ}`` factor likewise; the reordering signs cancel
    between the ``I`` and ``J`` sides of each term, so each term is a term
    of one factor's trace times a term of the other's.  The tests check the
    product against the definition, precision included, on block forms whose
    indices are interleaved.  Each component is traced by the mask loop
    below on its own generators, renumbered in increasing order.

    In the mask loop, subsets are int masks, bit ``i - 1`` standing for
    generator ``i``, and the complement of ``K`` is ``full ^ K``.

    * ``vol`` holds every index, so ``e_I vol`` has no wedge part: it is
      ``vol`` contracted against the rows ``I`` of the form, least index
      last.  ``products[I]`` is one contraction of
      ``products[I ^ (I & -I)]`` by the row of the least index of ``I``.
      The contraction walks that row's entries that are not exact zeros;
      removing generator ``j`` from a key ``J`` carries the sign of its
      position in ``J``, the parity of the bits of ``J`` below ``j``.
    * The shuffle sign ``sigma(K)`` of ``(K, full ^ K)`` counts the pairs
      ``a in K``, ``b`` outside with ``b < a``:
      ``sum_{a in K} (a - 1) - C(|K|, 2)``, whose parity is
      ``popcount(K & ODD) + C(|K|, 2)`` with ``ODD`` the bits at odd
      0-based positions.  ``g^{IJ}`` pairs ``I`` only with
      ``J = full ^ I``, where it is the shuffle sign of ``(J, I)`` times
      ``(-1)^{|I| + n(n-1)/2}``; with the factor ``(-1)^{|I|}`` the basis
      sign is ``s(I) = (-1)^{n(n-1)/2} sigma(J)``, and the ``(I, K)`` term
      carries ``s(I) sigma(K)``.
    * The term ``(I, K)`` and the term ``(J, Kc)``, ``Kc = full ^ K``, are
      the same product ``c d`` of ``c = products[I][K]`` and
      ``d = products[J][Kc]``.  Here
      ``s(I) s(J) = sigma(J) sigma(I) = (-1)^{|I||J|}`` and
      ``sigma(K) sigma(Kc) = (-1)^{|K||Kc|}``; every key of
      ``products[I]`` has ``|K| = n - |I| = |J|``, so both terms carry the
      sign ``s(I) sigma(K) = s(J) sigma(Kc)``.  Each pair ``{I, J}`` is
      therefore visited once, as the ``I`` without the top bit, with weight
      2 (weight 1 when ``n = 0``, where ``I = J``).  This rewrites the
      definition term by term; it does not use ``Z = det``.

    The weighted terms stream through one ``linear_combination``, which
    folds each into its accumulator as it comes, so no term list is held.
    A form entry is skipped, and a sum dropped, only when it is an exact
    zero, so entries known only as ``O(T^p)`` bound the precision.
    """
    return _trace(*_form_rows(form))


def _trace(form, comps) -> NovikovSeries:
    """``trace_Z`` of the symmetric form whose rows and blocks
    ``laurent._square`` read, for a caller that holds them already; the
    work bound is checked here."""
    blocks, work = [], 0
    for comp, _ in comps:
        # Row i of the form on the component, less its exact zeros, as
        # (bit of j, bits below j, form_ij) in the component's numbering.
        rows = [[(1 << a, (1 << a) - 1, form[i][j]) for a, j in enumerate(comp)
                 if not form[i][j].is_exact_zero()] for i in comp]
        work += _trace_work(rows, TRACE_WORK_LIMIT - work)
        if work > TRACE_WORK_LIMIT:
            raise ConfigError(f"the trace needs more than TRACE_WORK_LIMIT "
                              f"= {TRACE_WORK_LIMIT} units of work")
        blocks.append(rows)
    traces = [_trace_loop(rows) for rows in blocks] or [NovikovSeries.one()]
    return math.prod(traces[1:], start=traces[0]) * (KAPPA / 2) ** len(form)


def _trace_work(rows, budget: int) -> int:
    """A bound on the work of ``_trace_loop`` over ``rows``: its ``2^m``
    mask visits for ``m`` rows, plus its series products.

    ``N(I) = N(I ^ low) | supp(row low)``, with ``low`` the least bit of
    ``I``, holds every generator that contracting by the rows ``I`` can
    remove, so ``products[I]`` has at most ``C(|N(I)|, |I|)`` keys and each
    comes from at most one product per entry of row ``low``.  An entry is
    weighted by its term count (at least 1).  The sum stops once it passes
    ``budget``.
    """
    work = 1 << len(rows)
    supp = [sum(bit for bit, _, _ in row) for row in rows]
    weight = [sum(max(1, len(b.integer_form[2])) for _, _, b in row)
              for row in rows]
    reach = [0]
    for I in range(1, 1 << len(rows)):
        low = I & -I
        r = low.bit_length() - 1
        reach.append(reach[I ^ low] | supp[r])
        work += math.comb(reach[I].bit_count(), I.bit_count()) * weight[r]
        if work > budget:
            break
    return work


def _trace_loop(rows) -> NovikovSeries:
    """The mask loop of ``trace_Z`` on one component's rows of the form."""
    n = len(rows)
    full = (1 << n) - 1
    # The seed is the exact unit: a product by it is its other factor, so
    # none is formed (two per one-generator component).
    unit = NovikovSeries.one()
    products: List[Dict[int, NovikovSeries]] = [{full: unit}]
    for I in range(1, 1 << n):
        low = I & -I
        out: Dict[int, NovikovSeries] = {}
        for J, c in products[I ^ low].items():
            for bit, below, b in rows[low.bit_length() - 1]:
                if not J & bit:
                    continue
                term = b if c is unit else b * c
                _accumulate(out, J ^ bit,
                            -term if (J & below).bit_count() & 1 else term)
        products.append(out)
    twist = (n * (n - 1) // 2) & 1
    weight = 2 if n else 1

    def terms():
        for I in range(1 << max(n - 1, 0)):
            right = products[full ^ I]
            base = twist ^ _shuffle_parity(full ^ I)
            for K, c in products[I].items():
                d = right.get(full ^ K)
                if d is not None:
                    yield (-weight if base ^ _shuffle_parity(K)
                           else weight, d if c is unit else c * d)
    return linear_combination(terms())


def defect_bound(Z: NovikovSeries) -> Exponent:
    """Valuation of the trace: the quasimorphism-defect bound.

    An exactly vanishing trace means the underlying critical point was not
    Morse.  A trace known only as ``O(T^p)`` has no known valuation and
    raises ``PrecisionError``.
    """
    v = _least_valuation((Z,), lambda _: "the trace")
    if v is INFINITY:
        raise DegenerateTraceError("degenerate: not Morse")
    return v


def _leading_terms_match(Z: NovikovSeries, det: NovikovSeries) -> bool:
    """Whether the trace ``Z`` and the determinant ``det`` share their
    valuation and leading coefficient: the verdict of ``trace check`` and of
    each ``scan weyl`` row.  ``Z`` is read by ``defect_bound``; a
    determinant known only as ``O(T^p)`` raises ``PrecisionError``."""
    return (defect_bound(Z) == _least_valuation((det,),
                                                lambda _: "the determinant")
            and Z.leading_coefficient() == det.leading_coefficient())
