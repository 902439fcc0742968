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

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import (
    AlgebraMismatchError,
    ConfigError,
    DegenerateTraceError,
    PrecisionError,
)
from .novikov import (
    Exponent,
    NovikovSeries,
    linear_combination,
)

Subset = Tuple[int, ...]

#: Frozen calibration scalar for the anticommutation relation.
KAPPA = Fraction(1)

#: Most generators ``trace_Z`` accepts.  It bounds ``n`` only and is
#: calibrated on diagonal (chain-link) forms: their ``2^n`` subsets took
#: 6.5 s and 179 MB at 18, 14 s at 19, under Python 3.11 on a 2-core
#: x86-64 machine.  Dense forms grow about 8x per step of ``n``, so one
#: far below the limit (a dense 12 x 12 form) can still run for hours.
TRACE_N_LIMIT = 18

# Bits at odd 0-based positions: generators 2, 4, 6, ...
_ODD_BITS = int("10" * TRACE_N_LIMIT, 2)


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


class CliffordAlgebraModel:
    """Rank ``2^n`` algebra built from a symmetric series-valued form."""

    def __init__(self, form: Sequence[Sequence[NovikovSeries]]):
        n = len(form)
        rows = []
        for row in form:
            row = [NovikovSeries.from_scalar(x) for x in row]
            if len(row) != n:
                raise ConfigError("form matrix is not square")
            rows.append(tuple(row))
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ConfigError("form matrix is not symmetric")
        self.n = n
        self.form = tuple(rows)
        # Contraction form B = (KAPPA/2) * form, the square of a generator.
        half = KAPPA / 2
        self._b = tuple(tuple(entry * half for entry in row) for row in rows)

    # -- elements ------------------------------------------------------------

    def element(self, coeffs: Dict[Subset, NovikovSeries]) -> "CliffordElement":
        return CliffordElement(self, coeffs)

    def basis_element(self, I: Iterable[int]) -> "CliffordElement":
        I = tuple(sorted(int(i) for i in I))
        if any(i < 1 or i > self.n for i in I) or len(set(I)) != len(I):
            raise ConfigError(f"invalid basis subset {I}")
        return CliffordElement(self, {I: NovikovSeries.one()})

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
    dropped.
    """

    __slots__ = ("algebra", "_coeffs")

    def __init__(self, algebra: CliffordAlgebraModel,
                 coeffs: Dict[Subset, NovikovSeries]):
        self.algebra = algebra
        cleaned = {}
        for I, c in coeffs.items():
            I = tuple(sorted(I))
            c = NovikovSeries.from_scalar(c)
            if not c.is_exact_zero():
                cleaned[I] = c
        self._coeffs = cleaned

    @property
    def coeffs(self) -> Dict[Subset, NovikovSeries]:
        return dict(self._coeffs)

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

    def __neg__(self):
        return CliffordElement(self.algebra,
                               {I: -c for I, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, u) -> "CliffordElement":
        u = NovikovSeries.from_scalar(u)
        return CliffordElement(self.algebra,
                               {I: c * u for I, c in self._coeffs.items()})

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


def trace_Z(alg: CliffordAlgebraModel) -> NovikovSeries:
    """The volume-class trace of the algebra.

    Sums ``(-1)^{|I|} g^{IJ} <m2(e_I, vol), m2(e_J, vol)>`` over the basis,
    with the frozen graded-inversion signs; for an algebra built from a
    Hessian matrix this equals the Hessian determinant.  More than
    ``TRACE_N_LIMIT`` generators raise ``ConfigError`` before any work;
    the limit bounds ``n`` only, so a dense form below it can still run
    for hours (see ``TRACE_N_LIMIT``).

    Subsets are int masks, bit ``i - 1`` standing for generator ``i``, and
    the complement of ``K`` is ``full ^ K``.

    * ``vol`` holds every index, so ``e_I vol`` has no wedge part: it is
      ``vol`` contracted against the rows ``I`` of ``B = (KAPPA/2) form``,
      least index last.  ``products[I]`` is one contraction of
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
    n = alg.n
    if n > TRACE_N_LIMIT:
        raise ConfigError(f"the trace of {n} generators is above the limit "
                          f"TRACE_N_LIMIT = {TRACE_N_LIMIT}")
    full = (1 << n) - 1
    # Row i of B less its exact zeros, as (bit of j, bits below j, B_ij).
    rows = [[(1 << j, (1 << j) - 1, b) for j, b in enumerate(row)
             if not b.is_exact_zero()] for row in alg._b]
    products: List[Dict[int, NovikovSeries]] = [{full: NovikovSeries.one()}]
    for I in range(1, 1 << n):
        low = I & -I
        out: Dict[int, NovikovSeries] = {}
        for J, c in products[I ^ low].items():
            for bit, below, b in rows[low.bit_length() - 1]:
                if not J & bit:
                    continue
                term = b * c
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
                           else weight, c * d)
    return linear_combination(terms())


def defect_bound(Z: NovikovSeries) -> Exponent:
    """Valuation of the trace: the quasimorphism-defect bound.

    An exactly vanishing trace means the underlying critical point was not
    Morse.  A trace known only as ``O(T^p)`` has no known valuation and
    raises ``PrecisionError``.
    """
    if Z.is_zero():
        if Z.is_exact():
            raise DegenerateTraceError("degenerate: not Morse")
        raise PrecisionError(f"trace is known only as O(T^{Z.precision}); "
                             "its valuation is unknown")
    return Z.valuation()
