"""Exact arithmetic in the Novikov field with absolute-precision tracking.

Elements are finite formal sums ``sum a_i * T^(b_i)`` with nonzero rational
coefficients ``a_i`` and strictly increasing rational exponents ``b_i``,
together with an absolute precision: the element is known modulo
``T^precision``.  Precision ``INFINITY`` means the sum is exact.  Negative
exponents are allowed (the field contains elements of negative valuation,
e.g. inverses of positive-valuation units and idempotents of semisimple
quantum algebras).

Precision propagates adically:

* ``add``/``sub``: result precision is the min of the operand precisions;
* ``mul``: result precision is ``min(prec_x + val(y), prec_y + val(x))``,
  where a term-free operand contributes its precision as the valuation
  lower bound.

Exponents are plain ``fractions.Fraction`` values.  No discreteness is
imposed on the exponent group: callers that need a fixed lattice enforce it
themselves.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    ConfigError,
    InexactDivisionError,
    NotInvertibleError,
    PrecisionError,
)

#: Type alias for exponents: exact rationals with total order.
Exponent = Fraction


class _Infinity:
    """Positive infinity for precision/valuation bookkeeping.

    Compares above every Fraction and absorbs addition.  A single shared
    instance ``INFINITY`` is used everywhere; identity comparison is safe.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("novlink-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("infinity - infinity is undefined")
        return self

    def __neg__(self):
        raise ArithmeticError("negative infinity is not used")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

#: Values accepted wherever an exact rational is expected.
RationalLike = Union[int, str, Fraction]
PrecisionLike = Union[Fraction, int, str, _Infinity]

def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def as_precision(x: PrecisionLike) -> Union[Fraction, _Infinity]:
    if x is INFINITY:
        return x
    if isinstance(x, str) and x.strip().lower() in ("inf", "infinity", "+inf"):
        return INFINITY
    return as_fraction(x)


class NovikovSeries:
    """A formal sum ``sum a_i T^(b_i)`` known modulo ``T^precision``.

    Invariants: exponents strictly increasing, all below ``precision``; no
    zero coefficients stored.  The empty term list with infinite precision
    is the exact zero.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_precision")

    def __init__(self, terms: Iterable = (), precision: PrecisionLike = INFINITY):
        prec = as_precision(precision)
        # Merge on cheap (num, den) keys; Fraction hashing is expensive.
        merged: dict = {}
        for coeff, exp in terms:
            c = as_fraction(coeff)
            if c == 0:
                continue
            e = as_fraction(exp)
            key = (e.numerator, e.denominator)
            cur = merged.get(key)
            merged[key] = (e, c) if cur is None else (e, cur[1] + c)
        pairs = [(e, c) for e, c in merged.values()
                 if c != 0 and (prec is INFINITY or e < prec)]
        pairs.sort(key=_first)
        self._terms = tuple(pairs)
        self._precision = prec

    @classmethod
    def _raw(cls, terms: tuple, precision) -> "NovikovSeries":
        """Trusted constructor: terms sorted, nonzero, below precision."""
        s = object.__new__(cls)
        s._terms = terms
        s._precision = precision
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision: PrecisionLike = INFINITY) -> "NovikovSeries":
        return cls((), precision)

    @classmethod
    def one(cls) -> "NovikovSeries":
        return cls.monomial(1, 0)

    @classmethod
    def monomial(cls, coeff: RationalLike, exp: RationalLike,
                 precision: PrecisionLike = INFINITY) -> "NovikovSeries":
        return cls(((as_fraction(coeff), as_fraction(exp)),), precision)

    @classmethod
    def from_scalar(cls, value) -> "NovikovSeries":
        if isinstance(value, NovikovSeries):
            return value
        return cls.monomial(as_fraction(value), 0)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self):
        """Tuple of ``(exponent, coefficient)`` pairs, exponents increasing."""
        return self._terms

    @property
    def precision(self):
        return self._precision

    def is_zero(self) -> bool:
        """True when no term is known, i.e. zero modulo the precision."""
        return not self._terms

    def is_exact(self) -> bool:
        return self._precision is INFINITY

    def is_exact_zero(self) -> bool:
        """True only for the exact zero: ``O(T^p)`` is unknown, not zero,
        so it is the one zero a container may drop."""
        return not self._terms and self._precision is INFINITY

    def valuation(self):
        """Smallest stored exponent; ``INFINITY`` when the term list is empty.

        For a term-free series of finite precision the honest statement is
        only ``val >= precision``; the INFINITY return carries that caveat.
        """
        if self._terms:
            return self._terms[0][0]
        return INFINITY

    def val_lower_bound(self):
        """Valuation if a term exists, otherwise the precision bound."""
        if self._terms:
            return self._terms[0][0]
        return self._precision

    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            raise PrecisionError("series is zero modulo its precision")
        return self._terms[0][1]

    def coefficient(self, exp: RationalLike) -> Fraction:
        e = as_fraction(exp)
        for te, tc in self._terms:
            if te == e:
                return tc
            if te > e:
                break
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return NovikovSeries._raw(tuple((e, -c) for e, c in self._terms),
                                  self._precision)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = min(self._precision, other._precision)
        out = _merge_sorted(self._terms, other._terms, prec)
        return NovikovSeries._raw(out, prec)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = min(self._precision, other._precision)
        neg = tuple((e, -c) for e, c in other._terms)
        return NovikovSeries._raw(_merge_sorted(self._terms, neg, prec),
                                  prec)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = _product_precision(self, other)
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return NovikovSeries._raw((), prec)
        if len(t1) == 1:
            t1, t2 = t2, t1
        if len(t2) == 1:
            e0, c0 = t2[0]
            if prec is INFINITY:
                out = tuple((e + e0, c * c0) for e, c in t1)
            else:
                out = tuple((e + e0, c * c0) for e, c in t1
                            if e + e0 < prec)
            return NovikovSeries._raw(out, prec)
        # Integer convolution: the inner loop touches no Fractions.
        de1, dc1 = _denominators(t1)
        de2, dc2 = _denominators(t2)
        de = math.lcm(de1, de2)
        n1 = _int_terms(t1, de, dc1)
        n2 = _int_terms(t2, de, dc2)
        bound = None if prec is INFINITY else math.ceil(prec * de)
        merged: dict = {}
        get = merged.get
        for ea, ca in n1:
            for eb, cb in n2:
                e = ea + eb
                if bound is not None and e >= bound:
                    break  # second factor ascending: rest only larger
                cur = get(e)
                merged[e] = ca * cb if cur is None else cur + ca * cb
        return _from_ints(merged, de, dc1 * dc2, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return divide(self, other)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers need a precision target; "
                             "use power(n, target_precision)")
        return self.power(n)

    def power(self, n: int, target_precision: PrecisionLike = None
              ) -> "NovikovSeries":
        """``self**n`` for any integer n; negative n inverts first."""
        if n < 0:
            return self.invert(target_precision).power(-n)
        result = NovikovSeries.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        if target_precision is not None:
            result = result.truncate(target_precision)
        return result

    def invert(self, target_precision: PrecisionLike = None) -> "NovikovSeries":
        """Multiplicative inverse, valid modulo ``T^target_precision``.

        An exact monomial inverts exactly without a target.  Otherwise the
        inverse is an infinite series and a target is required unless the
        input precision already bounds what is knowable:
        ``prec(1/x) = min(target, prec(x) - 2 val(x))``.
        """
        if not self._terms:
            raise NotInvertibleError("not invertible at this precision")
        v, c0 = self._terms[0]
        rel_in = (INFINITY if self._precision is INFINITY
                  else self._precision - v)
        if len(self._terms) == 1 and self._precision is INFINITY:
            inv = NovikovSeries.monomial(1 / c0, -v)
            if target_precision is not None:
                inv = inv.truncate(target_precision)
            return inv
        if target_precision is None:
            if rel_in is INFINITY:
                raise PrecisionError(
                    "inverse of a multi-term exact series is infinite; "
                    "pass target_precision")
            out_prec = -v + rel_in
        else:
            out_prec = min(as_precision(target_precision), -v + rel_in)
        if out_prec is INFINITY:
            raise PrecisionError(
                "inverse of a multi-term exact series is infinite; "
                "pass a finite target_precision")
        if out_prec <= -v:
            raise PrecisionError("target precision does not reach the "
                                 "leading term of the inverse")
        if len(self._terms) == 1:
            return NovikovSeries._raw(((-v, 1 / c0),), out_prec)
        # Normalize to s = 1 + u with val(u) > 0, then Newton-iterate
        # y <- y (2 - s y); the congruence s*y = 1 doubles in depth per
        # step.  Intermediates are chopped as exact polynomials: the
        # iteration self-corrects, so no precision metadata is carried
        # (the input's true precision is already folded into out_prec).
        rel_out = out_prec + v
        s = NovikovSeries._raw(
            tuple((e - v, c / c0) for e, c in self._terms), INFINITY)
        gap = s._terms[1][0]
        y = NovikovSeries.one()
        reach = gap + gap
        two = NovikovSeries.monomial(2, 0)
        while True:
            cur = min(reach, rel_out)
            t = _chop(s * y, cur)
            y = _chop(y * (two - t), cur)
            if cur == rel_out:
                break
            reach = reach + reach
        pairs = tuple((e - v, c / c0) for e, c in y.terms)
        return NovikovSeries._raw(pairs, out_prec)

    # -- precision management ---------------------------------------------

    def truncate(self, precision: PrecisionLike) -> "NovikovSeries":
        """Forget everything at or above ``T^precision``."""
        prec = min(self._precision, as_precision(precision))
        if prec is self._precision:
            return self
        out = tuple((e, c) for e, c in self._terms if e < prec)
        return NovikovSeries._raw(out, prec)

    def assume_precision(self, precision: PrecisionLike) -> "NovikovSeries":
        """Reinterpret the stored terms as valid modulo ``T^precision``.

        Unlike ``truncate`` this may *raise* the precision: the caller
        asserts the terms are trustworthy up to the new bound.  Used by
        self-correcting iterations that re-verify their output.
        """
        prec = as_precision(precision)
        out = tuple(p for p in self._terms
                    if prec is INFINITY or p[0] < prec)
        return NovikovSeries._raw(out, prec)

    def eq_mod(self, other, precision: PrecisionLike) -> bool:
        """Equality of the parts below ``T^precision``."""
        other = _coerce(other)
        return (self - other).truncate(precision).is_zero()

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._terms == other._terms
                and self._precision == other._precision)

    def __hash__(self):
        return hash((self._terms, self._precision))

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        """JSON-ready dict: terms as ``{"c": "p/q", "e": "p/q"}`` strings."""
        return {
            "terms": [{"c": str(c), "e": str(e)} for e, c in self._terms],
            "prec": ("inf" if self._precision is INFINITY
                     else str(self._precision)),
        }

    @classmethod
    def from_obj(cls, obj) -> "NovikovSeries":
        """Parse ``to_obj`` output, or a bare term list for an exact series.

        Coefficients, exponents and the precision must be JSON integers or
        strings; a float or bool raises ``ConfigError``.
        """
        if isinstance(obj, list):
            terms = obj
            prec = "inf"
        elif isinstance(obj, dict):
            terms = obj.get("terms", [])
            prec = obj.get("prec", "inf")
        else:
            raise ConfigError(f"a series must be a term list or an object, "
                              f"got {obj!r}")
        if not isinstance(terms, list) or not all(isinstance(t, dict)
                                                  for t in terms):
            raise ConfigError("series terms must be a list of objects")
        return cls([(_parse_json_number(t["c"], "coefficient", as_fraction),
                     _parse_json_number(t["e"], "exponent", as_fraction))
                    for t in terms],
                   _parse_json_number(prec, "precision", as_precision))

    def __repr__(self):
        return f"NovikovSeries({self})"

    def __str__(self):
        if not self._terms:
            if self._precision is INFINITY:
                return "0"
            return f"O(T^{_fmt_exp(self._precision)})"
        parts = []
        for i, (e, c) in enumerate(self._terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = f"T^{_fmt_exp(e)}" if e != 1 else "T"
            else:
                body = (f"{mag}*T^{_fmt_exp(e)}" if e != 1 else f"{mag}*T")
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        if self._precision is not INFINITY:
            parts.append(f"+ O(T^{_fmt_exp(self._precision)})")
        return " ".join(parts)


def _parse_json_number(x, what: str, parse):
    """``parse(x)`` for a JSON integer or string, else ``ConfigError``."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ConfigError(f"{what} must be an integer or a \"p/q\" string, "
                          f"got {x!r}")
    try:
        return parse(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what} {x!r} is not a rational number") from exc


def _parse_json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer (not a bool), else ``ConfigError``."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{what} must be a JSON integer, got {x!r}")
    return x


def _fmt_exp(e) -> str:
    s = str(e)
    return f"({s})" if "/" in s or s.startswith("-") else s


def _first(pair):
    return pair[0]


def _chop(x: "NovikovSeries", bound) -> "NovikovSeries":
    """Drop terms at or above ``bound`` without recording a precision."""
    return NovikovSeries._raw(tuple(p for p in x._terms if p[0] < bound),
                              INFINITY)


def _product_precision(x: "NovikovSeries", y: "NovikovSeries"):
    """``min(prec x + val y, prec y + val x)``, where a term-free operand's
    valuation is bounded below by its precision; ``INFINITY`` at once when
    both operands are exact."""
    if x._precision is INFINITY and y._precision is INFINITY:
        return INFINITY
    return min(x._precision + y.val_lower_bound(),
               y._precision + x.val_lower_bound())


def _denominators(terms):
    """``(de, dc)``: least common denominators of the exponents and of the
    coefficients of ``(exponent, coefficient)`` pairs (1 for none)."""
    return (math.lcm(*(e.denominator for e, _ in terms)),
            math.lcm(*(c.denominator for _, c in terms)))


def _int_terms(terms, de: int, dc: int):
    """The pairs as ``(e * de, c * dc)`` integers; ``de`` and ``dc`` must be
    multiples of every exponent and coefficient denominator."""
    return [(e.numerator * (de // e.denominator),
             c.numerator * (dc // c.denominator)) for e, c in terms]


def _from_ints(merged: dict, de: int, dc: int, prec) -> "NovikovSeries":
    """The series ``sum (c / dc) T^(e / de)`` over an integer ``{e: c}``
    dict, known modulo ``T^prec``: zero coefficients and terms at or above
    ``prec`` are dropped."""
    # ``e / de < prec`` on integers; Python compares ints with ``inf``
    # exactly.
    bound = math.inf if prec is INFINITY else math.ceil(prec * de)
    return NovikovSeries._raw(
        tuple((Fraction(e, de), Fraction(c, dc))
              for e, c in sorted(merged.items()) if c and e < bound), prec)


def _merge_sorted(t1, t2, prec):
    """Merge two ascending term tuples, cancelling equal exponents."""
    finite = prec is not INFINITY
    out = []
    i = j = 0
    n1, n2 = len(t1), len(t2)
    while i < n1 and j < n2:
        e1, c1 = t1[i]
        e2, c2 = t2[j]
        if e1 < e2:
            out.append((e1, c1))
            i += 1
        elif e2 < e1:
            out.append((e2, c2))
            j += 1
        else:
            c = c1 + c2
            if c != 0:
                out.append((e1, c))
            i += 1
            j += 1
    out.extend(t1[i:])
    out.extend(t2[j:])
    if finite:
        while out and out[-1][0] >= prec:
            out.pop()
    return tuple(out)


def _coerce(x):
    if isinstance(x, NovikovSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return NovikovSeries.monomial(x, 0)
    return NotImplemented


def val(x: NovikovSeries):
    """Valuation: the smallest exponent, or ``INFINITY`` for (mod-)zero."""
    return x.valuation()


def divide(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Quotient ``a / b`` with adic precision tracking (see ``_divider``).

    With an inexact operand the quotient carries the relative precision
    ``min(relprec(a), relprec(b))`` above its valuation, which is the best
    knowable.  With exact operands the quotient must be finite, or
    ``InexactDivisionError`` is raised; fraction-free elimination divides
    exactly by construction.
    """
    return _divider(b)(a)


def _divider(b: NovikovSeries):
    """``a -> a / b`` for one divisor ``b`` and any number of dividends.

    A monomial or finite-precision divisor is inverted once: ``a`` times
    ``b.invert()`` has exactly the quotient's terms and precision
    ``val(a) - val(b) + min(relprec(a), relprec(b))``.  An exact multi-term
    divisor has no finite inverse: an exact dividend takes the exact
    quotient (``_exact_quotient``), and a finite-precision one is multiplied
    by the inverse taken to its own relative precision, which gives it that
    precision.
    """
    if len(b._terms) < 2 or b._precision is not INFINITY:
        inverse = b.invert()  # raises for a term-free divisor
        return lambda a: a * inverse
    vb = b._terms[0][0]

    def quotient(a: NovikovSeries) -> NovikovSeries:
        if not a._terms:
            return NovikovSeries.zero(a._precision - vb)
        if a._precision is INFINITY:
            return _exact_quotient(a._terms, b._terms)
        return a * b.invert(a._precision - a._terms[0][0] - vb)

    return quotient


def _exact_quotient(ta, tb) -> NovikovSeries:
    """Exact quotient of two exact term tuples by long division.

    Exponents go over one common denominator, the dividend's coefficients
    over theirs, and the divisor's are made primitive integers.  By Gauss's
    lemma an exact quotient by a primitive integer divisor has integer
    coefficients, so ``InexactDivisionError`` is raised as soon as a
    quotient coefficient is not an integer or a quotient term passes
    ``top(a) - top(b)``.  The remainder is an ``{exponent: coefficient}``
    dict on integers whose exponents wait in a heap.
    """
    dea, dca = _denominators(ta)
    deb, dcb = _denominators(tb)
    de = math.lcm(dea, deb)
    nb = _int_terms(tb, de, dcb)
    g = math.gcd(*(c for _, c in nb))
    vb, lead = nb[0][0], nb[0][1] // g
    tail = [(f - vb, c // g) for f, c in nb[1:]]
    rem = dict(_int_terms(ta, de, dca))
    qtop = max(rem) - nb[-1][0]
    heap = sorted(rem)
    quotient = {}
    while rem:
        x = heapq.heappop(heap)
        c = rem.pop(x, 0)
        if not c:
            continue  # cancelled after it was queued
        q, r = divmod(c, lead)
        e = x - vb
        if r or e > qtop:
            raise InexactDivisionError("division of exact series is not "
                                       "exact")
        quotient[e] = q * dcb
        # Tail gaps are positive, so every key touched lies above ``x``.
        for f, cb in tail:
            y, d = x + f, q * cb
            cur = rem.get(y)
            if cur is None:
                rem[y] = -d
                heapq.heappush(heap, y)
            elif cur != d:
                rem[y] = cur - d
            else:
                del rem[y]
    return _from_ints(quotient, de, dca * g, INFINITY)


def is_unitary(x: NovikovSeries) -> bool:
    """Unit test: valuation zero with invertible leading coefficient.

    This is the multiplicative-group convention for the unitary subgroup
    (valuation-0 elements with nonzero lead); coefficients live in a field,
    so a nonzero lead is always invertible.
    """
    return bool(x.terms) and x.terms[0][0] == 0
