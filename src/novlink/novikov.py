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

Exponents and coefficients are exact rationals, stored as integers over
one denominator each; the precision is an integer over the exponents'
denominator.  No discreteness is imposed on the exponent group: callers
that need a fixed lattice enforce it themselves.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from pprint import pformat
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

#: Most digits ``as_fraction`` reads from a string: its length plus the
#: size of its exponent, which bounds the digits of the numerator and of
#: the denominator.  Python prints no integer of more than 4 300 digits by
#: default, and ``Fraction("1e10000000")`` alone took 7 s under Python
#: 3.11 on a 2-core x86-64 machine.
DIGIT_LIMIT = 4000

# The exponent of a decimal string, as ``Fraction`` reads it.
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def as_fraction(x: RationalLike, what: str = "value") -> Fraction:
    """``x`` as an exact Fraction: a Fraction, an int (not a bool) or a
    string ``Fraction`` parses; anything else raises ``ConfigError``
    naming ``what``, and so does a string of more than ``DIGIT_LIMIT``
    digits, before it is built."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if type(x) is not str:
        raise ConfigError(f"{what} must be an integer or a \"p/q\" string, "
                          f"got {_echo(x)}")
    m = _EXPONENT.search(x)
    exp = m.group(1).replace("_", "").lstrip("0") if m else ""
    if (len(exp) > len(str(DIGIT_LIMIT))
            or len(x) + int(exp or 0) > DIGIT_LIMIT):
        raise ConfigError(f"{what} {_echo(x)} has more than DIGIT_LIMIT = "
                          f"{DIGIT_LIMIT} digits")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"{what} {_echo(x)} is not a rational number") from exc


def _echo(x) -> str:
    """``repr(x)`` for a refusal, cut at six levels and 80 characters."""
    text = pformat(x, depth=6, width=sys.maxsize, sort_dicts=False)
    return text if len(text) <= 80 else text[:80] + "..."


def _entry(x, name: str, *index) -> "NovikovSeries":
    """A series, or an exact rational as a constant; else ``ConfigError``
    naming the entry, e.g. ``matrix[1][0]``."""
    if isinstance(x, NovikovSeries):
        return x
    where = name + "".join(f"[{i}]" for i in index)
    return NovikovSeries.monomial(as_fraction(x, where), 0)


def as_precision(x: PrecisionLike, what: str = "precision"
                 ) -> Union[Fraction, _Infinity]:
    """``INFINITY`` for itself or ``"inf"``, else ``as_fraction(x, what)``."""
    if x is INFINITY or (type(x) is str and x == "inf"):
        return INFINITY
    return as_fraction(x, what)


class NovikovSeries:
    """A formal sum ``sum a_i T^(b_i)`` known modulo ``T^precision``.

    Stored on integers: ``b_i = E[i] / de``, ``a_i = C[i] / dc`` and the
    precision ``P / de`` (``P`` is ``None`` for ``INFINITY``), with ``de``
    the least common denominator of the exponents and the precision and
    ``dc`` that of the coefficients (each 1 when there is nothing to
    cover), ``E`` strictly increasing and below ``P``, no zero in ``C``.
    The form is canonical, so equal series have equal fields; ``terms`` and
    ``precision`` are the Fraction view.  The empty term list with infinite
    precision is the exact zero.  Instances are immutable and hashable.
    """

    __slots__ = ("_de", "_dc", "_E", "_C", "_P")

    def __init__(self, terms: Iterable = (), precision: PrecisionLike = INFINITY):
        prec = as_precision(precision)
        es, cs = [], []
        for coeff, exp in terms:
            c = (coeff if type(coeff) is int
                 else as_fraction(coeff, "coefficient"))
            e = exp if type(exp) is int else as_fraction(exp, "exponent")
            if c:
                es.append(e)
                cs.append(c)
        # ``int`` has ``numerator`` and ``denominator`` too.
        de, P = _over(prec, math.lcm(*[e.denominator for e in es]))
        dc = math.lcm(*[c.denominator for c in cs])
        E = [e.numerator * (de // e.denominator) for e in es]
        C = [c.numerator * (dc // c.denominator) for c in cs]
        if any(a >= b for a, b in zip(E, E[1:])):
            merged = defaultdict(int)
            for e, c in zip(E, C):
                merged[e] += c
            E = sorted(e for e, c in merged.items() if c)
            C = [merged[e] for e in E]
        self._de, self._dc, self._E, self._C, self._P = _canonical(
            de, dc, E, C, P)

    @classmethod
    def _raw(cls, de: int, dc: int, E, C, P) -> "NovikovSeries":
        """Trusted constructor from an integer form with ``E`` strictly
        ascending and ``P`` an int over ``de`` or ``None`` (see
        ``_canonical``)."""
        s = object.__new__(cls)
        s._de, s._dc, s._E, s._C, s._P = _canonical(de, dc, E, C, P)
        return s

    def _at(self, de: int, P) -> "NovikovSeries":
        """The same terms read modulo ``T^(P / de)`` (``None``: exactly),
        for ``de`` a multiple of the series' own; terms at or above the
        precision are dropped."""
        return NovikovSeries._raw(de, self._dc,
                                  _rescale(self._E, de // self._de), self._C,
                                  P)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision: PrecisionLike = INFINITY) -> "NovikovSeries":
        de, P = _over(as_precision(precision), 1)
        return cls._raw(de, 1, (), (), P)

    @classmethod
    def one(cls) -> "NovikovSeries":
        return cls._raw(1, 1, (0,), (1,), None)

    @classmethod
    def monomial(cls, coeff: RationalLike, exp: RationalLike,
                 precision: PrecisionLike = INFINITY) -> "NovikovSeries":
        return cls(((coeff, exp),), precision)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self):
        """``(exponent, coefficient)`` Fraction pairs, exponents increasing."""
        de, dc = self._de, self._dc
        return tuple((Fraction(e, de), Fraction(c, dc))
                     for e, c in zip(self._E, self._C))

    @property
    def integer_form(self):
        """``(de, dc, E, C)``: the terms are ``(C[i] / dc) T^(E[i] / de)``,
        with ``de`` the least common denominator of the exponents and the
        precision and ``dc`` that of the coefficients."""
        return self._de, self._dc, self._E, self._C

    @property
    def precision(self):
        return INFINITY if self._P is None else Fraction(self._P, self._de)

    def is_zero(self) -> bool:
        """True when no term is known, i.e. zero modulo the precision."""
        return not self._E

    def is_exact(self) -> bool:
        return self._P is None

    def is_exact_zero(self) -> bool:
        """True only for the exact zero: ``O(T^p)`` is unknown, not zero,
        so it is the one zero a container may drop."""
        return not self._E and self._P is None

    def valuation(self):
        """Smallest stored exponent; ``INFINITY`` when the term list is empty.

        For a term-free series of finite precision the honest statement is
        only ``val >= precision``; the INFINITY return carries that caveat.
        """
        return Fraction(self._E[0], self._de) if self._E else INFINITY

    def val_lower_bound(self):
        """Valuation if a term exists, otherwise the precision bound."""
        return Fraction(self._E[0], self._de) if self._E else self.precision

    def leading_coefficient(self) -> Fraction:
        if not self._E:
            raise PrecisionError("series is zero modulo its precision")
        return Fraction(self._C[0], self._dc)

    def coefficient(self, exp: RationalLike) -> Fraction:
        e = as_fraction(exp, "exponent") * self._de
        i = bisect_left(self._E, e)
        if i < len(self._E) and self._E[i] == e:
            return Fraction(self._C[i], self._dc)
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return NovikovSeries._raw(self._de, self._dc, self._E,
                                  tuple(-c for c in self._C), self._P)

    def __add__(self, other):
        other = _coerce(other)
        return (other if other is NotImplemented
                else linear_combination(((1, self), (1, other))))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return (other if other is NotImplemented
                else linear_combination(((1, self), (-1, other))))

    def __rsub__(self, other):
        other = _coerce(other)
        return (other if other is NotImplemented
                else linear_combination(((1, other), (-1, self))))

    def __mul__(self, other):
        if type(other) is int and other:  # an exact scalar scales C alone
            return NovikovSeries._raw(self._de, self._dc, self._E,
                                      tuple(c * other for c in self._C),
                                      self._P)
        other = _coerce(other)
        return other if other is NotImplemented else _product(self, other)

    __rmul__ = __mul__

    def invert(self, target_precision: PrecisionLike = None) -> "NovikovSeries":
        """Multiplicative inverse, valid modulo ``T^target_precision``.

        An exact monomial inverts exactly without a target.  Otherwise the
        inverse is an infinite series and a target is required unless the
        input precision already bounds what is knowable:
        ``prec(1/x) = min(target, prec(x) - 2 val(x))``.
        """
        if not self._E:
            raise NotInvertibleError("not invertible at this precision")
        target = (INFINITY if target_precision is None
                  else as_precision(target_precision, "target_precision"))
        # Exponents and precisions over one denominator that covers the
        # target; ``lead = 1 / (c0 T^v)``, where ``c0 = C[0] / dc``.
        de, t = _over(target, self._de)
        E, C, c0 = _rescale(self._E, de // self._de), self._C, self._C[0]
        v, sign = E[0], 1 if c0 > 0 else -1
        lead = NovikovSeries._raw(de, abs(c0), (-v,), (sign * self._dc,),
                                  None)
        if len(E) == 1 and self._P is None:
            return lead._at(de, t)
        out = None if self._P is None else self._P * (de // self._de) - 2 * v
        if t is not None and (out is None or t < out):
            out = t
        if out is None:
            raise PrecisionError(
                "inverse of a multi-term exact series is infinite; pass "
                + ("target_precision" if target_precision is None
                   else "a finite target_precision"))
        if out <= -v:
            raise PrecisionError("target precision does not reach the "
                                 "leading term of the inverse")
        if len(E) == 1:
            return lead._at(de, out)
        # Normalize to s = 1 + u with val(u) > 0, then Newton-iterate
        # y <- y (2 - s y); the congruence s*y = 1 doubles in depth per
        # step.  Each step reads the iterate modulo ``T^cur``, so every
        # product stops there; the iteration self-corrects, so the next
        # step reads it as exact up to its own ``cur`` (the input's true
        # precision is already folded into ``out``).
        rel = out + v
        s = NovikovSeries._raw(de, abs(c0), [e - v for e in E],
                               [sign * c for c in C], None)
        two = NovikovSeries._raw(1, 1, (0,), (2,), None)
        y = NovikovSeries.one()
        reach = 2 * (E[1] - v)
        while True:
            cur = min(reach, rel)
            y = y._at(de, cur)
            y = _product(y, two - _product(s, y))
            if cur == rel:
                break
            reach += reach
        return _product(y, lead)

    # -- precision management ---------------------------------------------

    def truncate(self, precision: PrecisionLike) -> "NovikovSeries":
        """Forget everything at or above ``T^precision``."""
        de, P = _over(as_precision(precision), self._de)
        if P is None or (self._P is not None
                         and self._P * (de // self._de) <= P):
            return self
        return self._at(de, P)

    def assume_precision(self, precision: PrecisionLike) -> "NovikovSeries":
        """Reinterpret the stored terms as valid modulo ``T^precision``.

        Unlike ``truncate`` this may *raise* the precision: the caller
        asserts the terms are trustworthy up to the new bound.  Used by
        self-correcting iterations that re-verify their output.
        """
        return self._at(*_over(as_precision(precision), self._de))

    def eq_mod(self, other, precision: PrecisionLike) -> bool:
        """Equality of the parts below ``T^precision``."""
        other = _coerce(other)
        return (self - other).truncate(precision).is_zero()

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self._de, self._dc, self._E, self._C, self._P

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        """JSON-ready dict: terms as ``{"c": "p/q", "e": "p/q"}`` strings."""
        return {
            "terms": [{"c": _text(c), "e": _text(e)}
                      for e, c in self.terms],
            "prec": "inf" if self._P is None else _text(self.precision),
        }

    @classmethod
    def from_obj(cls, obj) -> "NovikovSeries":
        """Parse ``to_obj`` output, or a bare term list for an exact series.

        Coefficients, exponents and the precision must be JSON integers or
        strings; a float or bool, a term without ``"c"`` or ``"e"``, or an
        unknown key raises ``ConfigError``.
        """
        terms, fields = _json_list(
            obj, "a series must be a term list or an object whose "
            "\"terms\" is one", "terms", optional=("terms", "prec"))
        rule = "series terms must be a list of objects"
        terms = [_json_fields(t, rule, ("c", "e")) for t in terms]
        return cls([(t["c"], t["e"]) for t in terms],
                   fields.get("prec", INFINITY))

    def __repr__(self):
        return f"NovikovSeries({self})"

    def __str__(self):
        if not self._E:
            if self._P is None:
                return "0"
            return f"O(T^{_fmt_exp(self.precision)})"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            mag = _text(abs(c))
            if e == 0:
                body = mag
            elif mag == "1":
                body = f"T^{_fmt_exp(e)}" if e != 1 else "T"
            else:
                body = (f"{mag}*T^{_fmt_exp(e)}" if e != 1 else f"{mag}*T")
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        if self._P is not None:
            parts.append(f"+ O(T^{_fmt_exp(self.precision)})")
        return " ".join(parts)


def _parse_json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer (not a bool), else ``ConfigError``."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{what} must be a JSON integer, got {_echo(x)}")
    return x


def _positive_int(x, what: str) -> int:
    """``x`` if it is a JSON integer of at least 1, else ``ConfigError``."""
    if _parse_json_int(x, what) < 1:
        raise ConfigError(f"{what} must be a positive integer")
    return x


def _positive_fraction(x: RationalLike, what: str) -> Fraction:
    """``as_fraction(x, what)`` if it is above 0, else ``ConfigError``."""
    x = as_fraction(x, what)
    if x <= 0:
        raise ConfigError(f"{what} must be positive")
    return x


def _json_fields(obj, rule: str, required=(), optional=()) -> dict:
    """A copy of the JSON object ``obj``, which has every key of the tuple
    ``required`` and others only from ``optional``.  ``rule`` says what
    ``obj`` must be and leads each ``ConfigError``: for a non-object, a
    missing key (``has no "<key>"``) or an unknown one, which a typo would
    otherwise turn into a default without a word."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{rule}, got {_echo(obj)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{rule}; {_echo(obj)} has no \"{key}\"")
    for key in obj:
        if key not in required + optional:
            raise ConfigError(f"{rule}; {_echo(obj)} has an unknown key "
                              f"{_echo(key)}, not one of "
                              f"{required + optional}")
    return dict(obj)


def _json_array(x, rule: str, size=None):
    """``x`` if it is a JSON list (a tuple from Python code), of ``size``
    entries when given, else ``ConfigError`` led by ``rule``."""
    if not isinstance(x, (list, tuple)) or size not in (None, len(x)):
        raise ConfigError(f"{rule}, got {_echo(x)}")
    return x


def _iterable(x, rule: str):
    """An iterator over ``x`` (a generator included), else ``ConfigError``
    led by ``rule``: for a string or bytes, whose characters are no
    entries, or anything that cannot be iterated."""
    try:
        if not isinstance(x, (str, bytes)):
            return iter(x)
    except TypeError:
        pass
    raise ConfigError(f"{rule}, got {_echo(x)}")


def _json_list(obj, rule: str, key: str, required=(), optional=()):
    """``(items, fields)``: the JSON list ``obj`` and no fields, or the
    list under ``key`` (empty if missing) and the other fields of the
    object ``obj``, read by ``_json_fields(obj, rule, required, optional)``."""
    if isinstance(obj, (list, tuple)):
        return obj, {}
    fields = _json_fields(obj, rule, required, optional)
    return _json_array(fields.pop(key, []), rule), fields


def _int_vector(x) -> tuple:
    """A JSON list of JSON integers (monomial exponents) as a tuple."""
    rule = "monomial exponents must be a list of integers"
    return tuple(_parse_json_int(e, "monomial exponents")
                 for e in _json_array(x, rule))


def _pair(x, what: str, parse) -> tuple:
    """``(lo, hi)`` from a JSON list of two, each entry read by
    ``parse(entry, what + " entry")``."""
    lo, hi = _json_array(x, f"{what} must be a pair (lo, hi)", 2)
    return parse(lo, f"{what} entry"), parse(hi, f"{what} entry")


def _text(x) -> str:
    """``str(x)`` of an int or Fraction, as every series prints its
    rationals; one with more digits than Python prints
    (``sys.get_int_max_str_digits()``) raises ``ConfigError``."""
    try:
        return str(x)
    except ValueError:
        raise ConfigError(
            f"a value has more than sys.get_int_max_str_digits() = "
            f"{sys.get_int_max_str_digits()} digits, too many to print"
        ) from None


def _fmt_exp(e) -> str:
    s = _text(e)
    return f"({s})" if "/" in s or s.startswith("-") else s


def _over(prec, de: int):
    """``(D, P)``: ``D`` the least multiple of ``de`` over which the
    precision is an integer, and ``P`` that integer (``None`` for
    ``INFINITY``)."""
    if prec is INFINITY:
        return de, None
    q = prec.denominator
    if de % q:
        de = math.lcm(de, q)
    return de, prec.numerator * (de // q)


def _canonical(de: int, dc: int, E, C, P):
    """``(de, dc, E, C, P)`` less the terms at or above ``T^(P / de)`` and
    the zero coefficients, reduced to the least denominators (one C-level
    ``gcd`` each, ``P`` folded into that of ``E``), lists as tuples."""
    if P is not None and E:
        n = bisect_left(E, P)
        E, C = E[:n], C[:n]
    if 0 in C:  # terms cancelled
        E = [e for e, c in zip(E, C) if c]
        C = [c for c in C if c]
    if not C:
        if P is None:
            return 1, 1, (), (), None
        h = math.gcd(de, P)
        return de // h, 1, (), (), P // h
    if len(C) == 1:  # most series are monomials: no lists to build
        g = math.gcd(dc, C[0])
        h = math.gcd(de, E[0]) if P is None else math.gcd(de, E[0], P)
        return (de // h, dc // g, (E[0] // h,), (C[0] // g,),
                None if P is None else P // h)
    g = math.gcd(dc, *C)
    if g != 1:
        dc //= g
        C = [c // g for c in C]
    g = math.gcd(de, *E) if P is None else math.gcd(de, P, *E)
    if g != 1:
        de //= g
        E = [e // g for e in E]
        if P is not None:
            P //= g
    return de, dc, tuple(E), tuple(C), P


def _rescale(E, m: int):
    return E if m == 1 else [e * m for e in E]


def _product_precision(x: "NovikovSeries", y: "NovikovSeries", de: int):
    """``min(prec x + val y, prec y + val x)`` as an int over ``de``, a
    multiple of both operands' own, where a term-free operand's valuation
    is bounded below by its precision; ``None`` (``INFINITY``) when no
    candidate is finite, at once when both operands are exact."""
    px, py = x._P, y._P
    if px is None and py is None:
        return None
    vx = x._E[0] if x._E else px
    vy = y._E[0] if y._E else py
    mx, my = de // x._de, de // y._de
    prec = None
    if px is not None and vy is not None:
        prec = px * mx + vy * my
    if py is not None and vx is not None:
        p = py * my + vx * mx
        if prec is None or p < prec:
            prec = p
    return prec


def _product(x: "NovikovSeries", y: "NovikovSeries") -> "NovikovSeries":
    """``x * y`` with its adic precision.

    Exponents and precisions go over one common denominator and
    coefficients multiply as integers over ``dc(x) * dc(y)``.
    """
    de = x._de if x._de == y._de else math.lcm(x._de, y._de)
    prec = _product_precision(x, y, de)
    E1, E2 = x._E, y._E
    if not E1 or not E2:
        return NovikovSeries._raw(de, 1, (), (), prec)
    E1, E2 = _rescale(E1, de // x._de), _rescale(E2, de // y._de)
    C1, C2 = x._C, y._C
    hi = E1[-1] + E2[-1] + 1
    if prec is not None and prec < hi:
        hi = prec
    acc: dict = {}
    for ea, ca in zip(E1, C1):
        for eb, cb in zip(E2, C2):
            e = ea + eb
            if e >= hi:
                break  # second factor ascending: the rest only larger
            acc[e] = acc.get(e, 0) + ca * cb
    E = sorted(acc)
    return NovikovSeries._raw(de, x._dc * y._dc, E, [acc[e] for e in E], prec)


def linear_combination(pairs) -> "NovikovSeries":
    """``sum w * x`` over ``(int w, NovikovSeries x)`` pairs.

    The pairs are read once, each folded into one ``{exponent:
    coefficient}`` accumulator over a running common exponent denominator
    and coefficient denominator, which are widened (and the accumulator and
    running precision rescaled) only when a summand needs it; one canonical
    form at the end.  The result is known modulo the least precision of all
    summands, so an ``O(T^p)`` summand bounds it even where its terms
    cancel; no pairs give the exact zero.
    """
    P, de, dc = None, 1, 1
    acc: dict = {}
    for w, x in pairs:
        if de % x._de:
            f = x._de // math.gcd(de, x._de)
            if acc:
                acc = {e * f: c for e, c in acc.items()}
            if P is not None:
                P *= f
            de *= f
        if dc % x._dc:
            m = x._dc // math.gcd(dc, x._dc)
            if acc:
                acc = {e: c * m for e, c in acc.items()}
            dc *= m
        f, m = de // x._de, w * (dc // x._dc)
        if x._P is not None and (P is None or x._P * f < P):
            P = x._P * f
        for e, c in zip(x._E, x._C):
            e *= f
            acc[e] = acc.get(e, 0) + c * m
    E = sorted(acc)
    return NovikovSeries._raw(de, dc, E, [acc[e] for e in E], P)


def _least_valuation(series, name=None):
    """The least valuation of the ``series``, on their integer forms;
    ``INFINITY`` when all are exact zeros.  A series known only as
    ``O(T^p)`` with ``p`` at or below it leaves that layer unknown and
    raises ``PrecisionError``, naming series ``i`` ``name(i)`` if given."""
    E = de = P = pde = bad = None
    for i, x in enumerate(series):
        if x._E:
            if E is None or x._E[0] * de < E * x._de:
                E, de = x._E[0], x._de
        elif x._P is not None and (P is None or x._P * pde < P * x._de):
            P, pde, bad = x._P, x._de, i
    if P is not None and (E is None or P * de <= E * pde):
        what = ("a series" if name is None else name(bad)) + \
            f" is O(T^{_fmt_exp(Fraction(P, pde))})"
        raise PrecisionError(
            f"no layer is known: {what}" if E is None else
            f"layer T^{_fmt_exp(Fraction(E, de))} is unknown: {what}")
    return INFINITY if E is None else Fraction(E, de)


def _coerce(x):
    if isinstance(x, NovikovSeries):
        return x
    if type(x) in (int, Fraction):
        return NovikovSeries.monomial(x, 0)
    return NotImplemented


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
    divisor has no finite inverse, so each dividend is multiplied by the
    inverse taken as far as it needs.  A finite-precision dividend takes it
    to its own relative precision, which gives the quotient that precision.
    An exact dividend must have a finite quotient ``q``, whose top exponent
    is ``top(a) - top(b)`` (top terms of exact products never cancel) and
    whose exponents lie on the ``1 / lcm(de_a, de_b)`` grid, so the inverse
    taken one grid step past that top gives every term of ``q``; ``q`` is
    returned when ``q * b == a``.  A dividend with a shorter span than the
    divisor, or a failed check product, raises ``InexactDivisionError``.
    """
    if len(b._E) < 2 or b._P is not None:
        inverse = b.invert()  # raises for a term-free divisor
        return lambda a: a * inverse
    vb, tb = b.valuation(), Fraction(b._E[-1], b._de)

    def quotient(a: NovikovSeries) -> NovikovSeries:
        if not a._E:
            return NovikovSeries.zero(a.precision - vb)
        va = a.valuation()
        if a._P is not None:
            return a * b.invert(a.precision - va - vb)
        ta = Fraction(a._E[-1], a._de)
        if ta - va >= tb - vb:
            eps = Fraction(1, math.lcm(a._de, b._de))
            q = (a * b.invert(ta - tb - va + eps)).assume_precision(INFINITY)
            if q * b == a:
                return q
        raise InexactDivisionError("division of exact series is not exact")

    return quotient


def is_unitary(x: NovikovSeries) -> bool:
    """Unit test: valuation zero with invertible leading coefficient.

    This is the multiplicative-group convention for the unitary subgroup
    (valuation-0 elements with nonzero lead); coefficients live in a field,
    so a nonzero lead is always invertible.
    """
    return bool(x._E) and x._E[0] == 0
