"""Laurent polynomials over the Novikov field and their torus calculus.

A potential is a finite sum of monomials ``coeff * z^m`` with integer
exponent vectors ``m`` and Novikov-series coefficients.  Critical-point
theory on the unit torus uses multiplicative (logarithmic) derivatives
throughout: the gradient component ``i`` is ``z_i d/dz_i W`` and the
Hessian entry ``(i, j)`` is ``z_i d/dz_i z_j d/dz_j W``, the natural
nondegeneracy operators for unit-torus critical points.

Determinants of series matrices are computed by fraction-free Bareiss
elimination; the intermediate divisions are exact in the series ring, so no
adic precision is lost to division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ConfigError,
    NonUnitaryError,
    PrecisionError,
    SingularMatrixError,
)
from .novikov import (
    INFINITY,
    NovikovSeries,
    _divider,
    _parse_json_int,
    as_precision,
    is_unitary,
    linear_combination,
)

ExponentVector = Tuple[int, ...]


class UnitaryPoint:
    """A point on the unit torus: coordinates of valuation zero.

    Each coordinate must have an invertible leading coefficient at exponent
    zero (the multiplicative unit group of the series field).
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Sequence[NovikovSeries]):
        coords = tuple(NovikovSeries.from_scalar(c) for c in coords)
        for c in coords:
            if not is_unitary(c):
                raise NonUnitaryError("point not in unitary torus")
        self._coords = coords

    @property
    def coords(self) -> Tuple[NovikovSeries, ...]:
        return self._coords

    def __len__(self):
        return len(self._coords)

    def __iter__(self):
        return iter(self._coords)

    def __getitem__(self, i):
        return self._coords[i]

    def __eq__(self, other):
        if not isinstance(other, UnitaryPoint):
            return NotImplemented
        return self._coords == other._coords

    def __hash__(self):
        return hash(self._coords)

    def leading_tuple(self) -> Tuple[Fraction, ...]:
        """Leading (constant-order) coordinates over the rationals."""
        return tuple(c.leading_coefficient() for c in self._coords)

    def precision(self):
        """Smallest coordinate precision (INFINITY when all exact)."""
        return min((c.precision for c in self._coords), default=INFINITY)

    def to_obj(self) -> dict:
        return {"coords": [c.to_obj() for c in self._coords]}

    @classmethod
    def from_obj(cls, obj) -> "UnitaryPoint":
        """Parse ``to_obj`` output: an object whose ``coords`` is a list."""
        coords = obj.get("coords") if isinstance(obj, dict) else None
        if not isinstance(coords, list):
            raise ConfigError(f"a point must be an object with a \"coords\" "
                              f"list, got {obj!r}")
        return cls([NovikovSeries.from_obj(c) for c in coords])

    def __repr__(self):
        inner = ", ".join(str(c) for c in self._coords)
        return f"UnitaryPoint({inner})"


class LaurentPotential:
    """Finite Laurent polynomial in ``num_vars`` variables over the series field.

    ``num_vars`` and the exponents must be ints (a bool, float or string
    raises ``ConfigError``).  Only an exact-zero coefficient is dropped.
    """

    __slots__ = ("_num_vars", "_terms")

    def __init__(self, num_vars: int,
                 terms: Optional[Dict[ExponentVector, NovikovSeries]] = None):
        if _parse_json_int(num_vars, "num_vars") < 1:
            raise ConfigError("num_vars must be a positive integer")
        self._num_vars = num_vars
        cleaned: Dict[ExponentVector, NovikovSeries] = {}
        for m, coeff in (terms or {}).items():
            m = tuple(_parse_json_int(e, "monomial exponents") for e in m)
            if len(m) != self._num_vars:
                raise ConfigError("exponent vector length does not match "
                                  "num_vars")
            coeff = NovikovSeries.from_scalar(coeff)
            if m in cleaned:
                coeff = cleaned[m] + coeff
            if coeff.is_exact_zero():
                cleaned.pop(m, None)
                continue
            cleaned[m] = coeff
        self._terms = cleaned

    # -- basic structure ----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def items(self):
        """Deterministic (exponent vector, coefficient) iteration."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, m: ExponentVector) -> NovikovSeries:
        return self._terms.get(tuple(m), NovikovSeries.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, LaurentPotential):
            return NotImplemented
        return (self._num_vars == other._num_vars
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self._num_vars, tuple(sorted(self._terms.items()))))

    def __add__(self, other):
        if isinstance(other, LaurentPotential):
            if other._num_vars != self._num_vars:
                raise ConfigError("potentials have different variable counts")
            merged = dict(self._terms)
            for m, c in other._terms.items():
                merged[m] = merged.get(m, NovikovSeries.zero()) + c
            return LaurentPotential(self._num_vars, merged)
        return NotImplemented

    def __neg__(self):
        return LaurentPotential(
            self._num_vars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, LaurentPotential):
            return self + (-other)
        return NotImplemented

    def scale(self, u) -> "LaurentPotential":
        """Multiply every coefficient by the scalar ``u``."""
        u = NovikovSeries.from_scalar(u)
        return LaurentPotential(
            self._num_vars, {m: c * u for m, c in self._terms.items()})

    def min_coefficient_valuation(self):
        vals = [c.valuation() for c in self._terms.values()]
        return min(vals) if vals else INFINITY

    def terms_through(self, cutoff) -> Dict[ExponentVector, NovikovSeries]:
        """The terms whose coefficient has valuation ``<= cutoff``.

        A coefficient known only as ``O(T^p)`` with ``p <= cutoff`` may or
        may not reach the layer ``T^cutoff``, which leaves that layer
        unknown: it raises ``PrecisionError`` naming the monomial.
        """
        kept = {}
        for m, c in sorted(self._terms.items()):
            if c.is_zero() and c.precision <= cutoff:
                raise PrecisionError(
                    f"layer T^{cutoff} is unknown: the coefficient of "
                    f"z^{list(m)} is O(T^{c.precision})")
            if c.valuation() <= cutoff:
                kept[m] = c
        return kept

    # -- torus calculus ------------------------------------------------------

    def _monomial_table(self, point, target_precision):
        """``(prec, [(m, coeff * z^m mod T^prec)])`` over sorted monomials.

        ``prec`` is the target, or ``INFINITY`` without one.  Every
        coordinate power comes from one memo, built by repeated
        multiplication at the factor precision
        ``prec - min(min coefficient valuation, 0)``, which is enough for
        every coefficient to reach ``T^prec``.  Without a target the table
        is exact, which requires every coordinate raised to a negative
        power to be an exact monomial.
        """
        coords = _as_unitary_coords(point, self._num_vars)
        exact = target_precision is None
        prec = INFINITY if exact else as_precision(target_precision)
        min_cval = min((c.val_lower_bound() for c in self._terms.values()),
                       default=Fraction(0))
        factor_prec = prec - min(min_cval, Fraction(0))

        def inverse(c):
            # ``invert`` alone would accept a finite-precision monomial.
            if exact and (len(c.terms) != 1 or not c.is_exact()):
                raise PrecisionError(
                    "exact evaluation needs monomial coordinates for "
                    "negative powers; pass target_precision")
            return c.invert(factor_prec)

        powers: Dict[Tuple[int, int], NovikovSeries] = {}

        def power(i, e):
            # Extend from the highest memoised power of the same sign.
            step = 1 if e > 0 else -1
            base = powers.get((i, step))
            if base is None:
                base = coords[i] if step > 0 else inverse(coords[i])
                base = powers[(i, step)] = base.truncate(factor_prec)
            n = e
            while (i, n) not in powers:
                n -= step
            got = powers[(i, n)]
            while n != e:
                n += step
                got = powers[(i, n)] = (got * base).truncate(factor_prec)
            return got

        table = []
        for m, coeff in sorted(self._terms.items()):
            value = coeff
            for i, e in enumerate(m):
                if e:
                    value = value * power(i, e)
            table.append((m, value.truncate(prec)))
        return prec, table

    def evaluate(self, point, target_precision=None) -> NovikovSeries:
        """Value at a unitary point, modulo ``T^target_precision``.

        Without a target the evaluation is exact, which requires every
        coordinate raised to a negative power to be an exact monomial
        (constant points qualify); otherwise a target must be supplied.
        """
        prec, table = self._monomial_table(point, target_precision)
        return linear_combination((1, value)
                                  for _, value in table).truncate(prec)

    def log_jet(self, point, target_precision=None):
        """Log-gradient and log-Hessian at a unitary point in one pass.

        Returns ``(gradient, hessian)``: entry by entry the values of
        ``log_gradient()`` and ``log_hessian()`` at the point modulo
        ``T^target_precision``, read off one monomial table as sums
        weighted by ``m_i`` and ``m_i * m_j``.  The exactness rules are
        those of ``evaluate``.  An entry that no monomial reaches is
        identically zero and comes out as an exact zero, which keeps
        Hessians sparse.
        """
        _, table = self._monomial_table(point, target_precision)
        n = self._num_vars
        gradient = [NovikovSeries.zero()] * n
        hessian = [[NovikovSeries.zero()] * n for _ in range(n)]
        # Only entries with j >= i are summed; m_i m_j = m_j m_i and the
        # monomials come in one order, so the mirror is the same series.
        for m, value in table:
            live = [(i, mi) for i, mi in enumerate(m) if mi]
            for a, (i, mi) in enumerate(live):
                gradient[i] = gradient[i] + value * mi
                row = hessian[i]
                for j, mj in live[a:]:
                    row[j] = row[j] + value * (mi * mj)
        for i in range(n):
            for j in range(i + 1, n):
                hessian[j][i] = hessian[i][j]
        return gradient, hessian

    def log_gradient(self) -> List["LaurentPotential"]:
        """Multiplicative gradient: component ``i`` is ``sum m_i coeff z^m``."""
        out = []
        for i in range(self._num_vars):
            comp = {}
            for m, coeff in self._terms.items():
                if m[i]:
                    comp[m] = coeff * m[i]
            out.append(LaurentPotential(self._num_vars, comp))
        return out

    def log_hessian(self) -> List[List["LaurentPotential"]]:
        """Symbolic matrix of second multiplicative derivatives."""
        n = self._num_vars
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                comp = {}
                for m, coeff in self._terms.items():
                    f = m[i] * m[j]
                    if f:
                        comp[m] = coeff * f
                row.append(LaurentPotential(n, comp))
            rows.append(row)
        return rows

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "num_vars": self._num_vars,
            "terms": [{"m": list(m), "coeff": c.to_obj()}
                      for m, c in sorted(self._terms.items())],
        }

    @classmethod
    def from_obj(cls, obj) -> "LaurentPotential":
        """Parse ``to_obj`` output, or a bare term list.

        ``num_vars`` and the monomial exponents must be JSON integers; a
        float, bool or string raises ``ConfigError``.
        """
        if isinstance(obj, list):
            items = obj
            if not items:
                raise ConfigError("cannot infer variable count from an "
                                  "empty term list")
            num_vars = None
        elif isinstance(obj, dict):
            items = obj.get("terms", [])
            num_vars = obj.get("num_vars")
            if num_vars is None and not items:
                raise ConfigError("potential needs num_vars or terms")
        else:
            raise ConfigError(f"a potential must be a term list or an "
                              f"object, got {obj!r}")
        if not isinstance(items, list):
            raise ConfigError("potential terms must be a list")
        terms: Dict[ExponentVector, NovikovSeries] = {}
        for item in items:
            m = item["m"] if isinstance(item, dict) else None
            if not isinstance(m, list):
                raise ConfigError(f"monomial exponents must be a list of "
                                  f"integers, got {m!r}")
            # Checked before merging: ``(1.0,)`` and ``(1,)`` are one key.
            m = tuple(_parse_json_int(e, "monomial exponents") for e in m)
            coeff = NovikovSeries.from_obj(item["coeff"])
            terms[m] = terms.get(m, NovikovSeries.zero()) + coeff
        if num_vars is None:
            num_vars = len(next(iter(terms)))
        return cls(num_vars, terms)

    def __repr__(self):
        body = " + ".join(f"({c})*z^{list(m)}" for m, c in self.items())
        return f"LaurentPotential[{self._num_vars}]({body or '0'})"


def _as_unitary_coords(point, num_vars):
    if not isinstance(point, UnitaryPoint):
        point = UnitaryPoint(point)
    coords = point.coords
    if len(coords) != num_vars:
        raise ConfigError(f"point has {len(coords)} coordinates, potential "
                          f"has {num_vars} variables")
    return coords


# -- series matrices ---------------------------------------------------------


def det_bareiss(matrix: Sequence[Sequence[NovikovSeries]]) -> NovikovSeries:
    """Determinant by fraction-free Bareiss elimination.

    Row pivoting picks the lowest-valuation nonzero entry in each column;
    the Bareiss divisions are exact, so precision follows the adic rules
    with no division loss.  Each step's divisor is inverted at most once
    (see ``novikov._divider``).  The empty matrix has determinant 1.
    """
    n = len(matrix)
    if n == 0:
        return NovikovSeries.one()
    m = [list(row) for row in matrix]
    for row in m:
        if len(row) != n:
            raise ConfigError("matrix is not square")
    sign = 1
    prev = NovikovSeries.one()
    for k in range(n - 1):
        pivot_row = _pick_pivot(m, k)
        if pivot_row is None:
            return _singular_det(m, k, prev)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        by_prev = _divider(prev)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = by_prev(num)
            m[i][k] = NovikovSeries.zero(m[i][k].precision)
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return out if sign == 1 else -out


def _pick_pivot(m, k):
    best = None
    best_val = None
    for i in range(k, len(m)):
        entry = m[i][k]
        if entry.is_zero():
            continue
        v = entry.valuation()
        if best is None or v < best_val:
            best, best_val = i, v
    return best


def _singular_det(m, k, prev):
    """The determinant once column ``k`` vanishes mod precision below row k.

    Sylvester's identity gives ``det = +-det(M) / prev^(n-k-1)`` for the
    block ``M`` left at rows and columns ``k..n-1``.  Expanding ``det(M)``
    along column ``k``, entry ``i`` is ``O(T^p_i)`` and its cofactor has
    valuation at least the sum, over the other rows, of each row's least
    valuation bound in columns ``k+1..n-1``.  The least ``p_i`` plus that
    sum, less ``(n-k-1) val(prev)``, is how far the determinant is known to
    be zero.
    """
    n = len(m)
    low = {r: min(m[r][j].val_lower_bound() for j in range(k + 1, n))
           for r in range(k, n)}
    prec = INFINITY
    for i in range(k, n):
        cofactor = sum(low[r] for r in low if r != i)
        prec = min(prec, m[i][k].precision + cofactor)
    if prec is not INFINITY:
        prec = prec - (n - k - 1) * prev.valuation()
    return NovikovSeries.zero(prec)


def solve_linear(matrix: Sequence[Sequence[NovikovSeries]],
                 rhs: Sequence[NovikovSeries],
                 target_precision=None) -> List[NovikovSeries]:
    """Solve ``matrix @ x = rhs`` over the series field.

    Gaussian elimination with lowest-valuation pivoting; division precision
    follows the adic rules, and each pivot is inverted at most once (see
    ``novikov._divider``).  The elimination divisions are generic, so with
    fully exact inputs a ``target_precision`` cap is required to keep the
    quotients finite.  Raises ``SingularMatrixError`` when no pivot with a
    nonzero leading term exists at the available precision.
    """
    n = len(matrix)
    if target_precision is not None:
        tp = as_precision(target_precision)
        matrix = [[e.truncate(tp) for e in row] for row in matrix]
        rhs = [e.truncate(tp) for e in rhs]
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    by_pivot = []
    for k in range(n):
        best = _pick_pivot(a, k)
        if best is None:
            raise SingularMatrixError("matrix is singular at the available "
                                      "precision")
        if best != k:
            a[k], a[best] = a[best], a[k]
        by_pivot.append(_divider(a[k][k]))
        for i in range(k + 1, n):
            if a[i][k].is_exact_zero():
                continue
            factor = by_pivot[k](a[i][k])
            for j in range(k, n + 1):
                a[i][j] = a[i][j] - factor * a[k][j]
    xs: List[NovikovSeries] = [NovikovSeries.zero()] * n
    for k in range(n - 1, -1, -1):
        acc = a[k][n]
        for j in range(k + 1, n):
            acc = acc - a[k][j] * xs[j]
        xs[k] = by_pivot[k](acc)
    return xs
