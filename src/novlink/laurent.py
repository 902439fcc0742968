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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

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
    _entry,
    _int_vector,
    _iterable,
    _json_array,
    _json_fields,
    _json_list,
    _positive_int,
    as_precision,
    is_unitary,
    linear_combination,
)

ExponentVector = Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class UnitaryPoint:
    """A point on the unit torus: coordinates of valuation zero.

    Each coordinate must have an invertible leading coefficient at exponent
    zero (the multiplicative unit group of the series field).  ``coords``
    is any iterable of series or exact rationals but a string or bytes
    (``novikov._iterable``); anything else raises ``ConfigError``.
    """

    coords: Tuple[NovikovSeries, ...]

    def __post_init__(self):
        coords = tuple(_entry(c, "coords", i) for i, c in enumerate(
            _iterable(self.coords, "coords must be a list of coordinates")))
        for c in coords:
            if not is_unitary(c):
                raise NonUnitaryError("point not in unitary torus")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _raw(cls, coords) -> "UnitaryPoint":
        """Trusted constructor: ``coords`` a tuple of unitary series, as
        ``__post_init__`` leaves them."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        return point

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def leading_tuple(self) -> Tuple[Fraction, ...]:
        """Leading (constant-order) coordinates over the rationals."""
        return tuple(c.leading_coefficient() for c in self.coords)

    def precision(self):
        """Smallest coordinate precision (INFINITY when all exact)."""
        return min((c.precision for c in self.coords), default=INFINITY)

    def to_obj(self) -> dict:
        return {"coords": [c.to_obj() for c in self.coords]}

    @classmethod
    def from_obj(cls, obj) -> "UnitaryPoint":
        """Parse ``to_obj`` output: an object whose ``coords`` is a list."""
        rule = "a point must be an object with a \"coords\" list"
        coords = _json_array(_json_fields(obj, rule, ("coords",))["coords"],
                             rule)
        return cls([NovikovSeries.from_obj(c) for c in coords])

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coords)
        return f"UnitaryPoint({inner})"


@dataclass(frozen=True, slots=True)
class LaurentPotential:
    """Finite Laurent polynomial in ``num_vars`` variables over the series field.

    ``terms`` is a mapping ``{m: coeff}`` or an iterable of ``(m, coeff)``
    pairs, each a list or tuple of two (anything else raises one
    ``ConfigError``); repeated monomials are summed, and the field holds the
    result as one tuple of ``(m, coeff)`` pairs sorted by ``m``.
    ``num_vars`` and the exponents must be ints, in a list or tuple (else
    ``ConfigError``), and a coefficient a series or an exact rational
    (anything else raises ``ConfigError`` naming its monomial, e.g.
    ``terms[(1,)]``).  Only an exact-zero coefficient is dropped.
    """

    num_vars: int
    terms: Tuple[Tuple[ExponentVector, NovikovSeries], ...] = ()

    def __post_init__(self):
        n = _positive_int(self.num_vars, "num_vars")
        terms = self.terms
        if hasattr(terms, "items"):
            terms = terms.items()
        rule = "terms must be a mapping or a list of (m, coeff) pairs"
        cleaned: Dict[ExponentVector, NovikovSeries] = {}
        for pair in _iterable(terms, rule):
            m, coeff = _json_array(pair, rule, 2)
            m = _int_vector(m)
            if len(m) != n:
                raise ConfigError("exponent vector length does not match "
                                  "num_vars")
            coeff = _entry(coeff, "terms", m)
            if m in cleaned:
                coeff = cleaned[m] + coeff
            if coeff.is_exact_zero():
                cleaned.pop(m, None)
                continue
            cleaned[m] = coeff
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    @classmethod
    def _raw(cls, num_vars: int, terms) -> "LaurentPotential":
        """Trusted constructor: ``num_vars`` a positive int and ``terms`` a
        tuple of ``(m, coeff)`` pairs as ``__post_init__`` leaves them, each
        ``m`` a tuple of ``num_vars`` ints, no ``m`` twice, sorted by ``m``,
        and no ``coeff`` the exact zero."""
        W = object.__new__(cls)
        object.__setattr__(W, "num_vars", num_vars)
        object.__setattr__(W, "terms", terms)
        return W

    # -- basic structure ----------------------------------------------------

    def items(self):
        """Deterministic (exponent vector, coefficient) iteration."""
        return iter(self.terms)

    def coefficient(self, m: ExponentVector) -> NovikovSeries:
        return dict(self.terms).get(tuple(m), NovikovSeries.zero())

    def __add__(self, other):
        if isinstance(other, LaurentPotential):
            if other.num_vars != self.num_vars:
                raise ConfigError("potentials have different variable counts")
            return LaurentPotential(self.num_vars, self.terms + other.terms)
        return NotImplemented

    def terms_through(self, cutoff) -> Dict[ExponentVector, NovikovSeries]:
        """The terms whose coefficient has valuation ``<= cutoff``.

        A coefficient known only as ``O(T^p)`` with ``p <= cutoff`` may or
        may not reach the layer ``T^cutoff``, which leaves that layer
        unknown: it raises ``PrecisionError`` naming the monomial.
        """
        kept = {}
        for m, c in self.terms:
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
        multiplication at the factor precision ``prec - v`` (``prec`` if
        ``v >= prec``) for the least coefficient valuation bound ``v``,
        enough for every coefficient to reach ``T^prec``.  A negative power
        starts from ``invert`` at the factor precision, so its rule applies:
        with no target an exact monomial coordinate inverts exactly, a
        finite-precision one keeps the precision it carries, and a
        multi-term exact one raises ``PrecisionError``.
        """
        coords = _as_point(point, self.num_vars).coords
        prec = (INFINITY if target_precision is None
                else as_precision(target_precision, "target_precision"))
        min_cval = min((c.val_lower_bound() for _, c in self.terms),
                       default=Fraction(0))
        factor_prec = prec - min_cval if min_cval < prec else prec

        powers: Dict[Tuple[int, int], NovikovSeries] = {}

        def power(i, e):
            # Extend from the highest memoised power of the same sign.
            step = 1 if e > 0 else -1
            base = powers.get((i, step))
            if base is None:
                base = (coords[i] if step > 0
                        else coords[i].invert(factor_prec))
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
        for m, coeff in self.terms:
            value = coeff
            for i, e in enumerate(m):
                if e:
                    value = value * power(i, e)
            table.append((m, value.truncate(prec)))
        return prec, table

    def evaluate(self, point, target_precision=None) -> NovikovSeries:
        """Value at a unitary point, modulo ``T^target_precision``.

        Without a target nothing is truncated: the value keeps the
        precision the coefficients and coordinates carry, and is exact
        when they are exact monomials (constant points qualify).  A
        coordinate raised to a negative power follows ``invert``'s rule,
        so a multi-term exact one needs a target.
        """
        prec, table = self._monomial_table(point, target_precision)
        return linear_combination((1, value)
                                  for _, value in table).truncate(prec)

    def log_jet(self, point, target_precision=None):
        """Log-gradient and log-Hessian at a unitary point in one pass.

        Returns ``(gradient, hessian)``: entry by entry the values of
        ``sum m_i coeff z^m`` and ``sum m_i m_j coeff z^m`` at the point
        modulo ``T^target_precision``, read off one monomial table as sums
        weighted by ``m_i`` and ``m_i * m_j``.  The precision rules are
        those of ``evaluate``.  An entry that no monomial reaches is
        identically zero and comes out as an exact zero, which keeps
        Hessians sparse.
        """
        _, table = self._monomial_table(point, target_precision)
        return (_table_gradient(table, self.num_vars),
                _table_hessian(table, self.num_vars))

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "terms": [{"m": list(m), "coeff": c.to_obj()}
                      for m, c in self.terms],
        }

    @classmethod
    def from_obj(cls, obj) -> "LaurentPotential":
        """Parse ``to_obj`` output, or a bare term list.

        ``num_vars`` and the monomial exponents must be JSON integers; a
        float, bool or string, or an unknown key, raises ``ConfigError``.
        """
        items, fields = _json_list(
            obj, "a potential must be a term list or an object whose "
            "\"terms\" is one", "terms", optional=("num_vars", "terms"))
        rule = "potential terms must be a list of objects"
        terms = [(t["m"], NovikovSeries.from_obj(t["coeff"])) for t in
                 (_json_fields(item, rule, ("m", "coeff")) for item in items)]
        if "num_vars" in fields:
            return cls(fields["num_vars"], terms)
        if not terms:
            raise ConfigError("potential needs num_vars or terms")
        return cls(len(_int_vector(terms[0][0])), terms)

    def __repr__(self):
        body = " + ".join(f"({c})*z^{list(m)}" for m, c in self.terms)
        return f"LaurentPotential[{self.num_vars}]({body or '0'})"


def _as_point(point, num_vars) -> UnitaryPoint:
    """``point`` as a ``UnitaryPoint`` of ``num_vars`` coordinates."""
    if not isinstance(point, UnitaryPoint):
        point = UnitaryPoint(point)
    if len(point) != num_vars:
        raise ConfigError(f"point has {len(point)} coordinates, potential "
                          f"has {num_vars} variables")
    return point


def _table_gradient(table, n) -> List[NovikovSeries]:
    """Log-gradient from a monomial table: entry ``i`` sums ``m_i value``.

    Each entry is one ``linear_combination`` of its ``(m_i, value)`` pairs;
    an entry that no monomial reaches folds no pairs and is an exact zero.
    """
    pairs = [[] for _ in range(n)]
    for m, value in table:
        for i, mi in enumerate(m):
            if mi:
                pairs[i].append((mi, value))
    return [linear_combination(p) for p in pairs]


def _table_hessian(table, n, precision=INFINITY
                   ) -> List[List[NovikovSeries]]:
    """Log-Hessian from a monomial table, modulo ``T^precision``.

    Entry ``(i, j)`` is one ``linear_combination`` of the pairs ``(m_i m_j,
    value)``, each value truncated once at ``precision``, so it is the full
    entry truncated there.  Only the pairs of each monomial's nonzero
    exponents are visited.  An entry that no monomial reaches is an exact
    zero, which keeps Hessians sparse.
    """
    pairs: Dict[Tuple[int, int], list] = {}
    for m, value in table:
        value = value.truncate(precision)
        live = [(i, mi) for i, mi in enumerate(m) if mi]
        for a, (i, mi) in enumerate(live):
            for j, mj in live[a:]:
                pairs.setdefault((i, j), []).append((mi * mj, value))
    hessian = [[NovikovSeries.zero()] * n for _ in range(n)]
    # m_i m_j = m_j m_i, so the mirror of entry (i, j) is the same series.
    for (i, j), p in pairs.items():
        hessian[i][j] = hessian[j][i] = linear_combination(p)
    return hessian


# -- series matrices ---------------------------------------------------------


def _square(matrix, name: str, what: str = "matrix"):
    """``(rows, blocks)`` of a series matrix, read in one pass.

    The matrix and each row must be a list or tuple (``_json_array``), a
    row as long as the matrix (else ``<what> is not square``); each entry
    is read by ``_entry``, named ``name[i][j]``.  ``blocks`` holds, for
    each class (``_classes``) that the entries other than exact zeros join,
    its indices and whether it equals its transpose (``_symmetric``).  An
    entry unlike its mirror joins their class, so the matrix is symmetric
    exactly when every block is."""
    matrix = _json_array(matrix, f"{what} must be a list of rows")
    n = len(matrix)
    rows, links = [], []
    for i, row in enumerate(matrix):
        row = _json_array(row, f"{name}[{i}] must be a list of entries")
        if len(row) != n:
            raise ConfigError(f"{what} is not square")
        entries = [_entry(x, name, i, j) for j, x in enumerate(row)]
        links += ((i, j) for j, x in enumerate(entries)
                  if j != i and not x.is_exact_zero())
        rows.append(entries)
    return rows, [(block, _symmetric(rows, block))
                  for block in _classes(n, links)]


def _classes(n: int, links) -> List[List[int]]:
    """The classes of ``range(n)`` under the equivalence the pairs
    ``links`` generate, by a union-find: each class ascending, the classes
    sorted by their least member."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in links:
        parent[root(i)] = root(j)
    classes: Dict[int, List[int]] = {}
    for i in range(n):
        classes.setdefault(root(i), []).append(i)
    return list(classes.values())


def det_bareiss(matrix: Sequence[Sequence[NovikovSeries]]) -> NovikovSeries:
    """Determinant by fraction-free Bareiss elimination.

    A matrix that is block diagonal up to a permutation of its indices (see
    ``_square``) has the product of its blocks' determinants: the
    permutation acts on rows and columns alike, so it carries no sign.
    Each block is eliminated on its own.

    Row pivoting picks the lowest-valuation nonzero entry in each column;
    the Bareiss divisions are exact, so precision follows the adic rules
    with no division loss.  Each step's divisor is inverted at most once
    (see ``novikov._divider``).  Until its first row swap, a block that
    ``_square`` finds symmetric updates one triangle and mirrors it: 35
    updates for 6 x 6, not 55.  The empty matrix has determinant 1.
    Entries are series or exact rationals; anything else raises
    ``ConfigError`` naming the entry (see ``_square``).
    """
    return _det(*_square(matrix, "matrix"))


def _det(rows, blocks) -> NovikovSeries:
    """``det_bareiss`` of the matrix whose ``rows`` and ``blocks``
    ``_square`` read, for a caller that holds them already."""
    dets = [_bareiss([[rows[i][j] for j in block] for i in block], sym)
            for block, sym in blocks] or [NovikovSeries.one()]
    return math.prod(dets[1:], start=dets[0])


def _bareiss(matrix, sym: bool):
    """Bareiss elimination of one block, symmetric if ``sym``."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = NovikovSeries.one()
    for k in range(n - 1):
        pivot_row = _pick_pivot(m, k)
        if pivot_row is None:
            return _singular_det(matrix, m, k, prev)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
            sym = False
        by_prev = _divider(prev)
        for i in range(k + 1, n):
            for j in range(i if sym else k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = by_prev(num)
                if sym:
                    m[j][i] = m[i][j]
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return out if sign == 1 else -out


def _symmetric(m, block) -> bool:
    """Whether ``m`` on the indices ``block`` equals its transpose.  Until
    a row swap, an elimination step keeps it so, each entry the same series
    as its mirror: ``_product`` and the quotients are commutative field for
    field (precision rules symmetric, terms exact integer sums)."""
    return all(m[i][j] == m[j][i] for a, i in enumerate(block)
               for j in block[:a])


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


def _singular_det(matrix, m, k, prev):
    """The determinant of ``matrix`` once column ``k`` of its elimination
    ``m`` vanishes mod precision below row k.

    Sylvester's identity gives ``det = +-det(M) / prev^(n-k-1)`` for the
    block ``M`` left at rows and columns ``k..n-1``.  Expanding ``det(M)``
    along column ``k``, entry ``i`` is ``O(T^p_i)`` and its cofactor has
    valuation at least the sum, over the other rows, of each row's least
    valuation bound in columns ``k+1..n-1``.  The least ``p_i`` plus that
    sum, less ``(n-k-1) val(prev)``, is how far the determinant is known to
    be zero.  The division by ``prev`` can lose more than the elimination
    gained, so the determinant is also bounded on ``matrix`` itself: each
    of its terms takes one entry from every row and one from every column,
    so its valuation is at least the sum over rows, and the sum over
    columns, of their least valuation bound.  The largest bound holds.
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
    rows = sum(min(x.val_lower_bound() for x in row) for row in matrix)
    cols = sum(min(row[j].val_lower_bound() for row in matrix)
               for j in range(n))
    return NovikovSeries.zero(max(prec, rows, cols))


def solve_linear(matrix: Sequence[Sequence[NovikovSeries]],
                 rhs: Sequence[NovikovSeries]) -> List[NovikovSeries]:
    """Solve ``matrix @ x = rhs`` over the series field.

    Gaussian elimination with lowest-valuation pivoting; division precision
    follows the adic rules, and each pivot is inverted at most once (see
    ``novikov._divider``).  Until the first row swap, a matrix whose blocks
    ``_square`` finds symmetric updates one triangle and the rhs, mirroring
    the triangle: 50 products for 6 x 6, not 70.  The divisions are generic,
    so with fully exact inputs a quotient that is not finite raises
    ``InexactDivisionError``; truncate the inputs to keep it finite.  Raises
    ``SingularMatrixError`` when no pivot with a nonzero leading term exists
    at the available precision, and ``ConfigError`` for a matrix that
    ``_square`` refuses or an ``rhs`` that is not a list of one series or
    exact rational per row (the message names a bad entry, e.g. ``rhs[2]``).
    """
    a, blocks = _square(matrix, "matrix")
    n = len(a)
    rhs = _json_array(rhs, "rhs must be a list of entries")
    if len(rhs) != n:
        raise ConfigError(f"rhs has {len(rhs)} entries for {n} rows")
    sym = all(flag for _, flag in blocks)
    for i, (row, r) in enumerate(zip(a, rhs)):
        row.append(_entry(r, "rhs", i))
    by_pivot = []
    for k in range(n):
        best = _pick_pivot(a, k)
        if best is None:
            raise SingularMatrixError("matrix is singular at the available "
                                      "precision")
        if best != k:
            a[k], a[best] = a[best], a[k]
            sym = False
        by_pivot.append(_divider(a[k][k]))
        for i in range(k + 1, n):
            if a[i][k].is_exact_zero():
                continue
            factor = by_pivot[k](a[i][k])
            for j in range(i if sym else k + 1, n + 1):
                a[i][j] = a[i][j] - factor * a[k][j]
                if sym and j < n:
                    a[j][i] = a[i][j]
    xs: List[NovikovSeries] = [NovikovSeries.zero()] * n
    for k in range(n - 1, -1, -1):
        xs[k] = by_pivot[k](linear_combination(
            [(1, a[k][n])] + [(-1, a[k][j] * xs[j]) for j in range(k + 1, n)]))
    return xs
