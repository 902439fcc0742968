"""Hypothesis strategies for series, potentials and small matrices."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from novlink.laurent import LaurentPotential
from novlink.novikov import INFINITY, NovikovSeries
from novlink.symprodqh import SymQHElement

small_fractions = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                               max_denominator=6)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)
positive_fractions = st.fractions(min_value=Fraction(1, 6),
                                  max_value=Fraction(4), max_denominator=6)


@st.composite
def series(draw, min_terms=0, max_terms=4, exact_only=False,
           min_exponent=None):
    exps_st = small_fractions
    if min_exponent is not None:
        exps_st = exps_st.filter(lambda e: e >= min_exponent)
    n = draw(st.integers(min_terms, max_terms))
    exps = draw(st.lists(exps_st, min_size=n, max_size=n, unique=True))
    pairs = [(draw(nonzero_fractions), e) for e in exps]
    if exact_only or draw(st.booleans()):
        prec = INFINITY
    else:
        top = max(exps, default=Fraction(0))
        prec = top + draw(positive_fractions)
    return NovikovSeries(pairs, prec)


@st.composite
def nonzero_series(draw, max_terms=4, exact_only=False):
    return draw(series(min_terms=1, max_terms=max_terms,
                       exact_only=exact_only))


@st.composite
def unitary_series(draw, min_terms=1, max_terms=3, exact_only=True):
    """Valuation-zero series with a positive-valuation tail."""
    lead = draw(nonzero_fractions)
    n = draw(st.integers(min_terms - 1, max_terms - 1))
    exps = draw(st.lists(positive_fractions, min_size=n, max_size=n,
                         unique=True))
    pairs = [(lead, Fraction(0))] + [(draw(nonzero_fractions), e)
                                     for e in exps]
    if exact_only or draw(st.booleans()):
        prec = INFINITY
    else:
        prec = max(exps, default=Fraction(0)) + draw(positive_fractions)
    return NovikovSeries(pairs, prec)


@st.composite
def laurent_potentials(draw, num_vars, max_terms=4):
    """Exponents in ``[-2, 2]``; some coefficients are ``O(T^p)`` only."""
    n = draw(st.integers(1, max_terms))
    exps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * num_vars),
                         min_size=n, max_size=n, unique=True))
    return LaurentPotential(num_vars,
                            {m: draw(series(max_terms=2)) for m in exps})


@st.composite
def symmetric_forms(draw, max_n=4):
    """Symmetric matrices mixing exact, finite-precision and ``O(T^p)``
    entries (``series`` draws all three)."""
    n = draw(st.integers(1, max_n))
    form = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            form[i][j] = form[j][i] = draw(series(max_terms=2))
    return form


@st.composite
def block_forms(draw, exact_only=False):
    """Symmetric forms of 1-3 diagonal blocks of size 1-3, the indices
    shuffled by a random permutation; the blocks' entries mix exact,
    finite-precision and ``O(T^p)`` series, or are all exact, and every
    entry between two blocks is an exact zero."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    form = [[NovikovSeries.zero()] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block = perm[start:start + size]
        start += size
        for a, i in enumerate(block):
            for j in block[a:]:
                form[i][j] = form[j][i] = draw(
                    series(max_terms=2, exact_only=exact_only))
    return form


@st.composite
def sym_element_pairs(draw, max_k=4, exact_only=False):
    """Two elements of one symmetric algebra (``k <= max_k``) whose
    coefficients mix exact, finite-precision and ``O(T^p)`` series, or are
    all exact."""
    k = draw(st.integers(1, max_k))
    omega = draw(positive_fractions)

    def element():
        return SymQHElement(k, omega, [
            draw(series(max_terms=2, exact_only=exact_only))
            for _ in range(k + 1)])

    return element(), element()


@st.composite
def homogeneous_sym_element_pairs(draw, max_k=6, exact_only=False):
    """Two homogeneous elements of one symmetric algebra (``k <= max_k``):
    each slot ``w`` is an exact zero, ``O(T^p)``, or one term at
    ``a - w * omega / 2`` for the element's own ``a``, exact or known to a
    precision above it, so each element has one degree class."""
    k = draw(st.integers(1, max_k))
    omega = draw(positive_fractions)

    def element():
        a = draw(small_fractions)
        coeffs = []
        for w in range(k + 1):
            kind = draw(st.sampled_from(
                ("zero", "term") if exact_only
                else ("zero", "term", "term", "unknown")))
            e = a - w * omega / 2
            if kind == "zero":
                coeffs.append(NovikovSeries.zero())
            elif kind == "unknown":
                coeffs.append(NovikovSeries.zero(e + draw(positive_fractions)))
            else:
                prec = (INFINITY if exact_only or draw(st.booleans())
                        else e + draw(positive_fractions))
                coeffs.append(NovikovSeries([(draw(nonzero_fractions), e)],
                                            prec))
        return SymQHElement(k, omega, coeffs)

    return element(), element()


@st.composite
def completions(draw, x, exact=None):
    """``x`` changed only at or above its precision: one or two terms added
    there, and the result exact or known to a higher precision (``exact``
    picks which; ``None`` draws it).  An exact ``x`` is returned as is."""
    if x.is_exact():
        return x
    gaps = draw(st.lists(st.fractions(0, 2, max_denominator=4),
                         min_size=1, max_size=2, unique=True))
    pairs = [(c, e) for e, c in x.terms]
    pairs += [(draw(nonzero_fractions), x.precision + g) for g in gaps]
    if exact is None:
        exact = draw(st.booleans())
    if exact:
        return NovikovSeries(pairs)
    return NovikovSeries(pairs, x.precision + 2 + draw(positive_fractions))
