"""Series arithmetic: worked values, precision rules and field axioms."""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from novlink.errors import (
    ConfigError,
    InexactDivisionError,
    NotInvertibleError,
    PrecisionError,
)
from novlink.novikov import (
    DIGIT_LIMIT,
    INFINITY,
    NovikovSeries,
    _least_valuation,
    as_fraction,
    as_precision,
    divide,
    linear_combination,
)

from oracles import long_divide, series_product, series_sum
from strategies import (
    completions,
    nonzero_series,
    positive_fractions,
    series,
    small_fractions,
)


def S(*pairs, prec=INFINITY):
    return NovikovSeries([(F(c), F(e)) for c, e in pairs], prec)


class TestValuation:
    def test_min_of_exponents(self):
        assert S((3, F(1, 2)), (-1, 2)).valuation() == F(1, 2)

    def test_exact_zero_is_infinity(self):
        assert NovikovSeries.zero().valuation() is INFINITY

    def test_monomial_product_adds_valuations(self):
        x = NovikovSeries.monomial(1, F(1, 3))
        y = NovikovSeries.monomial(1, F(2, 3))
        assert (x * y).valuation() == 1

    def test_zero_mod_precision_reports_infinity_with_bound(self):
        z = NovikovSeries.zero(5)
        assert z.valuation() is INFINITY
        assert z.val_lower_bound() == 5


class TestLeastValuation:
    def test_least_over_denominators_and_signs(self):
        xs = [S((1, F(1, 2))), S((5, F(-1, 3)), (1, 4), prec=6),
              S((2, F(-2, 7))), NovikovSeries.zero()]
        assert _least_valuation(xs) == F(-1, 3)

    def test_exact_zeros_only_give_infinity(self):
        assert _least_valuation([]) is INFINITY
        assert _least_valuation([NovikovSeries.zero()] * 3) is INFINITY

    def test_unknown_above_the_least_layer_is_fine(self):
        xs = [NovikovSeries.zero(F(3, 5)), S((1, F(1, 2)))]
        assert _least_valuation(xs) == F(1, 2)

    @pytest.mark.parametrize("prec", [F(1, 2), F(1, 3), -1])
    def test_unknown_at_or_below_the_least_layer_raises(self, prec):
        xs = [S((1, F(1, 2))), NovikovSeries.zero(prec)]
        with pytest.raises(PrecisionError,
                           match=rf"layer T\^\(1/2\) is unknown: a series "
                                 rf"is O\(T\^\({prec}\)\)"):
            _least_valuation(xs)
        with pytest.raises(PrecisionError, match="the second is O"):
            _least_valuation(xs, ["the first", "the second"].__getitem__)

    def test_no_known_term_raises(self):
        with pytest.raises(PrecisionError,
                           match=r"no layer is known: a series is O\(T\^2\)"):
            _least_valuation([NovikovSeries.zero(), NovikovSeries.zero(2)])

    @given(st.lists(series(max_terms=2), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_views(self, xs):
        known = min((x.terms[0][0] for x in xs if x.terms), default=INFINITY)
        unknown = [x.precision for x in xs
                   if not x.terms and x.precision is not INFINITY]
        if any(p <= known for p in unknown):
            with pytest.raises(PrecisionError):
                _least_valuation(xs)
        else:
            assert _least_valuation(xs) == known


class TestExactZero:
    def test_only_the_exact_zero(self):
        assert NovikovSeries.zero().is_exact_zero()
        assert not NovikovSeries.zero(2).is_exact_zero()  # O(T^2)
        assert not NovikovSeries.monomial(1, 1).is_exact_zero()  # T

    def test_no_leading_coefficient_modulo_precision(self):
        with pytest.raises(PrecisionError, match="zero modulo its precision"):
            NovikovSeries.zero(3).leading_coefficient()  # O(T^3)


class TestArithmetic:
    def test_add_cancels_constant(self):
        assert S((1, 0), (1, 1)) + S((-1, 0)) == S((1, 1))

    def test_mul_at_precision_five(self):
        a = NovikovSeries([(1, 0), (1, 1)], 5)
        b = NovikovSeries([(1, 0), (-1, 1)], 5)
        assert a * b == NovikovSeries([(1, 0), (-1, 2)], 5)

    def test_mul_precision_shifts_by_valuation(self):
        a = NovikovSeries([(1, 0)], 2)
        t = NovikovSeries.monomial(1, 1)
        prod = a * t
        assert prod.terms == ((F(1), F(1)),)
        assert prod.precision == 3

    def test_terms_beyond_precision_dropped(self):
        s = NovikovSeries([(1, 0), (1, 7)], 5)
        assert s == NovikovSeries([(1, 0)], 5)

    def test_scalar_coercion(self):
        assert 1 + S((1, 1)) == S((1, 0), (1, 1))
        assert S((1, 1)) * 3 == S((3, 1))

    @pytest.mark.parametrize("x", [
        S((1, 0), (3, F(1, 2))),                              # exact
        NovikovSeries([(2, 0), (-1, F(2, 3))], F(5, 4)),      # finite prec
        NovikovSeries.zero(F(3, 2)),                          # O(T^(3/2))
    ])
    def test_scalar_minus_series_negates_series_minus_scalar(self, x):
        for scalar in (2, F(1, 2)):
            got, want = scalar - x, -(x - scalar)
            assert got.integer_form == want.integer_form
            assert got.precision == want.precision

    def test_infinity_has_no_difference_or_negative(self):
        with pytest.raises(ArithmeticError, match="infinity - infinity"):
            INFINITY - INFINITY
        with pytest.raises(ArithmeticError, match="negative infinity"):
            -INFINITY

    def test_not_equal_to_a_foreign_operand(self):
        assert (S((1, 0)) == "a") is False
        assert S((1, 0)) != "a"

    def test_negative_exponents_allowed(self):
        s = S((1, F(-1, 2)), (2, 1))
        assert s.valuation() == F(-1, 2)


class TestInvert:
    def test_geometric_series(self):
        inv = S((1, 0), (-1, 1)).invert(3)
        assert inv == NovikovSeries([(1, 0), (1, 1), (1, 2)], 3)

    def test_exact_monomial(self):
        assert NovikovSeries.monomial(1, 1).invert() == \
            NovikovSeries.monomial(1, -1)

    def test_zero_mod_precision_rejected(self):
        with pytest.raises(NotInvertibleError, match="not invertible"):
            NovikovSeries.zero(5).invert()

    def test_exact_multiterm_needs_target(self):
        with pytest.raises(PrecisionError):
            S((1, 0), (-1, 1)).invert()

    def test_valuation_negated(self):
        x = S((2, F(3, 2)), (1, 2))
        assert x.invert(4).valuation() == F(-3, 2)

    def test_target_below_the_leading_term_rejected(self):
        # 1/(T + T^2) starts at T^-1, which a target of -2 does not reach.
        with pytest.raises(PrecisionError, match="does not reach"):
            NovikovSeries([(1, 1), (1, 2)], 3).invert(-2)

    def test_finite_precision_limits_inverse(self):
        x = NovikovSeries([(1, 1)], 3)  # T + O(T^3): relative precision 2
        inv = x.invert(10)
        assert inv.precision == 1  # -v + rel = -1 + 2


class TestDivide:
    def test_exact_division(self):
        num = S((1, 0), (-1, 2))  # 1 - T^2
        den = S((1, 0), (-1, 1))  # 1 - T
        assert divide(num, den) == S((1, 0), (1, 1))
        # The quotient's exponents are halves, the divisor's thirds.
        den = S((1, 0), (-1, F(1, 3)))
        q = S((2, 0), (1, F(1, 2)))
        assert divide(den * q, den) == q

    def test_inexact_division_raises(self):
        for num in [
            S((1, 0)),  # spans less than 1 - T: refused before any inverse
            S((1, 0), (1, 1)),  # the span of 1 - T, but no multiple of it
            S((1, 0), (-1, 1), (1, F(3, 2))),  # the quotient is infinite
        ]:
            with pytest.raises(InexactDivisionError):
                divide(num, S((1, 0), (-1, 1)))

    def test_long_finite_quotient(self):
        # (1 - T^N)/(1 - T) = 1 + T + ... + T^(N-1): every quotient term is
        # at most top(num) - top(den), however many there are.
        n = 100_001
        q = divide(S((1, 0), (-1, n)), S((1, 0), (-1, 1)))
        assert q == NovikovSeries([(1, e) for e in range(n)])

    def test_division_by_zero_mod_precision(self):
        with pytest.raises(NotInvertibleError):
            divide(S((1, 0)), NovikovSeries.zero(4))


class TestPrecisionManagement:
    def test_truncate_only_lowers(self):
        s = NovikovSeries([(1, 0), (1, 3)], 5)
        assert s.truncate(2) == NovikovSeries([(1, 0)], 2)
        assert s.truncate(9) == s

    def test_assume_precision_raises_bound(self):
        s = NovikovSeries([(1, 0), (1, 3)], 5)
        widened = s.assume_precision(10)
        assert widened.precision == 10
        assert widened.terms == s.terms


class TestSerialization:
    def test_round_trip(self):
        s = NovikovSeries([(F(3, 2), F(-1, 2)), (-1, 2)], F(7, 2))
        assert NovikovSeries.from_obj(s.to_obj()) == s

    def test_exact_strings_not_floats(self):
        obj = S((F(1, 3), F(1, 2))).to_obj()
        blob = json.dumps(obj)
        assert '"1/3"' in blob and '"1/2"' in blob
        assert obj["prec"] == "inf"

    def test_accepts_bare_term_list(self):
        s = NovikovSeries.from_obj([{"c": "2", "e": "1/4"}])
        assert s == S((2, F(1, 4)))

    @pytest.mark.parametrize("bad, match", [
        (5, "a term list or an object"),
        ({"terms": [1]}, "a list of objects"),
        ({"terms": 5}, "a term list or an object"),
    ])
    def test_malformed_object_refused(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            NovikovSeries.from_obj(bad)

    def test_fraction_parsing(self):
        assert as_fraction("-3/7") == F(-3, 7)
        assert as_fraction(4) == 4

    @pytest.mark.parametrize("text, value", [
        ("1.5", F(3, 2)),
        (" -3/7 ", F(-3, 7)),
        ("1_0e-1_0", F(1, 10 ** 9)),
        ("1e3990", F(10 ** 3990)),
        ("2E-3993", F(2, 10 ** 3993)),
        ("7" * DIGIT_LIMIT, F(int("7" * DIGIT_LIMIT))),
    ])
    def test_forms_within_the_digit_limit_are_read(self, text, value):
        assert as_fraction(text) == value

    @pytest.mark.parametrize("text", [
        "1e5000",
        "1e100000000",
        "-1E-3995",
        "1e000000000000000004000",
        "7" * (DIGIT_LIMIT + 1),
        "1/" + "3" * DIGIT_LIMIT,
    ])
    def test_longer_forms_are_refused_before_they_are_built(self, text):
        with pytest.raises(ConfigError, match=f"omega .* has more than "
                                              f"DIGIT_LIMIT = {DIGIT_LIMIT}"):
            as_fraction(text, "omega")

    def test_values_past_the_print_limit_are_refused_alone(self):
        # Python prints an integer of up to get_int_max_str_digits() digits;
        # one digit more was a ValueError from str and to_obj.
        limit = sys.get_int_max_str_digits()
        within = S((10 ** limit - 1, F(1, 10 ** limit - 1)))
        assert str(within) == f"{10 ** limit - 1}*T^(1/{10 ** limit - 1})"
        assert within.to_obj()["terms"] == [
            {"c": str(10 ** limit - 1), "e": f"1/{10 ** limit - 1}"}]
        for past in (S((10 ** limit, 0)), S((1, F(1, 10 ** limit))),
                     S(prec=F(10 ** limit))):
            for show in (str, NovikovSeries.to_obj):
                with pytest.raises(ConfigError, match=fr"more than sys\."
                                   fr"get_int_max_str_digits\(\) = {limit} "):
                    show(past)


@given(x=nonzero_series(), y=nonzero_series())
def test_val_additive_on_products(x, y):
    assert (x * y).valuation() == x.valuation() + y.valuation()


@given(x=series(), y=series())
def test_ultrametric_inequality(x, y):
    s = x + y
    lo = min(x.val_lower_bound(), y.val_lower_bound())
    assert s.val_lower_bound() >= lo
    if (not x.is_zero() and not y.is_zero()
            and x.valuation() != y.valuation()
            and min(x.valuation(), y.valuation()) < s.precision):
        assert s.valuation() == min(x.valuation(), y.valuation())


@given(x=series(), y=series())
def test_commutativity(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(x=series(), y=series(), z=series())
@settings(max_examples=60)
def test_associativity_and_distributivity_mod_precision(x, y, z):
    left = (x * y) * z
    right = x * (y * z)
    prec = min(left.precision, right.precision)
    assert left.eq_mod(right, prec)
    lhs = x * (y + z)
    rhs = x * y + x * z
    prec2 = min(lhs.precision, rhs.precision)
    assert lhs.eq_mod(rhs, prec2)


@given(x=nonzero_series())
@settings(max_examples=60)
def test_invert_is_two_sided_inverse(x):
    target = -x.valuation() + 3
    inv = x.invert(target)
    goal = min(target, (x * inv).precision)
    assert (x * inv).eq_mod(1, goal)
    assert (inv * x).eq_mod(1, goal)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
@example(data=None)
def test_divide_matches_long_division(data):
    # Exact, finite-precision and O(T^p) dividends; single- and multi-term
    # divisors; exact quotients by multiplying an exact dividend back in.
    if data is None:
        a, b = S((1, 0), (-1, 2)), S((1, 0), (-1, 1))
    else:
        b = data.draw(nonzero_series(max_terms=3))
        a = data.draw(series(max_terms=3))
        if a.is_exact() and b.is_exact() and data.draw(st.booleans()):
            a = a * b
    try:
        want = long_divide(a, b)
    except InexactDivisionError:
        with pytest.raises(InexactDivisionError):
            divide(a, b)
        return
    got = divide(a, b)
    assert got.terms == want.terms
    assert got.precision == want.precision


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_invert_ignores_changes_at_or_above_precision(data):
    x = data.draw(nonzero_series())
    assume(not x.is_exact())
    target = -x.valuation() + data.draw(positive_fractions)
    inv = x.invert(target)
    changed = data.draw(completions(x)).invert(target)
    assert changed.precision >= inv.precision
    assert changed.eq_mod(inv, inv.precision)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_divide_ignores_changes_at_or_above_precision(data):
    a = data.draw(series(max_terms=3))
    b = data.draw(nonzero_series(max_terms=3))
    assume(not (a.is_exact() and b.is_exact()))
    q = divide(a, b)
    # Exact completions of both operands would ask for an exact quotient.
    a2 = data.draw(completions(a, exact=False))
    b2 = data.draw(completions(b, exact=False))
    q2 = divide(a2, b2)
    assert q2.precision >= q.precision
    assert q2.eq_mod(q, q.precision)


# -- the integer form ---------------------------------------------------------


def assert_same_fields(u, v):
    assert u.integer_form == v.integer_form
    assert u.precision == v.precision
    assert hash(u) == hash(v)


class TestConstructorInput:
    @pytest.mark.parametrize("bad", [1.5, "abc", "1/0"])
    def test_inexact_or_malformed_refused_in_either_slot(self, bad):
        with pytest.raises(ConfigError):
            NovikovSeries([(bad, 0)])
        with pytest.raises(ConfigError):
            NovikovSeries([(1, bad)])

    def test_bool_refused(self):
        with pytest.raises(ConfigError):
            NovikovSeries([(True, 0)])
        with pytest.raises(ConfigError):
            NovikovSeries([(1, True)])

    @pytest.mark.parametrize("op", [lambda x: x + True, lambda x: True + x,
                                    lambda x: x * True, lambda x: True * x])
    def test_bool_operand_refused(self, op):
        with pytest.raises(TypeError):
            op(S((1, 0), (2, 1)))

    def test_inf_is_the_one_infinite_precision_spelling(self):
        assert as_precision("inf") is INFINITY
        for bad in ("infinity", "+inf", " INF "):
            with pytest.raises(ConfigError, match="not a rational number"):
                as_precision(bad)

    def test_unsorted_duplicate_and_cancelling_terms(self):
        x = NovikovSeries([(1, 3), (2, "2/4"), (-1, 3), (1, F(1, 2)), (5, 9)],
                          4)
        assert x.terms == ((F(1, 2), F(3)),)
        assert x.integer_form == (2, 1, (1,), (3,))


@settings(max_examples=150, deadline=None)
@given(x=series(), y=series(), m=st.integers(-6, 6))
def test_products_and_sums_match_dict_oracle(x, y, m):
    for got, want in ((x * y, series_product(x, y)),
                      (x + y, series_sum(x, y)),
                      (x - y, series_sum(x, y, -1)),
                      (x * m, series_product(x, S((m, 0))))):
        assert got.terms == want.terms
        assert got.precision == want.precision
        assert_same_fields(got, want)


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(series(exact_only=True), series(), series(max_terms=0)),
       n=st.sampled_from((-3, -1, 0, 1, 7)))
@example(x=NovikovSeries.zero(F(3, 2)), n=7)
@example(x=NovikovSeries.zero(), n=-3)
@example(x=S((2, F(1, 3)), prec=F(5, 4)), n=0)
def test_int_scalar_is_the_constant_monomial(x, n):
    # An int is coerced and multiplied like any other scalar: exact,
    # inexact and term-free series get the fields and precision of their
    # product by n T^0.
    want = x * NovikovSeries.monomial(n, 0)
    assert_same_fields(x * n, want)
    assert_same_fields(n * x, want)


@given(x=series())
def test_integer_form_has_least_denominators(x):
    # ``de`` covers the precision too, which is stored as ``P / de``.
    de, dc, E, C = x.integer_form
    finite = [] if x.is_exact() else [x.precision.denominator]
    assert de == math.lcm(*(e.denominator for e, _ in x.terms), *finite)
    assert dc == math.lcm(*(c.denominator for _, c in x.terms))
    assert x.terms == tuple((F(e, de), F(c, dc)) for e, c in zip(E, C))
    if x.is_exact():
        assert x._P is None
    else:
        assert x.precision == F(x._P, de)


# Operands whose precision denominators lie off their exponent lattice, an
# ``O(T^p)`` of either sign, an exact series and the exact zero.
OFF_LATTICE = [
    S((1, F(1, 4)), prec=F(1, 3)),
    S((1, F(1, 6)), prec=F(5, 7)),
    S((-1, F(1, 4)), (F(5, 3), F(1, 2)), prec=F(9, 8)),
    S((2, F(-1, 2)), (3, F(1, 9))),
    NovikovSeries.zero(F(2, 5)),
    NovikovSeries.zero(F(-3, 11)),
    NovikovSeries.zero(),
]


def test_off_lattice_precisions_match_dict_oracle():
    # min(1/3 + 1/6, 5/7 + 1/4) = 1/2, so the product's de is 12.
    got = OFF_LATTICE[0] * OFF_LATTICE[1]
    assert got == S((1, F(5, 12)), prec=F(1, 2))
    assert got.integer_form == (12, 1, (5,), (1,))
    for x in OFF_LATTICE:
        for y in OFF_LATTICE:
            for got, want in ((x * y, series_product(x, y)),
                              (x + y, series_sum(x, y)),
                              (x - y, series_sum(x, y, -1))):
                assert got.terms == want.terms
                assert got.precision == want.precision
                assert_same_fields(got, want)
            for z in OFF_LATTICE:
                pairs = [(2, x), (-1, y), (3, z)]
                assert_same_fields(linear_combination(pairs),
                                   fold_series_sum(pairs))


@settings(max_examples=100, deadline=None)
@given(a=series(), b=series(), cut=small_fractions, data=st.data())
def test_equal_series_by_different_routes_have_equal_fields(a, b, cut, data):
    # The constructor from split, zero, unreduced and shuffled terms, plus
    # one term at the precision that has to be dropped.
    pieces = [(0, data.draw(small_fractions))]
    for e, c in a.terms:
        part = data.draw(small_fractions)
        pieces += [(part, f"{3 * e.numerator}/{3 * e.denominator}"),
                   (c - part, e)]
    if not a.is_exact():
        pieces.append((1, a.precision))
    pieces = data.draw(st.permutations(pieces))
    assert_same_fields(NovikovSeries(pieces, a.precision), a)
    assert_same_fields(a * b, b * a)
    assert_same_fields((a + b) - b, a.truncate(b.precision))
    assert_same_fields(a.truncate(cut),
                       NovikovSeries([(c, e) for e, c in a.terms if e < cut],
                                     min(a.precision, cut)))


def fold_series_sum(pairs):
    """``sum w * x`` as ``|w|`` oracle sums of ``x`` with the sign of ``w``."""
    total = NovikovSeries.zero()
    for w, x in pairs:
        for _ in range(abs(w)):
            total = series_sum(total, x, 1 if w > 0 else -1)
    return total


class TestLinearCombination:
    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from((-2, -1, 1, 2)),
                                    series()), max_size=5))
    def test_matches_oracle_fold(self, pairs):
        got = linear_combination(pairs)
        want = fold_series_sum(pairs)
        assert got.terms == want.terms
        assert got.precision == want.precision
        assert_same_fields(got, want)
        assert_same_fields(linear_combination(iter(pairs)), want)

    def test_empty_is_exact_zero(self):
        assert linear_combination([]).is_exact_zero()
        assert linear_combination(iter(())) == NovikovSeries.zero()

    def test_cancellation_keeps_least_precision(self):
        x = S((3, F(1, 2)), (1, 2), prec=5)
        y = S((-3, F(1, 2)), (-1, 2))
        got = linear_combination([(2, x), (2, y), (1, NovikovSeries.zero(4))])
        assert got == NovikovSeries.zero(4)
        assert not got.is_exact_zero()
        assert got == fold_series_sum([(2, x), (2, y),
                                       (1, NovikovSeries.zero(4))])

    def test_weights_scale_and_mixed_denominators(self):
        x = S((F(1, 3), F(1, 2)))
        y = S((F(1, 4), F(2, 3)), prec=3)
        got = linear_combination([(-2, x), (1, y), (2, x)])
        assert got == y
        assert linear_combination([(2, x), (-1, y)]) == x + x - y
