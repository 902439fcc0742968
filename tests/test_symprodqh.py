"""Sphere quantum algebra and its symmetric powers: idempotents, grading."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from novlink import symprodqh
from novlink.errors import AlgebraMismatchError, ConfigError, PrecisionError
from novlink.novikov import INFINITY, NovikovSeries
from novlink.symprodqh import (
    SymQHElement,
    grading,
    symk_idempotents,
    symk_multiply,
)

from oracles import (
    int_tensor,
    int_tensor_multiply,
    sym_to_tensor,
    symk_idempotents_triple_sum,
    tensor_multiply,
    tensor_to_sym,
)
from strategies import (
    completions,
    homogeneous_sym_element_pairs,
    sym_element_pairs,
)


def mono(c, e=0):
    return NovikovSeries.monomial(F(c), F(e))


def rank_two(a, b, omega):
    """``a + b H`` in the rank-two algebra, which is ``Sym^1``."""
    return SymQHElement(1, omega, [a, b])


def H(omega):
    return SymQHElement(1, omega, [0, 1])


class TestRankTwoAlgebra:
    def test_defining_relation(self):
        a, b = symk_multiply(H(F(1)), H(F(1))).coeffs
        assert a == NovikovSeries.monomial(1, 1)
        assert b.is_zero()

    def test_unit(self):
        one = SymQHElement(1, F(2), [1, 0])
        x = rank_two(mono(3), mono(-1, F(1, 2)), F(2))
        assert symk_multiply(one, x) == x

    def test_difference_of_squares(self):
        omega = F(1)
        one = SymQHElement(1, omega, [1, 0])
        a, b = symk_multiply(one + H(omega), one - H(omega)).coeffs
        assert a == NovikovSeries([(1, 0), (-1, 1)])
        assert b.is_zero()

    def test_omega_mismatch(self):
        with pytest.raises(AlgebraMismatchError, match="omega"):
            symk_multiply(SymQHElement(1, F(1), [1, 0]),
                          SymQHElement(1, F(2), [1, 0]))

    def test_omega_must_be_positive(self):
        for omega in (0, F(-1, 2)):
            with pytest.raises(ConfigError, match="omega must be positive"):
                SymQHElement(1, omega, [1, 0])
        with pytest.raises(ConfigError, match="omega must be positive"):
            symk_idempotents(2, -1)

    def test_non_positive_k_rejected(self):
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            SymQHElement(0, 1, [1])
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            symk_idempotents(0, 1)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ConfigError, match="need 3 basis coefficients"):
            SymQHElement(2, 1, [1, 0])

    @pytest.mark.parametrize("coeffs", ["12", b"12", 5, None])
    def test_coeffs_must_be_an_iterable_of_entries(self, coeffs):
        # The digits of "12" are no coefficients m0: 1, m1: 2.
        with pytest.raises(ConfigError, match="^coeffs must be a list of "
                                              "coefficients, got "):
            SymQHElement(1, 1, coeffs)

    def test_coeffs_may_be_a_tuple_or_a_generator(self):
        want = SymQHElement(1, 1, [1, 2])
        assert SymQHElement(1, 1, (1, 2)) == want
        assert SymQHElement(1, 1, (c for c in (1, 2))) == want

    @pytest.mark.parametrize("k", [True, 2.5, F(3, 2), "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ConfigError, match="k must be a JSON integer"):
            SymQHElement(k, 1, [1, 0])
        with pytest.raises(ConfigError, match="k must be a JSON integer"):
            symk_idempotents(k, 1)


class TestElementValuation:
    def test_unknown_coefficient_below_the_least_term_raises(self):
        x = SymQHElement(1, F(1), [NovikovSeries.zero(1),
                                   NovikovSeries.monomial(1, 5)])
        with pytest.raises(PrecisionError,
                           match=r"layer T\^5 is unknown: coefficient m0 is "
                                 r"O\(T\^1\)"):
            x.valuation()

    def test_known_coefficients(self):
        x = SymQHElement(2, F(1), [NovikovSeries.zero(6),
                                   NovikovSeries.monomial(2, F(-1, 2)),
                                   NovikovSeries([(1, F(1, 3))], 2)])
        assert x.valuation() == F(-1, 2)
        assert SymQHElement(1, F(1), [0, 0]).valuation() is INFINITY


class TestRankTwoIdempotents:
    def test_valuation(self):
        for omega in (F(1), F(2), F(3, 5)):
            em, ep = symk_idempotents(1, omega)
            assert ep.valuation() == -omega / 2
            assert em.valuation() == -omega / 2

    def test_sum_is_unit(self):
        em, ep = symk_idempotents(1, F(1))
        a, b = (ep + em).coeffs
        assert a == NovikovSeries.one() and b.is_zero()

    def test_orthogonal_idempotents(self):
        em, ep = symk_idempotents(1, F(3, 2))
        a, b = symk_multiply(ep, em).coeffs
        assert a.is_zero() and b.is_zero()
        assert symk_multiply(ep, ep) == ep
        assert symk_multiply(em, em) == em


class TestSymmetricAlgebra:
    def test_basis_multiplication_against_tensor_oracle(self):
        rng = random.Random(31)
        for _ in range(12):
            k = rng.randint(1, 8)
            omega = F(rng.randint(1, 4), rng.randint(1, 3))

            def rand_elt():
                coeffs = [NovikovSeries.zero()] * (k + 1)
                for _ in range(rng.randint(1, 3)):
                    j = rng.randint(0, k)
                    coeffs[j] = coeffs[j] + mono(rng.randint(-5, 5) or 1,
                                                 F(rng.randint(-4, 4), 2))
                return SymQHElement(k, omega, coeffs)

            x, y = rand_elt(), rand_elt()
            direct = symk_multiply(x, y)
            via_tensor = tensor_to_sym(
                tensor_multiply(sym_to_tensor(x), sym_to_tensor(y), omega),
                k, omega)
            assert direct == via_tensor

    def test_unit_element(self):
        one = SymQHElement(4, F(1), [1, 0, 0, 0, 0])
        x = SymQHElement(4, F(1), [0, 0, 1, 0, 0])
        assert symk_multiply(one, x) == x

    def test_zero_modulo_precision_coefficient_kept(self):
        # x = O(T) m0 + m1: the O(T) coefficient is unknown, not zero.
        x = SymQHElement(2, F(1), [NovikovSeries.zero(1), mono(1), 0])
        assert symk_multiply(x, x).coeffs == (
            NovikovSeries([(2, 1)], 2), NovikovSeries.zero(1), mono(2))

    @settings(max_examples=200, deadline=None)
    @given(sym_element_pairs())
    def test_inexact_product_matches_tensor_oracle(self, pair):
        # Terms and precision both: O(T^p) coefficients bound the result.
        x, y = pair
        via_tensor = tensor_to_sym(
            tensor_multiply(sym_to_tensor(x), sym_to_tensor(y), x.omega),
            x.k, x.omega)
        assert symk_multiply(x, y) == via_tensor

    @settings(max_examples=100, deadline=None)
    @given(sym_element_pairs(exact_only=True))
    def test_integer_tensor_oracle_matches_series_one(self, pair):
        x, y = pair
        terms = [t for z in pair for c in z.coeffs for t in c.terms]
        de = lcm(x.omega.denominator, *(e.denominator for e, _ in terms))
        dc = lcm(*(c.denominator for _, c in terms))
        tx, ty = sym_to_tensor(x), sym_to_tensor(y)
        assert int_tensor_multiply(int_tensor(tx, de, dc),
                                   int_tensor(ty, de, dc),
                                   int(x.omega * de)) == \
            int_tensor(tensor_multiply(tx, ty, x.omega), de, dc * dc)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(homogeneous_sym_element_pairs(),
                     homogeneous_sym_element_pairs(exact_only=True)))
    def test_homogeneous_product_matches_tensor_oracle_on_both_paths(
            self, pair):
        # One degree class per operand (none where no slot has a term):
        # the transform's case.  The scatter is then forced, so both paths
        # meet the oracle on the same operands.
        x, y = pair
        want = tensor_to_sym(
            tensor_multiply(sym_to_tensor(x), sym_to_tensor(y), x.omega),
            x.k, x.omega)
        assert symk_multiply(x, y) == want
        with patch.object(symprodqh, "_degree_class", return_value=None):
            assert symk_multiply(x, y) == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), path=st.sampled_from(("transform", "scatter")))
    def test_product_of_completions_agrees_modulo_each_slot_precision(
            self, data, path):
        # Any completion of the operands (terms added at or above each
        # coefficient's precision) has a product equal to the inexact one
        # below each slot's precision.  One-class pairs take the transform;
        # mixed pairs are sent to the scatter, whatever their classes.
        if path == "transform":
            x, y = data.draw(homogeneous_sym_element_pairs())
            assume(path_taken(x, y) == "transform")
            product = symk_multiply(x, y)
        else:
            x, y = data.draw(sym_element_pairs())
            with patch.object(symprodqh, "_degree_class", return_value=None):
                product = symk_multiply(x, y)
        completed = symk_multiply(*(
            SymQHElement(z.k, z.omega,
                         [data.draw(completions(c)) for c in z.coeffs])
            for z in (x, y)))
        for c, d in zip(product.coeffs, completed.coeffs):
            assert d.precision >= c.precision
            assert d.eq_mod(c, c.precision)

    def test_tensor_oracle_needs_every_arrangement(self):
        # m1 of Sym^2 has two arrangements; one alone is not symmetric.
        with pytest.raises(AssertionError, match="not symmetric"):
            tensor_to_sym({0b01: mono(1)}, 2, F(1))

    def test_k_or_omega_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            symk_multiply(SymQHElement(2, F(1), [1, 0, 0]),
                          SymQHElement(3, F(1), [1, 0, 0, 0]))


def path_taken(x, y):
    """``"transform"`` or ``"scatter"``: the path ``symk_multiply`` runs."""
    with patch.object(symprodqh, "_transform",
                      wraps=symprodqh._transform) as transform, \
            patch.object(symprodqh, "_scatter",
                         wraps=symprodqh._scatter) as scatter:
        symk_multiply(x, y)
    assert transform.call_count + scatter.call_count == 1
    return "transform" if transform.called else "scatter"


class TestPathChoice:
    @pytest.mark.parametrize("k", range(4, 33, 4))
    def test_idempotent_pairs_take_the_transform(self, k):
        idems = symk_idempotents(k, F(2, 3))
        for i, j in ((0, k), (k // 2, k // 2), (1, k // 3), (k - 1, k - 1)):
            assert path_taken(idems[i], idems[j]) == "transform"

    @pytest.mark.parametrize("k", [8, 32])
    def test_mixed_degree_pair_takes_the_scatter(self, k):
        # Every coefficient a term at its own exponent: k + 1 classes each.
        rng = random.Random(k)

        def element():
            return SymQHElement(k, F(3, 2), [
                mono(rng.randint(1, 9), F(rng.randint(-10**6, 10**6), 997))
                for _ in range(k + 1)])

        assert path_taken(element(), element()) == "scatter"

    def test_one_class_each_takes_the_transform(self):
        # A single basis element is one class, however sparse; a second
        # class in either operand, here the idempotent's copy times T,
        # sends the pair to the scatter.
        k = 16
        x = SymQHElement(k, F(1), [0] * k + [1])
        e = symk_idempotents(k, F(1))[3]
        two = e + SymQHElement(k, F(1), [c * mono(1, 1) for c in e.coeffs])
        assert path_taken(x, e) == path_taken(e, x) == "transform"
        assert path_taken(two, e) == path_taken(e, two) == "scatter"


def assert_checked(e):
    """``e``, built by the trusted ``SymQHElement._raw``, is what the public
    constructor builds from its fields, and replacing a field still
    checks it."""
    assert e == SymQHElement(e.k, e.omega, e.coeffs)
    assert type(e.coeffs) is tuple and len(e.coeffs) == e.k + 1
    assert all(type(c) is NovikovSeries for c in e.coeffs)
    with pytest.raises(ConfigError, match="k must be a positive integer"):
        dataclasses.replace(e, k=0)


class TestTrustedElements:
    @pytest.mark.parametrize("k", [1, 2, 7, 32])
    def test_idempotents_and_products_equal_checked_elements(self, k):
        omega = F(3, 2)
        idems = symk_idempotents(k, omega)
        for e in idems:
            assert_checked(e)
        for i, j in ((0, k), (k // 2, k // 2), (k, k)):
            assert path_taken(idems[i], idems[j]) == "transform"
            assert_checked(symk_multiply(idems[i], idems[j]))
        # T^(1/5) m_0 adds a second class to slot 0: mixed degrees.
        shift = SymQHElement(k, omega, [mono(1, F(1, 5))] + [0] * k)
        for i, j in ((0, k), (k // 2, 1 % k)):
            x = idems[i] + shift
            assert path_taken(x, idems[j]) == "scatter"
            assert_checked(symk_multiply(x, idems[j]))
            assert_checked(symk_multiply(x, x))


class TestSymmetricIdempotents:
    def test_k1_closed_form(self):
        # [(1 - T^(-omega/2) H)/2, (1 + T^(-omega/2) H)/2]
        for omega in (F(1), F(3, 2)):
            half = SymQHElement(1, omega, [F(1, 2), 0])
            u = SymQHElement(1, omega,
                             [0, NovikovSeries.monomial(F(1, 2), -omega / 2)])
            assert symk_idempotents(1, omega) == [half - u, half + u]

    def test_k2_three_idempotents_of_valuation_minus_omega(self):
        omega = F(1)
        idems = symk_idempotents(2, omega)
        assert len(idems) == 3
        for e in idems:
            assert e.valuation() == -omega
            assert symk_multiply(e, e) == e

    def test_complete_orthogonal_system(self):
        for k in (1, 2, 3, 5, 8):
            omega = F(2, 3)
            idems = symk_idempotents(k, omega)
            assert len(idems) == k + 1
            total = idems[0]
            for e in idems[1:]:
                total = total + e
            assert total == SymQHElement(k, omega, [1] + [0] * k)
            for i, ei in enumerate(idems):
                for j, ej in enumerate(idems):
                    prod = symk_multiply(ei, ej)
                    if i == j:
                        assert prod == ei
                    else:
                        assert prod.is_zero()

    def test_orthogonal_at_the_k_limit(self):
        k, omega = 160, F(3, 2)
        idems = symk_idempotents(k, omega)
        zero = SymQHElement(k, omega, [0] * (k + 1))
        for i, j in ((0, 0), (80, 80), (37, 37), (0, 160), (79, 80),
                     (37, 121)):
            want = idems[i] if i == j else zero
            assert symk_multiply(idems[i], idems[j]) == want

    def test_matches_closed_form_triple_sum(self):
        for omega in (F(1), F(3, 2)):
            for k in range(1, 41):
                assert [list(e.coeffs) for e in symk_idempotents(k, omega)] \
                    == symk_idempotents_triple_sum(k, omega)

    def test_normalized_valuation_constant(self):
        omega = F(1)
        for k in range(1, 9):
            for e in symk_idempotents(k, omega):
                assert e.valuation() / k * k == -k * omega / 2
                assert e.valuation() / k == -omega / 2

    def test_spanning_basis(self):
        # k+1 orthogonal idempotents spanning a (k+1)-dimensional algebra
        # diagonalize it; independence shows up as an invertible
        # coefficient matrix over the series field.
        from novlink.laurent import det_bareiss
        k, omega = 4, F(1)
        idems = symk_idempotents(k, omega)
        matrix = [list(e.coeffs) for e in idems]
        assert not det_bareiss(matrix).is_zero()


class TestGrading:
    def test_unit_degree_zero(self):
        assert grading(SymQHElement(1, F(1), [1, 0])) == 0

    def test_quantum_monomial_degree(self):
        x = rank_two(NovikovSeries.monomial(1, 1), 0, F(1))
        assert grading(x) == -4

    def test_idempotents_homogeneous_degree_zero(self):
        em, ep = symk_idempotents(1, F(1))
        assert grading(ep) == 0
        assert grading(em) == 0
        for e in symk_idempotents(3, F(2)):
            assert grading(e) == 0

    def test_non_element_refused(self):
        with pytest.raises(TypeError, match="sphere-algebra element"):
            grading(5)

    def test_mixed_degree_detected(self):
        x = rank_two(NovikovSeries([(1, 0), (1, 1)]), 0, F(1))
        assert grading(x) is None

    def test_omega_scales_quantum_degree(self):
        x = rank_two(NovikovSeries.monomial(1, F(3)), 0, F(3))
        assert grading(x) == -4
