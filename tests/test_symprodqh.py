"""Sphere quantum algebra and its symmetric powers: idempotents, grading."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from novlink.errors import AlgebraMismatchError
from novlink.novikov import NovikovSeries
from novlink.symprodqh import (
    QHP1Element,
    SymQHElement,
    grading,
    qh1_idempotents,
    qh1_multiply,
    symk_idempotents,
    symk_multiply,
)

from oracles import (
    sym_to_tensor,
    symk_idempotents_triple_sum,
    tensor_multiply,
    tensor_to_sym,
)
from strategies import sym_element_pairs


def mono(c, e=0):
    return NovikovSeries.monomial(F(c), F(e))


class TestRankTwoAlgebra:
    def test_defining_relation(self):
        H = QHP1Element.H(F(1))
        HH = qh1_multiply(H, H)
        assert HH.a == NovikovSeries.monomial(1, 1)
        assert HH.b.is_zero()

    def test_unit(self):
        one = QHP1Element.one(F(2))
        x = QHP1Element(mono(3), mono(-1, F(1, 2)), F(2))
        assert qh1_multiply(one, x) == x

    def test_difference_of_squares(self):
        omega = F(1)
        one, H = QHP1Element.one(omega), QHP1Element.H(omega)
        prod = qh1_multiply(one + H, one - H)
        assert prod.a == NovikovSeries([(1, 0), (-1, 1)])
        assert prod.b.is_zero()

    def test_omega_mismatch(self):
        with pytest.raises(AlgebraMismatchError, match="omega"):
            qh1_multiply(QHP1Element.one(F(1)), QHP1Element.one(F(2)))


class TestRankTwoIdempotents:
    def test_valuation(self):
        for omega in (F(1), F(2), F(3, 5)):
            ep, em = qh1_idempotents(omega)
            assert ep.valuation() == -omega / 2
            assert em.valuation() == -omega / 2

    def test_sum_is_unit(self):
        ep, em = qh1_idempotents(F(1))
        s = ep + em
        assert s.a == NovikovSeries.one() and s.b.is_zero()

    def test_orthogonal_idempotents(self):
        ep, em = qh1_idempotents(F(3, 2))
        prod = qh1_multiply(ep, em)
        assert prod.a.is_zero() and prod.b.is_zero()
        assert qh1_multiply(ep, ep) == ep
        assert qh1_multiply(em, em) == em


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
        one = SymQHElement.one(4, F(1))
        x = SymQHElement.basis(4, F(1), 2)
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

    def test_tensor_oracle_needs_every_arrangement(self):
        # m1 of Sym^2 has two arrangements; one alone is not symmetric.
        with pytest.raises(AssertionError, match="not symmetric"):
            tensor_to_sym({0b01: mono(1)}, 2, F(1))

    def test_k_or_omega_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            symk_multiply(SymQHElement.one(2, F(1)), SymQHElement.one(3, F(1)))


class TestSymmetricIdempotents:
    def test_k1_reduces_to_rank_two(self):
        ep, em = qh1_idempotents(F(1))
        e0, e1 = symk_idempotents(1, F(1))
        assert e0.coeffs == (em.a, em.b)
        assert e1.coeffs == (ep.a, ep.b)

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
            assert total == SymQHElement.one(k, omega)
            for i, ei in enumerate(idems):
                for j, ej in enumerate(idems):
                    prod = symk_multiply(ei, ej)
                    if i == j:
                        assert prod == ei
                    else:
                        assert prod.is_zero()

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
        assert grading(QHP1Element.one(F(1))) == 0

    def test_quantum_monomial_degree(self):
        x = QHP1Element(NovikovSeries.monomial(1, 1), 0, F(1))
        assert grading(x) == -4

    def test_idempotents_homogeneous_degree_zero(self):
        ep, em = qh1_idempotents(F(1))
        assert grading(ep) == 0
        assert grading(em) == 0
        for e in symk_idempotents(3, F(2)):
            assert grading(e) == 0

    def test_mixed_degree_detected(self):
        x = QHP1Element(NovikovSeries([(1, 0), (1, 1)]), 0, F(1))
        assert grading(x) is None

    def test_omega_scales_quantum_degree(self):
        x = QHP1Element(NovikovSeries.monomial(1, F(3)), 0, F(3))
        assert grading(x) == -4
