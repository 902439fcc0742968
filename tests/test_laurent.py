"""Potential evaluation, multiplicative calculus and series determinants."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from novlink.errors import (
    ConfigError,
    NonUnitaryError,
    PrecisionError,
    SingularMatrixError,
)
from novlink.laurent import (
    LaurentPotential,
    UnitaryPoint,
    det_bareiss,
    solve_linear,
)
from novlink.linkfam import BulkParameter, CircleLinkS2, build_chain_potential
from novlink.novikov import NovikovSeries

from oracles import det_minor_expansion, evaluate_dual
from strategies import (
    completions,
    laurent_potentials,
    positive_fractions,
    series,
    unitary_series,
)


def mono(c, e=0):
    return NovikovSeries.monomial(F(c), F(e))


def W_zplus1overz():
    return LaurentPotential(1, {(1,): mono(1), (-1,): mono(1)})


class TestEvaluate:
    def test_z_plus_inverse_at_one(self):
        pt = UnitaryPoint([NovikovSeries.one()])
        assert W_zplus1overz().evaluate(pt) == mono(2)

    def test_chain_substitution(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        W = build_chain_potential(link, BulkParameter(F(1)))
        pt = UnitaryPoint([NovikovSeries.one(), NovikovSeries.one()])
        assert W.evaluate(pt) == NovikovSeries.monomial(4, F(1, 4))

    def test_positive_valuation_coordinate_rejected(self):
        with pytest.raises(NonUnitaryError, match="unitary torus"):
            W_zplus1overz().evaluate([NovikovSeries.monomial(1, 1)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigError):
            W_zplus1overz().evaluate([NovikovSeries.one(),
                                      NovikovSeries.one()])

    def test_multiterm_coordinate_needs_target_for_negative_powers(self):
        z = NovikovSeries([(1, 0), (1, 1)])
        with pytest.raises(PrecisionError):
            W_zplus1overz().evaluate([z])
        out = W_zplus1overz().evaluate([z], 3)
        # z + 1/z = (1+T) + (1 - T + T^2 - ...) = 2 + T^2 - T^3 ...
        assert out == NovikovSeries([(2, 0), (1, 2)], 3)

    @pytest.mark.parametrize("num_vars, terms", [
        (2.5, {}), (True, {}), (1, {(1.5,): 1}), (1, {(True,): 1})])
    def test_non_integer_arguments_rejected(self, num_vars, terms):
        with pytest.raises(ConfigError, match="must be a JSON integer"):
            LaurentPotential(num_vars, terms)

    def test_zero_modulo_precision_coefficient_kept(self):
        W = LaurentPotential(1, {(1,): NovikovSeries.zero(3), (0,): 1})
        assert W.evaluate([1]) == NovikovSeries([(1, 0)], 3)

    def test_truncates_at_target(self):
        pt = UnitaryPoint([NovikovSeries.one()])
        out = W_zplus1overz().evaluate(pt, F(1, 2))
        assert out == NovikovSeries([(2, 0)], F(1, 2))


class TestLogGradient:
    def test_monomial_power_rule(self):
        W = LaurentPotential(1, {(2,): mono(1)})
        (g,) = W.log_gradient()
        assert g == LaurentPotential(1, {(2,): mono(2)})

    def test_z_plus_q_over_z(self):
        q = NovikovSeries.monomial(1, 1)
        W = LaurentPotential(1, {(1,): mono(1), (-1,): q})
        (g,) = W.log_gradient()
        assert g == LaurentPotential(1, {(1,): mono(1), (-1,): -q})

    def test_chain_k3_gradient_vanishes_on_branch(self):
        link = CircleLinkS2(3, F(1, 8), F(1, 4))
        for c0 in (F(1), F(2), F(-3, 2)):
            W = build_chain_potential(link, BulkParameter(c0))
            pt = UnitaryPoint([mono(c0), mono(1), mono(1 / c0)])
            for comp in W.log_gradient():
                assert comp.evaluate(pt).is_zero()
            neg = UnitaryPoint([mono(c0), mono(-1), mono(1 / c0)])
            for comp in W.log_gradient():
                assert comp.evaluate(neg).is_zero()

    def test_scaling_commutes(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        W = build_chain_potential(link, BulkParameter(F(1)))
        u = NovikovSeries([(3, F(1, 3)), (-1, 2)])
        scaled = [g.scale(u) for g in W.log_gradient()]
        assert W.scale(u).log_gradient() == scaled


class TestHessian:
    def test_one_variable_at_one(self):
        _, matrix = W_zplus1overz().log_jet(
            UnitaryPoint([NovikovSeries.one()]))
        det = det_bareiss(matrix)
        assert matrix[0][0] == mono(2)
        assert det == mono(2)

    def test_separable_potential_is_block_diagonal(self):
        # f(z1) + g(z2): cross derivatives vanish identically.
        W = LaurentPotential(2, {(2, 0): mono(1), (-1, 0): mono(5),
                                 (0, 3): mono(2), (0, -2): mono(1)})
        hess = W.log_hessian()
        assert hess[0][1].is_zero() and hess[1][0].is_zero()
        pt = UnitaryPoint([NovikovSeries.one(), NovikovSeries.one()])
        det = det_bareiss(W.log_jet(pt)[1])
        d1 = hess[0][0].evaluate(pt)
        d2 = hess[1][1].evaluate(pt)
        assert det == d1 * d2

    def test_chain_k3_det_matches_closed_form(self):
        link = CircleLinkS2(3, F(1, 8), F(1, 4))
        c0 = F(2)
        W = build_chain_potential(link, BulkParameter(c0))
        pt = UnitaryPoint([mono(c0), mono(1), mono(1 / c0)])
        det = det_bareiss(W.log_jet(pt)[1])
        assert det == NovikovSeries.monomial(8 * c0 ** 4, 3 * link.B)

    def test_diagonal_det_valuation_sums_rows(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 4)
            diag = [NovikovSeries.monomial(F(rng.randint(1, 9)),
                                           F(rng.randint(0, 8), 4))
                    for _ in range(n)]
            matrix = [[diag[i] if i == j else NovikovSeries.zero()
                       for j in range(n)] for i in range(n)]
            det = det_bareiss(matrix)
            assert det.valuation() == sum(d.valuation() for d in diag)


class TestLogJet:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_symbolic_derivatives(self, data):
        n = data.draw(st.integers(1, 3))
        W = data.draw(laurent_potentials(n))
        z = [data.draw(unitary_series(min_terms=2, exact_only=False))
             for _ in range(n)]
        target = data.draw(positive_fractions)
        gradient, hessian = W.log_jet(z, target)

        def expected(entry):
            # No monomial reaches the entry: it is identically zero.
            if entry.is_zero():
                return NovikovSeries.zero()
            return entry.evaluate(z, target)

        assert gradient == [expected(g) for g in W.log_gradient()]
        assert hessian == [[expected(h) for h in row]
                           for row in W.log_hessian()]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ignores_changes_at_or_above_precision(self, data):
        # Coefficients (exact, finite-precision and O(T^p)) and coordinates
        # changed only at or above their precision: every gradient and
        # Hessian entry is unchanged modulo that entry's precision.
        n = data.draw(st.integers(1, 2))
        W = data.draw(laurent_potentials(n))
        # Coordinates known only to below the target, where an
        # over-claimed precision would show.
        z = [data.draw(unitary_series(min_terms=2)).truncate(
            data.draw(positive_fractions)) for _ in range(n)]
        target = 2 + data.draw(positive_fractions)
        changed = LaurentPotential(n, {m: data.draw(completions(c))
                                       for m, c in W.items()})
        z2 = [data.draw(completions(c)) for c in z]
        gradient, hessian = W.log_jet(z, target)
        gradient2, hessian2 = changed.log_jet(z2, target)
        for x, y in zip(gradient + sum(hessian, []),
                        gradient2 + sum(hessian2, [])):
            assert y.eq_mod(x, x.precision)

    def test_exact_needs_exact_monomial_coordinates(self):
        # 1 + O(T^5) is a monomial, but not an exact one.
        z = [NovikovSeries([(1, 0)], 5)]
        with pytest.raises(PrecisionError):
            W_zplus1overz().log_jet(z)
        with pytest.raises(PrecisionError):
            W_zplus1overz().evaluate(z)


class TestTermsThrough:
    def test_keeps_layers_up_to_the_cutoff(self):
        W = LaurentPotential(1, {(1,): mono(1, 1), (-1,): mono(1, 2),
                                 (2,): NovikovSeries.zero(3)})
        assert W.terms_through(F(3, 2)) == {(1,): mono(1, 1)}

    def test_unknown_coefficient_at_the_cutoff_raises(self):
        W = LaurentPotential(1, {(1,): mono(1, 1),
                                 (2,): NovikovSeries.zero(3)})
        with pytest.raises(PrecisionError,
                           match=r"T\^3 is unknown.*z\^\[2\] is O\(T\^3\)"):
            W.terms_through(3)


class TestDualNumberGradientCheck:
    def test_gradient_agrees_with_first_order_jet(self):
        rng = random.Random(5)
        for _ in range(8):
            k = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = tuple(rng.randint(-2, 2) for _ in range(k))
                coeff = NovikovSeries.monomial(F(rng.randint(-5, 5) or 1),
                                               F(rng.randint(0, 4), 3))
                terms[m] = terms.get(m, NovikovSeries.zero()) + coeff
            W = LaurentPotential(k, terms)
            coords = [NovikovSeries([(F(rng.choice([1, 2, -1])), F(0)),
                                     (F(rng.randint(-2, 2)), F(1, 2))])
                      for _ in range(k)]
            target = F(3)
            grads = W.log_gradient()
            for i in range(k):
                _, deriv = evaluate_dual(W, coords, i, target)
                symbolic = grads[i].evaluate(coords, target)
                assert symbolic == deriv


class TestMatrixHelpers:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bareiss_matches_minor_expansion(self, data):
        n = data.draw(st.integers(1, 4))
        matrix = [[data.draw(series(max_terms=2, exact_only=True))
                   for _ in range(n)] for _ in range(n)]
        expected = det_minor_expansion(matrix)
        got = det_bareiss(matrix)
        if expected.is_zero():
            assert got.is_zero()
        else:
            assert got == expected

    def test_solve_linear_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 3)
            matrix = [[NovikovSeries.monomial(F(rng.randint(1, 5)),
                                              F(rng.randint(0, 2)))
                       if i == j else
                       NovikovSeries.monomial(F(rng.randint(-2, 2)),
                                              F(rng.randint(1, 3)))
                       for j in range(n)] for i in range(n)]
            xs = [NovikovSeries.monomial(F(rng.randint(-3, 3) or 1),
                                         F(rng.randint(0, 2)))
                  for _ in range(n)]
            rhs = []
            for i in range(n):
                acc = NovikovSeries.zero()
                for j in range(n):
                    acc = acc + matrix[i][j] * xs[j]
                rhs.append(acc)
            sol = solve_linear(matrix, rhs, target_precision=F(12))
            for got, want in zip(sol, xs):
                assert got.eq_mod(want, got.precision)

    def test_singular_column_bound_counts_cofactor_valuation(self):
        # Column 0 is O(T^(1/6)), but the cofactor T^-1 + 1 of its lower
        # entry has valuation -1: the determinant is only O(T^(-5/6)).
        unknown = NovikovSeries.zero(F(1, 6))
        det = det_bareiss([[unknown, unknown],
                           [unknown, NovikovSeries([(1, -1), (1, 0)])]])
        assert det == NovikovSeries.zero(F(-5, 6))

    def test_solve_eliminates_unknown_entries(self):
        # [[e1, 1], [1, e2]] x = [1, 0] with e1, e2 = O(T^(1/6)) gives
        # x1 = 1 / (1 - e1 e2): known only modulo T^(1/3).
        unknown, one = NovikovSeries.zero(F(1, 6)), NovikovSeries.one()
        xs = solve_linear([[unknown, one], [one, unknown]],
                          [one, NovikovSeries.zero()], F(25, 6))
        assert xs == [unknown, NovikovSeries([(1, 0)], F(1, 3))]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bareiss_ignores_changes_at_or_above_precision(self, data):
        # Exact, finite-precision and O(T^p) entries; the changed matrix
        # may be fully exact, which takes the exact Bareiss quotients.
        n = data.draw(st.integers(1, 3))
        matrix = [[data.draw(series(max_terms=2)) for _ in range(n)]
                  for _ in range(n)]
        changed = [[data.draw(completions(e)) for e in row]
                   for row in matrix]
        det = det_bareiss(matrix)
        assert det_bareiss(changed).eq_mod(det, det.precision)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve_ignores_changes_at_or_above_precision(self, data):
        n = data.draw(st.integers(1, 3))
        matrix = [[data.draw(series(max_terms=2)) for _ in range(n)]
                  for _ in range(n)]
        rhs = [data.draw(series(max_terms=2)) for _ in range(n)]
        target = 4 + data.draw(positive_fractions)
        try:
            xs = solve_linear(matrix, rhs, target)
        except SingularMatrixError:
            assume(False)
        ys = solve_linear([[data.draw(completions(e)) for e in row]
                           for row in matrix],
                          [data.draw(completions(e)) for e in rhs], target)
        for x, y in zip(xs, ys):
            assert y.eq_mod(x, x.precision)


class TestSerialization:
    def test_round_trip(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        W = build_chain_potential(link, BulkParameter(F(3, 2)))
        assert LaurentPotential.from_obj(W.to_obj()) == W

    def test_bare_list_accepted(self):
        obj = [{"m": [1, 0], "coeff": {"terms": [{"c": "1", "e": "0"}],
                                       "prec": "inf"}}]
        W = LaurentPotential.from_obj(obj)
        assert W.num_vars == 2

    def test_point_round_trip(self):
        pt = UnitaryPoint([NovikovSeries([(1, 0), (F(1, 2), F(3, 2))])])
        assert UnitaryPoint.from_obj(pt.to_obj()) == pt
