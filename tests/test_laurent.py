"""Potential evaluation, multiplicative calculus and series determinants."""

from __future__ import annotations

import random
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import novlink
from novlink import laurent
from novlink.cliffordtrace import CliffordAlgebraModel
from novlink.errors import (
    AreaError,
    ConfigError,
    NonUnitaryError,
    NovlinkError,
    PrecisionError,
    SingularMatrixError,
)
from novlink.laurent import (
    LaurentPotential,
    UnitaryPoint,
    _bareiss,
    det_bareiss,
    solve_linear,
)
from novlink.linkfam import BulkParameter, CircleLinkS2, build_chain_potential
from novlink.novikov import INFINITY, NovikovSeries
from novlink.symprodqh import SymQHElement

from oracles import (
    bareiss_full_square,
    det_bareiss_full_square,
    det_minor_expansion,
    evaluate_dual,
    log_gradient,
    log_hessian,
    solve_linear_full_square,
)
from strategies import (
    block_forms,
    completions,
    laurent_potentials,
    positive_fractions,
    series,
    symmetric_forms,
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

    @pytest.mark.parametrize("m", [1, None, {1}])
    def test_exponent_vector_must_be_a_list(self, m):
        with pytest.raises(ConfigError, match="monomial exponents must be a "
                                              "list of integers"):
            LaurentPotential(1, [(m, 1)])

    def test_mismatched_variable_counts_rejected(self):
        with pytest.raises(ConfigError, match="does not match num_vars"):
            LaurentPotential(2, {(1,): 1})
        with pytest.raises(ConfigError, match="different variable counts"):
            W_zplus1overz() + LaurentPotential(2, {(1, 0): 1})

    @pytest.mark.parametrize("terms", [
        5, None, "ab", b"ab", ["ab"], [(1,)], [((1,), 1, 2)], [{(1,): 1}],
        iter([5])])
    def test_terms_must_be_a_mapping_or_pairs(self, terms):
        # A two-character string is no pair: it would unpack into m = "a",
        # coeff = "b".
        with pytest.raises(ConfigError, match=r"^terms must be a mapping or "
                                              r"a list of \(m, coeff\) "
                                              r"pairs, got "):
            LaurentPotential(1, terms)

    def test_terms_may_be_a_generator_of_pairs(self):
        assert (LaurentPotential(1, (((e,), 1) for e in (1, -1)))
                == W_zplus1overz())

    @pytest.mark.parametrize("coords", ["12", b"12", "", 5, None, F(1)])
    def test_point_coords_must_be_an_iterable_of_entries(self, coords):
        # The digits of "12" are no coordinates of a point (1, 2).
        with pytest.raises(ConfigError, match="^coords must be a list of "
                                              "coordinates, got "):
            UnitaryPoint(coords)

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
        (g,) = log_gradient(W)
        assert g == LaurentPotential(1, {(2,): mono(2)})

    def test_z_plus_q_over_z(self):
        q = NovikovSeries.monomial(1, 1)
        W = LaurentPotential(1, {(1,): mono(1), (-1,): q})
        (g,) = log_gradient(W)
        assert g == LaurentPotential(1, {(1,): mono(1), (-1,): -q})

    def test_chain_k3_gradient_vanishes_on_branch(self):
        link = CircleLinkS2(3, F(1, 8), F(1, 4))
        for c0 in (F(1), F(2), F(-3, 2)):
            W = build_chain_potential(link, BulkParameter(c0))
            pt = UnitaryPoint([mono(c0), mono(1), mono(1 / c0)])
            for comp in log_gradient(W):
                assert comp.evaluate(pt).is_zero()
            neg = UnitaryPoint([mono(c0), mono(-1), mono(1 / c0)])
            for comp in log_gradient(W):
                assert comp.evaluate(neg).is_zero()

    def test_scaling_commutes(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        W = build_chain_potential(link, BulkParameter(F(1)))
        u = NovikovSeries([(3, F(1, 3)), (-1, 2)])
        scaled = [LaurentPotential(g.num_vars,
                                   {m: c * u for m, c in g.items()})
                  for g in log_gradient(W)]
        assert log_gradient(LaurentPotential(
            W.num_vars, {m: c * u for m, c in W.items()})) == scaled


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
        hess = log_hessian(W)
        assert hess[0][1] == hess[1][0] == LaurentPotential(2, {})
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
            if entry == LaurentPotential(n, {}):
                return NovikovSeries.zero()
            return entry.evaluate(z, target)

        assert gradient == [expected(g) for g in log_gradient(W)]
        assert hessian == [[expected(h) for h in row]
                           for row in log_hessian(W)]

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

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_positive_coefficient_valuations_lose_nothing(self, data):
        # Every coefficient has a valuation bound above 0, so below a
        # target above it the coordinate powers are built below the
        # target.  Every completion of the point agrees with the value and
        # the jet below each entry's precision, and each entry claims the
        # precision that the untargeted one has below the target.
        n = data.draw(st.integers(1, 2))
        shift = mono(1, 4 + data.draw(positive_fractions))
        W = LaurentPotential(n, {m: c * shift for m, c in
                                 data.draw(laurent_potentials(n)).items()})
        z = [data.draw(unitary_series(min_terms=2)).truncate(
            data.draw(positive_fractions)) for _ in range(n)]
        z2 = [data.draw(completions(c)) for c in z]
        target = 2 + data.draw(positive_fractions)

        def values(point, *target):
            gradient, hessian = W.log_jet(point, *target)
            return [W.evaluate(point, *target)] + gradient + sum(hessian, [])

        got = values(z, target)
        # An entry that no monomial reaches is an exact zero either way.
        assert [x.truncate(target) for x in got] == \
            [x.truncate(target) for x in values(z)]
        for x, y in zip(got, values(z2, target)):
            assert y.eq_mod(x, x.precision)

    def test_untargeted_monomial_coordinate_keeps_its_precision(self):
        # 1 + O(T^5) is a monomial, but not an exact one; 1/z is 1 + O(T^5).
        z = [NovikovSeries([(1, 0)], 5)]
        value = W_zplus1overz().evaluate(z)
        assert value == NovikovSeries([(2, 0)], 5)
        assert value == W_zplus1overz().evaluate(z, 5)
        gradient, hessian = W_zplus1overz().log_jet(z)
        assert gradient == [NovikovSeries.zero(5)]
        assert hessian == [[NovikovSeries([(2, 0)], 5)]]


class TestMonomialTable:
    def test_lists_the_nonzero_exponents_of_each_monomial(self):
        W = LaurentPotential(3, {(0, 0, 0): 1, (2, 0, -1): mono(1, 1),
                                 (0, -3, 0): 2})
        z = [mono(1), mono(-1), mono(2)]
        prec, table = W._monomial_table(z, None)
        assert prec is INFINITY
        assert table == [([(1, -3)], mono(-2)), ([], mono(1)),
                         ([(0, 2), (2, -1)], mono(F(1, 2), 1))]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_entry_is_one_monomial_in_increasing_index(self, data):
        n = data.draw(st.integers(1, 3))
        W = data.draw(laurent_potentials(n))
        z = [data.draw(unitary_series()) for _ in range(n)]
        target = data.draw(positive_fractions)
        prec, table = W._monomial_table(z, target)
        assert prec == target
        assert len(table) == len(W.terms)
        for (live, value), (m, c) in zip(table, W.items()):
            assert [i for i, _ in live] == sorted({i for i, _ in live})
            assert all(e for _, e in live)
            assert tuple(dict(live).get(i, 0) for i in range(n)) == m
            assert value == LaurentPotential(n, {m: c}).evaluate(z, target)


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
            grads = log_gradient(W)
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
            sol = solve_linear([[e.truncate(12) for e in row]
                                for row in matrix],
                               [e.truncate(12) for e in rhs])
            for got, want in zip(sol, xs):
                assert got.eq_mod(want, got.precision)

    @pytest.mark.parametrize("rows, rhs, match", [
        # Each row's third entry would be read as the right-hand side.
        ([[1, 0, 2], [0, 1, 2]], [1, 1], "not square"),
        ([[1, 0], [0, 1]], [1], "1 entries for 2 rows"),
        # The third entry would be dropped.
        ([[1, 0], [0, 1]], [1, 1, 1], "3 entries for 2 rows"),
    ])
    def test_solve_refuses_malformed_shapes(self, rows, rhs, match):
        with pytest.raises(ConfigError, match=match):
            solve_linear([[mono(x) for x in row] for row in rows],
                         [mono(x) for x in rhs])

    def test_rational_entries_are_read_as_series(self):
        # Ints, Fractions and "p/q" strings are exact constants, as on the
        # right-hand side.
        for matrix, want in [([[2, 0], [0, 1]], mono(2)),
                             ([[F(1, 2)]], mono(F(1, 2))),
                             ([["1/3", 1], [0, mono(3, 1)]], mono(1, 1))]:
            det = det_bareiss(matrix)
            assert isinstance(det, NovikovSeries) and det == want
        xs = solve_linear([[2, 0], [0, 1]], [1, 1])
        assert all(isinstance(x, NovikovSeries) for x in xs)
        assert xs == [mono(F(1, 2)), mono(1)]

    @pytest.mark.parametrize("bad", [True, 1.5, "x", None])
    def test_non_rational_entries_refused(self, bad):
        with pytest.raises(ConfigError):
            det_bareiss([[bad]])
        with pytest.raises(ConfigError):
            det_bareiss([[mono(1), bad], [bad, mono(1)]])
        with pytest.raises(ConfigError):
            solve_linear([[mono(1), bad], [bad, mono(1)]], [1, 1])

    def test_bareiss_names_the_bad_entry(self):
        with pytest.raises(ConfigError, match=r"matrix\[1\]\[0\] must be an "
                                              r"integer .*got True"):
            det_bareiss([[1, 2], [True, 3]])

    def test_solve_names_the_bad_entry(self):
        with pytest.raises(ConfigError, match=r"matrix\[0\]\[1\] 'x' is not "
                                              r"a rational number"):
            solve_linear([[1, "x"], [0, 1]], [1, 1])
        with pytest.raises(ConfigError, match=r"rhs\[1\] must be an integer "
                                              r".*got 1\.5"):
            solve_linear([[1, 0], [0, 1]], [1, 1.5])

    def test_bareiss_refuses_a_non_square_matrix(self):
        with pytest.raises(ConfigError, match="not square"):
            det_bareiss([[mono(1), mono(2)]])

    @pytest.mark.parametrize("call, args, match", [
        # Strings and dicts iterate, but are not rows of entries.
        (det_bareiss, (["12", "34"],),
         r"^matrix\[0\] must be a list of entries, got '12'$"),
        (det_bareiss, ([{5: "x"}],),
         r"^matrix\[0\] must be a list of entries, got \{5: 'x'\}$"),
        (solve_linear, ([[1, 0], [0, 1]], "12"),
         r"^rhs must be a list of entries, got '12'$"),
        (det_bareiss, (5,), r"^matrix must be a list of rows, got 5$"),
        (det_bareiss, ([5],), r"^matrix\[0\] must be a list of entries, "
                              r"got 5$"),
    ], ids=["string-rows", "dict-row", "string-rhs", "scalar-matrix",
            "scalar-row"])
    def test_matrix_rows_and_rhs_must_be_lists(self, call, args, match):
        with pytest.raises(ConfigError, match=match):
            call(*args)

    def test_singular_column_bound_counts_cofactor_valuation(self):
        # Column 0 is O(T^(1/6)), but the cofactor T^-1 + 1 of its lower
        # entry has valuation -1: the determinant is only O(T^(-5/6)).
        unknown = NovikovSeries.zero(F(1, 6))
        det = det_bareiss([[unknown, unknown],
                           [unknown, NovikovSeries([(1, -1), (1, 0)])]])
        assert det == NovikovSeries.zero(F(-5, 6))

    def test_singular_block_bound_counts_every_row(self):
        # Under the pivot T the rest of the block is O(T^(1/3)), and
        # dividing by T left the elimination's bound at O(T^(-1/3)); every
        # term of the determinant takes one O(T^(1/6)) entry per row, so
        # it is O(T^(1/2)), as the minor expansion says.  With it as one
        # block of a 7 x 7 form, the factored determinant claims what one
        # elimination of the whole form claims.
        unknown, zero = NovikovSeries.zero(F(1, 6)), NovikovSeries.zero()
        block = [[NovikovSeries([(1, 1)], F(7, 6)), unknown, unknown],
                 [unknown] * 3, [unknown] * 3]
        assert det_bareiss(block) == det_minor_expansion(block) \
            == NovikovSeries.zero(F(1, 2))
        form = ([[unknown] + [zero] * 6]
                + [[zero] + [unknown] * 3 + [zero] * 3] * 3
                + [[zero] * 4 + row for row in block])
        assert det_bareiss(form) == _bareiss(form, True) \
            == NovikovSeries.zero(F(7, 6))

    def test_singular_det_bound_counts_the_rows_of_the_matrix(self):
        # After the pivot 2T^(1/2), column 1 vanishes mod precision below
        # row 1, and Sylvester's bound is only O(T^(3/2)).  The rows' least
        # valuations, 2/3 + 1 + 0, give O(T^(5/3)), the columns' O(T^(5/6));
        # the determinant claims the largest, as the minor expansion does.
        def unknown(p):
            return NovikovSeries.zero(F(p))

        matrix = [[NovikovSeries([(2, F(2, 3))], F(7, 6)), unknown("5/6"),
                   unknown("5/6")],
                  [unknown(1)] * 3,
                  [NovikovSeries([(2, F(1, 2))], 2), unknown("1/3"),
                   unknown(0)]]
        assert det_bareiss(matrix) == det_minor_expansion(matrix) \
            == NovikovSeries.zero(F(5, 3))

    def test_solve_eliminates_unknown_entries(self):
        # [[e1, 1], [1, e2]] x = [1, 0] with e1, e2 = O(T^(1/6)) gives
        # x1 = 1 / (1 - e1 e2): known only modulo T^(1/3).
        unknown, one = NovikovSeries.zero(F(1, 6)), NovikovSeries.one()
        xs = solve_linear([[e.truncate(F(25, 6)) for e in row]
                           for row in [[unknown, one], [one, unknown]]],
                          [e.truncate(F(25, 6))
                           for e in [one, NovikovSeries.zero()]])
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

    @given(form=block_forms(exact_only=True))
    @settings(max_examples=60, deadline=None)
    def test_factored_bareiss_matches_minor_expansion(self, form):
        got = det_bareiss(form)
        want = det_minor_expansion(form)
        assert got.integer_form == want.integer_form
        assert got.precision == want.precision

    @given(form=block_forms())
    @settings(max_examples=150, deadline=None)
    def test_factored_bareiss_is_never_looser_than_one_elimination(self,
                                                                   form):
        # Each block is eliminated on its own, so a block whose
        # determinant vanishes modulo its precision gets its own bound;
        # the product claims at least the precision that eliminating the
        # whole matrix claims, and agrees with it and with the minor
        # expansion modulo the lesser precision.
        got = det_bareiss(form)
        whole = _bareiss(form, True)
        want = det_minor_expansion(form)
        assert got.precision >= whole.precision
        assert got.eq_mod(whole, whole.precision)
        assert got.eq_mod(want, min(got.precision, want.precision))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_factored_bareiss_ignores_changes_at_or_above_precision(
            self, data):
        # The completion check of the test above, on block forms: the
        # factored determinant claims no more precision than it has.
        matrix = data.draw(block_forms())
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
            xs = solve_linear([[e.truncate(target) for e in row]
                               for row in matrix],
                              [e.truncate(target) for e in rhs])
        except SingularMatrixError:
            assume(False)
        ys = solve_linear([[data.draw(completions(e)).truncate(target)
                            for e in row] for row in matrix],
                          [data.draw(completions(e)).truncate(target)
                           for e in rhs])
        for x, y in zip(xs, ys):
            assert y.eq_mod(x, x.precision)


def outcome(f, *args):
    """``f(*args)``, or the type and message of the library error it
    raises."""
    try:
        return f(*args)
    except NovlinkError as exc:
        return type(exc), str(exc)


def count_quotients(monkeypatch):
    """A list that gains one entry per quotient an elimination takes."""
    calls = []
    divider = laurent._divider

    def spy(b):
        quotient = divider(b)
        return lambda a: calls.append(a) or quotient(a)

    monkeypatch.setattr(laurent, "_divider", spy)
    return calls


class TestSquare:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_flags_hold_exactly_for_a_symmetric_matrix(self, data):
        # Interleaved blocks of exact, finite-precision and O(T^p) entries
        # with exact zeros between them; one entry may then be changed,
        # to an exact zero too, so that its mirror differs and blocks may
        # join or split.
        form = data.draw(block_forms())
        n = len(form)
        if n > 1 and data.draw(st.booleans()):
            i, j = data.draw(st.permutations(range(n)))[:2]
            form[i][j] = data.draw(st.one_of(st.just(NovikovSeries.zero()),
                                             series(max_terms=2)))
        rows, blocks = laurent._square(form, "form")
        assert rows == form
        assert sorted(i for block, _ in blocks for i in block) == \
            list(range(n))
        for block, flag in blocks:
            assert flag == all(form[i][j] == form[j][i]
                               for i in block for j in block)
            assert all(form[i][j].is_exact_zero() for i in block
                       for j in range(n) if j not in block)
        transpose = [list(col) for col in zip(*form)]
        assert all(flag for _, flag in blocks) == (form == transpose)


class TestSymmetricElimination:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_square_loops(self, data):
        # Exact, finite-precision and O(T^p) entries; exact multi-term
        # entries may make a quotient inexact, which must raise alike.
        form = data.draw(st.one_of(symmetric_forms(), block_forms()))
        rhs = data.draw(st.lists(series(max_terms=2), min_size=len(form),
                                 max_size=len(form)))
        assert outcome(det_bareiss, form) == \
            outcome(det_bareiss_full_square, form)
        assert outcome(_bareiss, form, True) == \
            outcome(bareiss_full_square, form)
        assert outcome(solve_linear, form, rhs) == \
            outcome(solve_linear_full_square, form, rhs)

    def test_row_swap_ends_the_copying(self, monkeypatch):
        # Column 0's least valuation is in row 1, so the first pivot swaps
        # rows 0 and 1 and every step updates the whole square: 4 + 1
        # Bareiss updates, where one triangle would take 3 + 1.
        T = mono(1, 1)
        form = [[T, mono(1), mono(2)], [mono(1), T, mono(3)],
                [mono(2), mono(3), T]]
        rhs = [mono(1), mono(0), mono(-1)]
        calls = count_quotients(monkeypatch)
        det = det_bareiss(form)
        assert len(calls) == 4 + 1
        assert det == bareiss_full_square(form) == det_minor_expansion(form)
        # Truncated, so that the solve's quotients are finite.
        form = [[e.truncate(8) for e in row] for row in form]
        xs = solve_linear(form, rhs)
        assert xs == solve_linear_full_square(form, rhs)
        assert all(x.precision == 8 for x in xs)

    def test_dense_symmetric_form_updates_one_triangle(self, monkeypatch):
        # Diagonal pivots throughout: 10 + 6 + 3 + 1 updates, not
        # 16 + 9 + 4 + 1.
        form = [[mono(5 if i == j else 1) for j in range(5)]
                for i in range(5)]
        calls = count_quotients(monkeypatch)
        assert det_bareiss(form) == mono(4 ** 4 * 9)
        assert len(calls) == 20


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

    def test_repeated_monomials_are_summed(self):
        def term(m, c, e="0"):
            return {"m": m, "coeff": {"terms": [{"c": c, "e": e}]}}

        W = LaurentPotential.from_obj([term([1, 0], "1"),
                                       term([0, 1], "2"),
                                       term([1, 0], "3", "1/2")])
        assert W == LaurentPotential(2, {
            (1, 0): NovikovSeries([(1, 0), (3, F(1, 2))]),
            (0, 1): NovikovSeries.monomial(2, 0)})
        # Copies that cancel leave no term; only the other one stays.
        W = LaurentPotential.from_obj({"num_vars": 1, "terms": [
            term([1], "1"), term([-1], "2"), term([1], "-1")]})
        assert W == LaurentPotential(1, {(-1,): NovikovSeries.monomial(2, 0)})

    def test_pairs_match_the_mapping(self):
        x, y = NovikovSeries.monomial(1, F(1, 3)), NovikovSeries.zero(2)
        W = LaurentPotential(2, {(1, 0): x, (0, -1): y})
        assert LaurentPotential(2, [((0, -1), y), ((1, 0), x)]) == W
        assert LaurentPotential(2, [((1, 0), x), ((0, -1), y),
                                    ((1, 0), -x), ((1, 0), x)]) == W
        assert W + W == LaurentPotential(2, {(1, 0): 2 * x, (0, -1): y})
        with pytest.raises(TypeError):
            W + 1

    def test_point_round_trip(self):
        pt = UnitaryPoint([NovikovSeries([(1, 0), (F(1, 2), F(3, 2))])])
        assert UnitaryPoint.from_obj(pt.to_obj()) == pt

    ONE = [{"c": "1", "e": "0"}]

    @pytest.mark.parametrize("read, obj, match", [
        (LaurentPotential.from_obj, {"terms": 5}, "a term list or an object"),
        (LaurentPotential.from_obj, [{"m": 5, "coeff": ONE}],
         "monomial exponents must be a list"),
        (LaurentPotential.from_obj,
         {"num_vars": 1, "terms": [{"m": "1", "coeff": ONE}]},
         "monomial exponents must be a list"),
        (UnitaryPoint.from_obj, {"coords": 5}, "a point must be an object"),
        (UnitaryPoint.from_obj, [ONE], "a point must be an object"),
        (LaurentPotential.from_obj, {}, "potential needs num_vars or terms"),
        (LaurentPotential.from_obj, [], "potential needs num_vars or terms"),
    ])
    def test_malformed_lists_refused(self, read, obj, match):
        with pytest.raises(ConfigError, match=match):
            read(obj)

    def test_terms_are_summed_and_sorted_once(self):
        x, y = mono(1, F(1, 3)), mono(-2, 1)
        W = LaurentPotential(2, [((1, 0), x), ((0, -1), y), ((1, 0), x)])
        assert W.terms == (((0, -1), y), ((1, 0), 2 * x))
        assert list(W.items()) == list(W.terms)


# Each value type built twice from different input of equal value: a
# potential from a mapping and from the reversed pair list with one
# monomial split into two summands, a point from a list of series and from
# a generator of rationals, a symmetric element from series and rationals.
VALUE_TYPES = {
    "point": lambda: (UnitaryPoint([mono(2), mono(-1)]),
                      UnitaryPoint(F(c) for c in (2, -1))),
    "potential": lambda: (
        LaurentPotential(2, {(1, 0): mono(1) + mono(2, 1),
                             (0, -1): mono(3)}),
        LaurentPotential(2, [((0, -1), 3), ((1, 0), mono(2, 1)),
                             ((1, 0), 1)])),
    "sym-element": lambda: (
        SymQHElement(2, F(1, 2), [mono(1), 0, mono(1, 2)]),
        SymQHElement(2, "1/2", (1, F(0), mono(1, 2)))),
}


@pytest.mark.parametrize("build", VALUE_TYPES.values(),
                         ids=list(VALUE_TYPES))
class TestValueTypes:
    def test_equal_input_gives_equal_values_and_hashes(self, build):
        a, b = build()
        assert a == b
        assert hash(a) == hash(b)

    def test_not_equal_to_a_plain_tuple_of_its_fields(self, build):
        a, _ = build()
        assert a != tuple(getattr(a, f.name) for f in fields(a))

    def test_every_field_is_frozen(self, build):
        a, _ = build()
        for f in fields(a):
            with pytest.raises(AttributeError):
                setattr(a, f.name, getattr(a, f.name))


# One instance of each dataclass that ``novlink`` exports, with one field
# its constructor checks, a bad value for it and the refusal (``None`` for
# a result type, whose fields are not checked).
EXPORTED_DATACLASSES = {
    "AreaSchedule": (lambda: novlink.AreaSchedule(), "annulus_ratio", 1,
                     ConfigError, "annulus_ratio must lie in"),
    "BulkParameter": (lambda: novlink.BulkParameter("1/2"), "c0", 0,
                      ConfigError, "c0 must be nonzero"),
    "CircleLinkS2": (lambda: novlink.CircleLinkS2(2, "1/8", "1/4"), "A",
                     "1/4", AreaError, "η-monotone at k = 2"),
    "CriticalCertificate": (
        lambda: novlink.critical_data(novlink.CircleLinkS2(2, "1/8", "1/4"),
                                      novlink.BulkParameter()), None),
    "LaurentPotential": (
        lambda: novlink.LaurentPotential(2, {(1, 0): 1, (0, -1): mono(3, 1)}),
        "num_vars", 0, ConfigError, "num_vars must be a positive integer"),
    "LiftConfig": (lambda: novlink.LiftConfig("3/2"), "target_precision", 0,
                   ConfigError, "target_precision must be positive"),
    "ModelOrbitSet": (lambda: novlink.ModelOrbitSet([1, "1/2"]), "values",
                      "12", ConfigError, "values must be a list"),
    "RigidityResult": (lambda: novlink.rigidity_check([0, 1], [0, 0, 1],
                                                      "1/2"), None),
    "ScanConfig": (lambda: novlink.ScanConfig((1, 3)), "k_range", (0, 2),
                   ConfigError, "k_range must satisfy 1 <= lo <= hi"),
    "SpectrumConfig": (lambda: novlink.SpectrumConfig(2, 1, (0, 3)),
                       "window", (1, 0), ConfigError,
                       "window must satisfy lo <= hi"),
    "SymQHElement": (lambda: novlink.SymQHElement(2, "1/2", [1, 0, 1]),
                     "omega", 0, ConfigError, "omega must be positive"),
    "TruncationReport": (
        lambda: novlink.truncation_obstruction(
            novlink.LaurentPotential(1, {(1,): 1, (-1,): 1}), 0), None),
    "UnitaryPoint": (lambda: novlink.UnitaryPoint([mono(2), mono(-1)]),
                     "coords", ["x"], ConfigError, "'x' is not a rational"),
}


def test_every_exported_dataclass_has_an_instance():
    assert sorted(name for name in novlink.__all__
                  if is_dataclass(getattr(novlink, name))) \
        == sorted(EXPORTED_DATACLASSES)


@pytest.mark.parametrize("name", list(EXPORTED_DATACLASSES))
def test_replace_runs_the_constructor_checks(name):
    """``dataclasses.replace`` builds through the generated ``__init__``,
    so it reaches the same ``__post_init__`` checks as the constructor."""
    build, field, *refusal = EXPORTED_DATACLASSES[name]
    x = build()
    assert replace(x) == x
    if field is not None:
        bad, error, match = refusal
        with pytest.raises(error, match=match):
            replace(x, **{field: bad})


@pytest.mark.parametrize("build, where", [
    (lambda bad: CliffordAlgebraModel([[1, 0], [0, bad]]), r"form\[1\]\[1\]"),
    (lambda bad: UnitaryPoint([1, bad]), r"coords\[1\]"),
    (lambda bad: SymQHElement(2, 1, [1, 0, bad]), r"coeffs\[2\]"),
    (lambda bad: LaurentPotential(1, {(1,): bad}), r"terms\[\(1,\)\]"),
    (lambda bad: CliffordAlgebraModel([[1]]).element({(1,): bad}),
     r"coeffs\[\(1,\)\]"),
])
def test_containers_name_the_bad_entry(build, where):
    with pytest.raises(ConfigError, match=where + r" must be an integer "
                                                  r".*got True"):
        build(True)
    with pytest.raises(ConfigError, match=where + r" 'x' is not a rational "
                                                  r"number"):
        build("x")
