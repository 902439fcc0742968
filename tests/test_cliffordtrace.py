"""Clifford model: products, pairing, trace identity and calibration."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novlink import cliffordtrace, novikov
from novlink.cliffordtrace import (
    KAPPA,
    TRACE_WORK_LIMIT,
    CliffordAlgebraModel,
    _shuffle_parity,
    _trace_loop,
    clifford_product,
    defect_bound,
    poincare_pairing,
    trace_Z,
)
from novlink.errors import (
    AlgebraMismatchError,
    ConfigError,
    DegenerateTraceError,
    PrecisionError,
)
from novlink.laurent import _square, det_bareiss
from novlink.linkfam import BulkParameter, CircleLinkS2, critical_data
from novlink.novikov import NovikovSeries

from oracles import det_minor_expansion, trace_with_conventions
from strategies import block_forms, nonzero_fractions, symmetric_forms
from test_acceptance import criterion_2_cases


def mono(c, e=0):
    return NovikovSeries.monomial(F(c), F(e))


def diag_form(*entries):
    n = len(entries)
    return [[entries[i] if i == j else NovikovSeries.zero()
             for j in range(n)] for i in range(n)]


def components(form):
    """The index sets of the blocks ``laurent._square`` reads off ``form``."""
    return [block for block, _ in _square(form, "form")[1]]


def diag_algebra(*entries):
    return CliffordAlgebraModel(diag_form(*entries))


def no_loop(*args):
    raise AssertionError("the trace was started")


def two_term(i, j):
    return NovikovSeries([(i + 2, F(i + j, 3)), (j - 3 or 1, F(i + j + 1))])


def dense_form(n):
    return [[two_term(min(i, j), max(i, j)) for j in range(n)]
            for i in range(n)]


def tridiagonal_form(n):
    return [[two_term(min(i, j), max(i, j)) if abs(i - j) <= 1
             else NovikovSeries.zero() for j in range(n)] for i in range(n)]


def star_form(n):
    return [[two_term(min(i, j), max(i, j)) if i == j or 0 in (i, j)
             else NovikovSeries.zero() for j in range(n)] for i in range(n)]


def random_symmetric_form(rng, n, diagonal=False):
    form = [[NovikovSeries.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if diagonal and i != j:
                continue
            pairs = [(F(rng.randint(-6, 6) or 2, rng.randint(1, 3)),
                      F(rng.randint(0, 10), rng.choice((2, 3, 4))))]
            if rng.random() < 0.4:
                pairs.append((F(rng.randint(-4, 4) or 1),
                              pairs[0][1] + F(rng.randint(1, 5), 4)))
            entry = NovikovSeries(pairs)
            if i == j and entry.is_zero():
                entry = NovikovSeries.one()
            form[i][j] = entry
            form[j][i] = entry
    return form


class TestProduct:
    def test_unit_acts_trivially(self):
        alg = diag_algebra(mono(3), mono(5))
        x = alg.element({(1,): mono(2), (1, 2): mono(7)})
        assert clifford_product(alg, alg.unit, x) == x
        assert clifford_product(alg, x, alg.unit) == x

    def test_generator_square_is_half_kappa_form(self):
        h = NovikovSeries([(3, F(1, 2))])
        alg = diag_algebra(h)
        e1 = alg.basis_element((1,))
        sq = clifford_product(alg, e1, e1)
        assert sq.coefficient(()) == h * F(KAPPA, 2)
        assert sq.coefficient((1,)).is_zero()

    def test_unknown_square_is_kept(self):
        alg = diag_algebra(NovikovSeries.zero(2))
        e1 = alg.basis_element((1,))
        sq = clifford_product(alg, e1, e1)
        assert sq.coefficient(()) == NovikovSeries.zero(2)
        assert sq.is_zero()

    def test_off_diagonal_generators_anticommute(self):
        alg = diag_algebra(mono(2), mono(3))
        e1, e2 = alg.basis_element((1,)), alg.basis_element((2,))
        ab = clifford_product(alg, e1, e2)
        ba = clifford_product(alg, e2, e1)
        assert (ab + ba).is_zero()

    def test_algebra_mismatch_rejected(self):
        alg2 = diag_algebra(mono(1), mono(1))
        alg3 = diag_algebra(mono(1), mono(1), mono(1))
        with pytest.raises(AlgebraMismatchError, match="algebra mismatch"):
            clifford_product(alg2, alg2.unit, alg3.unit)

    def test_mismatch_of_the_same_size_rejected(self):
        alg = diag_algebra(mono(1), mono(1))
        twin = diag_algebra(mono(1), mono(1))
        other = diag_algebra(mono(1), mono(2))
        assert alg.unit + twin.unit == alg.element({(): mono(2)})
        for bad in (lambda: alg.unit + 1,
                    lambda: alg.unit + other.unit,
                    lambda: clifford_product(other, alg.unit, twin.unit)):
            with pytest.raises(AlgebraMismatchError, match="algebra mismatch"):
                bad()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, data):
        n = data.draw(st.integers(1, 4))
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        alg = CliffordAlgebraModel(random_symmetric_form(rng, n))

        def rand_elt():
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                I = tuple(sorted(rng.sample(range(1, n + 1),
                                            rng.randint(0, n))))
                coeffs[I] = mono(rng.randint(-4, 4) or 1,
                                 F(rng.randint(0, 3), 2))
            return alg.element(coeffs)

        a, b, c = rand_elt(), rand_elt(), rand_elt()
        left = clifford_product(alg, clifford_product(alg, a, b), c)
        right = clifford_product(alg, a, clifford_product(alg, b, c))
        assert left == right


class TestBasisSubsets:
    @pytest.mark.parametrize("bad, match", [
        ([F(17, 10)], r": a generator must be a JSON integer, got "),
        ([1.7], r": a generator must be a JSON integer, got 1\.7"),
        ([True], r": a generator must be a JSON integer, got True"),
        (["a"], r": a generator must be a JSON integer, got 'a'"),
        (5, r": not a list of generators, got 5"),
        ("12", r": not a list of generators, got '12'"),
        ([0], r" \(0,\)"), ([3], r" \(3,\)"), ([2, 2], r" \(2, 2\)")])
    def test_basis_element_refusals(self, bad, match):
        alg = diag_algebra(mono(1), mono(1))
        with pytest.raises(ConfigError, match="^invalid basis subset" + match):
            alg.basis_element(bad)

    @pytest.mark.parametrize("key", [(5,), (1, 1), (0,), (1.0,), ("1",),
                                     "12", 5])
    def test_element_keys_are_read_as_basis_subsets(self, key):
        # e[5] and e[1, 1] are no basis elements of a 2-generator algebra.
        alg = diag_algebra(mono(1), mono(1))
        with pytest.raises(ConfigError, match="^invalid basis subset"):
            alg.element({key: 1})

    def test_subset_may_be_any_iterable_of_generators(self):
        alg = diag_algebra(mono(1), mono(1))
        want = alg.basis_element((1, 2))
        assert alg.basis_element([2, 1]) == want
        assert alg.basis_element({1, 2}) == want
        assert alg.basis_element(i for i in (2, 1)) == want
        assert alg.element({frozenset({1, 2}): 1}) == want == alg.vol


class TestPairing:
    def test_unit_pairs_with_volume(self):
        alg = diag_algebra(mono(1), mono(1), mono(1))
        assert poincare_pairing(alg, alg.unit, alg.vol) == mono(1)

    def test_non_complementary_vanishes(self):
        alg = diag_algebra(mono(1), mono(1))
        e1 = alg.basis_element((1,))
        assert poincare_pairing(alg, e1, e1).is_zero()

    def test_gram_matrix_is_signed_permutation(self):
        alg = diag_algebra(mono(1), mono(1), mono(1))
        subsets = alg.subsets()
        for I in subsets:
            hits = [J for J in subsets if alg.pairing_sign(I, J) != 0]
            assert len(hits) == 1
            assert alg.pairing_sign(I, hits[0]) in (1, -1)


class TestTraceIdentity:
    def test_rank_zero_trace_is_one(self):
        assert trace_Z([]) == NovikovSeries.one()

    def test_rank_one_trace_equals_form(self):
        h = NovikovSeries([(3, F(1, 2)), (-1, 2)])
        assert trace_Z(diag_form(h)) == h

    def test_rank_two_diagonal_valuation_adds(self):
        h1 = NovikovSeries([(2, F(1, 3))])
        h2 = NovikovSeries([(5, F(1, 4)), (1, 1)])
        Z = trace_Z(diag_form(h1, h2))
        assert Z.valuation() == h1.valuation() + h2.valuation()
        assert Z == h1 * h2

    def test_trace_equals_bareiss_det_random(self):
        rng = random.Random(23)
        for n in range(1, 5):
            for _ in range(4):
                form = random_symmetric_form(rng, n)
                assert trace_Z(form) == det_bareiss(form)

    def test_unknown_entry_is_not_zero(self):
        assert trace_Z(diag_form(NovikovSeries.zero(2))) \
            == NovikovSeries.zero(2)

    def test_unknown_off_diagonal_bounds_precision(self):
        one, unknown = NovikovSeries.one(), NovikovSeries.zero(2)
        form = [[one, unknown], [unknown, one]]
        Z = trace_Z(form)
        assert Z == NovikovSeries([(1, 0)], 4)
        assert Z == det_bareiss(form)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_completion_agrees_modulo_trace_precision(self, data):
        # Any exact completion of the inexact entries (terms at or above
        # their precision) has a determinant equal to the trace modulo the
        # precision the trace claims.
        form = data.draw(symmetric_forms())
        n = len(form)
        completed = [list(row) for row in form]
        for i in range(n):
            for j in range(i, n):
                x = form[i][j]
                if x.is_exact():
                    continue
                gaps = data.draw(st.lists(
                    st.fractions(0, 2, max_denominator=4),
                    min_size=1, max_size=2, unique=True))
                tail = [(data.draw(nonzero_fractions), x.precision + g)
                        for g in gaps]
                entry = NovikovSeries([(c, e) for e, c in x.terms] + tail)
                completed[i][j] = completed[j][i] = entry
        Z = trace_Z(form)
        assert Z.eq_mod(det_minor_expansion(completed), Z.precision)

    @given(form=symmetric_forms())
    @settings(max_examples=100, deadline=None)
    def test_matches_clifford_product_oracle(self, form):
        # The definition itself: Clifford products with the volume class,
        # the Poincare pairing and the tuple shuffle signs, term by term.
        Z = trace_Z(form)
        want = trace_with_conventions(form, KAPPA, True, True)
        assert Z.integer_form == want.integer_form
        assert Z.precision == want.precision

    def test_size_limit_refused_before_any_work(self, monkeypatch):
        # One component of 17 generators: 2^17 mask visits alone pass the
        # work limit, whatever the entries.
        monkeypatch.setattr(cliffordtrace, "_trace_loop", no_loop)
        for shape in (star_form, tridiagonal_form):
            form = shape(17)
            assert len(components(form)) == 1
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=f"TRACE_WORK_LIMIT = "
                                                  f"{TRACE_WORK_LIMIT}"):
                trace_Z(form)
            assert time.perf_counter() - start < 1

    def test_work_limit_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(cliffordtrace, "_trace_loop", no_loop)
        form = dense_form(12)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=f"TRACE_WORK_LIMIT = "
                                              f"{TRACE_WORK_LIMIT}"):
            trace_Z(form)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("form, match", [
        ([[1, 0], [0]], "form matrix is not square$"),
        ([[1, "x"], [0]], r"form\[0\]\[1\] 'x' is not a rational number"),
        ([[1, 0], [2, 1]], "form matrix is not symmetric$"),
        ([[1, 0], [0, True]], r"form\[1\]\[1\] must be an integer"),
        (dense_form(12), f"TRACE_WORK_LIMIT = {TRACE_WORK_LIMIT} units"),
        ([row[:11] + [mono(1)] for row in dense_form(12)],
         "form matrix is not symmetric$"),
        # The first component alone is above the work limit; the second
        # is not symmetric.
        ([row + [0, 0] for row in dense_form(12)]
         + [[0] * 12 + [1, 2], [0] * 12 + [3, 1]],
         "form matrix is not symmetric$"),
        # A string iterates, but is not a row of entries.
        (["12", "21"], r"form\[0\] must be a list of entries, got '12'$"),
    ])
    def test_form_refused_before_any_series_product(self, monkeypatch, form,
                                                    match):
        # The model reads the form as the trace does, and refuses it alike.
        monkeypatch.setattr(cliffordtrace, "_trace_loop", no_loop)
        with monkeypatch.context() as m:
            m.setattr(novikov, "_product", no_loop)
            with pytest.raises(ConfigError, match=match):
                trace_Z(form)
        if "LIMIT" not in match:
            with pytest.raises(ConfigError, match=match):
                CliffordAlgebraModel(form)

    def test_chain_link_trace_valuation_is_kB(self):
        for k in (1, 2, 3):
            link = CircleLinkS2(k, F(1, 8), F(1, 4))
            cert = critical_data(link, BulkParameter(F(1)))
            Z = trace_Z(cert.hessian)
            assert Z.valuation() == k * link.B

    def test_scaling_shifts_by_n_val_u(self):
        rng = random.Random(5)
        n = 3
        form = random_symmetric_form(rng, n)
        u = NovikovSeries([(2, F(1, 2)), (1, 1)])
        scaled = [[entry * u for entry in row] for row in form]
        Z = trace_Z(form)
        Zu = trace_Z(scaled)
        shift = n * u.valuation()
        assert Zu.valuation() == Z.valuation() + shift
        lead_ratio = Zu.leading_coefficient() / Z.leading_coefficient()
        assert lead_ratio == u.leading_coefficient() ** n


class TestComponents:
    def test_exact_zeros_split_and_unknowns_join(self):
        zero, unknown, one = (NovikovSeries.zero(), NovikovSeries.zero(2),
                              NovikovSeries.one())
        form = [[one, zero, unknown, zero],
                [zero, zero, zero, zero],
                [unknown, zero, one, zero],
                [zero, zero, zero, one]]
        assert components(form) == [[0, 2], [1], [3]]

    @staticmethod
    def check_factored_trace(form):
        # The product of the components' traces may be known to a higher
        # precision than the whole-form loop and the definition (the
        # valuations of the factors add), never to a lower one, and agrees
        # with both below the lesser precision.
        Z = trace_Z(form)
        whole = _trace_loop([[(1 << j, (1 << j) - 1, b)
                              for j, b in enumerate(row)
                              if not b.is_exact_zero()] for row in form])
        whole = whole * (KAPPA / 2) ** len(form)
        want = trace_with_conventions(form, KAPPA, True, True)
        for other in (whole, want):
            assert Z.precision >= other.precision
            assert Z.eq_mod(other, other.precision)
        return Z, whole, want

    @given(form=block_forms())
    @settings(max_examples=150, deadline=None)
    def test_factored_trace_matches_loop_and_definition(self, form):
        self.check_factored_trace(form)

    def test_factored_trace_is_tighter_on_an_unknown_block(self):
        # A block of O(T^(1/6)) entries has a trace of valuation at least
        # 1/3 for every completion, so the product with a block of
        # valuation -1/3 is O(T^0); the whole-form sums only reach
        # O(T^(-1/3)).
        u, a = NovikovSeries.zero(F(1, 6)), mono(F(3, 2), F(-1, 3))
        b = a + 1
        zero = NovikovSeries.zero()
        form = [[u, u, zero, zero],
                [u, u, zero, zero],
                [zero, zero, a, b],
                [zero, zero, b, b]]
        Z, whole, want = self.check_factored_trace(form)
        assert Z == NovikovSeries.zero(0)
        assert whole == want == NovikovSeries.zero(F(-1, 3))

    def test_chain_trace_is_the_product_of_its_entries(self):
        # A diagonal form of 64 generators: one component per entry.
        link = CircleLinkS2(64, F(1, 8), F(1, 4))
        cert = critical_data(link, BulkParameter(F(2)))
        Z = trace_Z(cert.hessian)
        want = NovikovSeries.one()
        for i, row in enumerate(cert.hessian):
            want = want * row[i]
        assert Z == want == cert.hessian_det
        assert Z.valuation() == 64 * link.B

    def test_a_diagonal_form_costs_one_product_per_generator(self,
                                                            monkeypatch):
        # Each one-generator component's trace is its entry, formed with no
        # product by the exact unit; the n traces take n - 1 products and
        # the scale (KAPPA/2)^n one more.
        form = diag_form(*(mono(i + 2, F(i, 3)) for i in range(6)))
        want = det_bareiss(form)
        products = []
        original = novikov._product
        monkeypatch.setattr(novikov, "_product",
                            lambda x, y: products.append(1) or original(x, y))
        assert trace_Z(form) == want
        assert len(products) == 6

    def test_criterion_2_dense_cases_are_single_components(self):
        # The acceptance suite's dense forms still run the definition's
        # loop on the whole form, not a product of smaller traces.
        dense = [form for n, diagonal, form in criterion_2_cases()
                 if not diagonal]
        assert len(dense) == 20
        for form in dense:
            assert len(components(form)) == 1


class TestMaskSigns:
    @pytest.mark.parametrize("n", range(9))
    def test_popcount_parity_is_inversion_count(self, n):
        # The shuffle of K followed by its complement in {1..n}, with its
        # inversions counted pair by pair.
        for K in range(1 << n):
            inside = [i + 1 for i in range(n) if K >> i & 1]
            outside = [i + 1 for i in range(n) if not K >> i & 1]
            seq = inside + outside
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if seq[a] > seq[b])
            assert _shuffle_parity(K) == inversions % 2


class TestCalibration:
    def test_rank_one_enumeration_pins_kappa_and_parity(self):
        # Brute force over the candidate grid on the two-element basis:
        # only kappa = 1 with the parity twist reproduces the form.
        h = NovikovSeries([(7, F(2, 3))])
        survivors = []
        for kappa in (F(2), F(1), F(1, 2), F(-1), F(-2)):
            for parity in (False, True):
                for quad in (False, True):
                    Z = trace_with_conventions([[h]], kappa, parity, quad)
                    if Z == h:
                        survivors.append((kappa, parity, quad))
        assert all(k == KAPPA and parity for k, parity, _ in survivors)
        assert (KAPPA, True, True) in survivors

    def test_rank_two_fixes_quadratic_twist(self):
        h1, h2 = mono(2), mono(3)
        form = [[h1, NovikovSeries.zero()], [NovikovSeries.zero(), h2]]
        good = trace_with_conventions(form, KAPPA, True, True)
        bad = trace_with_conventions(form, KAPPA, True, False)
        assert good == h1 * h2
        assert bad == -(h1 * h2)

    def test_frozen_constants_hold_without_retuning(self):
        rng = random.Random(99)
        for n in (3, 4, 5):
            form = random_symmetric_form(rng, n, diagonal=(n == 5))
            assert trace_Z(form) == det_bareiss(form)


class TestDefectBound:
    def test_reads_valuation(self):
        assert defect_bound(NovikovSeries.monomial(4, F(1, 2))) == F(1, 2)

    def test_chain_defect_is_kB(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        cert = critical_data(link, BulkParameter(F(1)))
        Z = trace_Z(cert.hessian)
        assert defect_bound(Z) == 2 * link.B

    def test_zero_trace_degenerate(self):
        with pytest.raises(DegenerateTraceError, match="not Morse"):
            defect_bound(NovikovSeries.zero())

    def test_unknown_trace_needs_precision(self):
        with pytest.raises(PrecisionError, match=r"O\(T\^2\)"):
            defect_bound(NovikovSeries.zero(2))


class TestLeadingTermsMatch:
    """The one trace-determinant verdict, of ``trace check`` and of each
    ``scan weyl`` row."""

    def test_same_leading_term_matches(self):
        Z = mono(6, F(1, 2)) + mono(1, 1)
        assert cliffordtrace._leading_terms_match(Z, mono(6, F(1, 2)))

    @pytest.mark.parametrize("det", [mono(5, F(1, 2)), mono(6, 1),
                                     NovikovSeries.zero()],
                             ids=["coefficient", "valuation", "zero"])
    def test_another_leading_term_does_not(self, det):
        assert not cliffordtrace._leading_terms_match(mono(6, F(1, 2)), det)

    def test_unknown_determinant_needs_precision(self):
        with pytest.raises(PrecisionError, match="the determinant"):
            cliffordtrace._leading_terms_match(mono(6), NovikovSeries.zero(2))

    def test_zero_trace_is_degenerate(self):
        with pytest.raises(DegenerateTraceError):
            cliffordtrace._leading_terms_match(NovikovSeries.zero(), mono(6))
