"""Chain-link potentials: construction, certificates, truncation reports."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from novlink.critlift import leading_solutions
from novlink.errors import AreaError, ConfigError, PrecisionError
from novlink.laurent import LaurentPotential
from novlink.linkfam import (
    BulkParameter,
    CircleLinkS2,
    build_chain_potential,
    critical_data,
    truncation_obstruction,
)
from novlink.novikov import NovikovSeries


def mono(c, e=0):
    return NovikovSeries.monomial(F(c), F(e))


class TestCircleLink:
    def test_total_area_derived(self):
        link = CircleLinkS2(3, F(1, 8), F(1, 4))
        assert link.total_area == 2 * F(1, 8) + 2 * F(1, 4)

    def test_equal_areas_rejected(self):
        with pytest.raises(AreaError, match="monotone"):
            CircleLinkS2(2, F(1, 4), F(1, 4))

    def test_annulus_wider_than_disc_rejected(self):
        with pytest.raises(AreaError, match="monotone"):
            CircleLinkS2(2, F(1, 2), F(1, 4))

    @pytest.mark.parametrize("k", [F(27, 10), 2.7, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ConfigError, match="k must be a JSON integer"):
            CircleLinkS2(k, F(1, 8), F(1, 4))

    def test_zero_bulk_rejected(self):
        with pytest.raises(ConfigError):
            BulkParameter(F(0))

    def test_bulk_tail_below_base_rejected(self):
        bulk = BulkParameter(F(1), higher_terms=mono(1, F(1, 100)))
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        with pytest.raises(ConfigError, match="tail"):
            build_chain_potential(link, bulk)


class TestBuildChainPotential:
    def test_k2_term_list(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        W = build_chain_potential(link, BulkParameter(F(1)))
        expected = {
            (1, 0): NovikovSeries.monomial(1, F(1, 4)),
            (0, -1): NovikovSeries.monomial(1, F(1, 4)),
            (-1, 0): NovikovSeries.monomial(1, F(1, 4)),
            (0, 1): NovikovSeries.monomial(1, F(1, 4)),
        }
        assert dict(W.items()) == expected

    def test_k1_equatorial_potential(self):
        link = CircleLinkS2(1, F(1, 8), F(1, 4))
        W = build_chain_potential(link, BulkParameter(F(1)))
        assert dict(W.items()) == {
            (1,): NovikovSeries.monomial(1, F(1, 4)),
            (-1,): NovikovSeries.monomial(1, F(1, 4)),
        }

    def test_every_coefficient_has_valuation_B(self):
        rng = random.Random(3)
        for _ in range(10):
            k = rng.randint(1, 6)
            B = F(rng.randint(2, 9), 24)
            A = B * F(rng.randint(1, 7), 8)
            link = CircleLinkS2(k, A, B)
            c0 = F(rng.randint(-6, 6) or 1, rng.randint(1, 3))
            W = build_chain_potential(link, BulkParameter(c0))
            for _, coeff in W.items():
                assert coeff.valuation() == B

    def test_reflection_symmetry(self):
        # Relabeling z_j -> 1/z_{k+1-j} maps the monomial set to itself.
        link = CircleLinkS2(4, F(1, 16), F(1, 8))
        W = build_chain_potential(link, BulkParameter(F(5, 3)))
        k = link.k
        reflected = {}
        for m, coeff in W.items():
            mm = tuple(-m[k - 1 - i] for i in range(k))
            reflected[mm] = coeff
        assert dict(W.items()) == reflected

    def test_extra_terms_merged(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        extra = LaurentPotential(2, {(1, 1): mono(7, F(1, 2))})
        W = build_chain_potential(link, BulkParameter(F(1)), extra)
        assert W.coefficient((1, 1)) == mono(7, F(1, 2))

    def test_bulk_tail_shifts_coefficients(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        tail = mono(1, F(1, 4))  # above (B-A)/2 = 1/16
        W = build_chain_potential(link, BulkParameter(F(1), tail))
        # c^2 T^A = (T^{1/16} + T^{1/4})^2 T^{1/8}
        c2TA = W.coefficient((0, 1))
        assert c2TA.valuation() == F(1, 4)
        assert len(c2TA.terms) == 3


class TestCriticalData:
    def test_k2_reference_values(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        cert = critical_data(link, BulkParameter(F(1)))
        assert cert.morse
        assert cert.det_valuation() == F(1, 2)
        assert cert.hessian_det.leading_coefficient() == 4
        for c in cert.point:
            assert c.eq_mod(1, c.precision)

    def test_k3_det_leading(self):
        link = CircleLinkS2(3, F(1, 8), F(1, 4))
        cert = critical_data(link, BulkParameter(F(1)))
        assert cert.det_valuation() == 3 * link.B
        assert abs(cert.hessian_det.leading_coefficient()) == 8

    def test_off_diagonal_hessian_is_exact_zero(self):
        # Every chain monomial involves one variable.
        cert = critical_data(CircleLinkS2(4, F(1, 8), F(1, 4)),
                             BulkParameter(F(1)))
        for i, row in enumerate(cert.hessian):
            for j, entry in enumerate(row):
                if i != j:
                    assert entry == NovikovSeries.zero()
                    assert entry.is_exact()

    def test_k1(self):
        link = CircleLinkS2(1, F(1, 8), F(1, 4))
        cert = critical_data(link, BulkParameter(F(1)))
        assert cert.det_valuation() == link.B
        assert abs(cert.hessian_det.leading_coefficient()) == 2

    def test_valuation_kB_over_sweep(self):
        rng = random.Random(17)
        for k in range(1, 13):
            B = F(rng.randint(2, 40), 120)
            A = B * F(rng.randint(1, 9), 10)
            c0 = F(rng.randint(-8, 8) or 3, rng.randint(1, 4))
            cert = critical_data(CircleLinkS2(k, A, B), BulkParameter(c0))
            assert cert.morse
            assert cert.det_valuation() == k * B

    def test_all_sign_branches_rational_with_unit_c0(self):
        for k in (1, 2, 3, 4):
            link = CircleLinkS2(k, F(1, 8), F(1, 4))
            W = build_chain_potential(link, BulkParameter(F(1)))
            assert len(leading_solutions(W)) == 2 ** k

    def test_bulk_tail_forces_genuine_lift(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        tail = mono(3, F(1, 8))
        cert = critical_data(link, BulkParameter(F(1), tail))
        assert cert.morse
        assert cert.det_valuation() == 2 * link.B
        moved = [c - NovikovSeries.one() for c in cert.point]
        assert any(not d.is_zero() for d in moved)


class TestTruncationObstruction:
    def test_single_monomial_obstructed_at_its_order(self):
        a = F(1, 3)
        W = LaurentPotential(1, {(1,): mono(1, a)})
        report = truncation_obstruction(W, a)
        assert not report.unobstructed
        assert report.order == a

    def test_balanced_pair_unobstructed_with_sign_points(self):
        a = F(1, 3)
        W = LaurentPotential(1, {(1,): mono(1, a), (-1,): mono(1, a)})
        report = truncation_obstruction(W, a)
        assert report.unobstructed
        leads = sorted(p.leading_tuple() for p in report.points)
        assert leads == [(-1,), (1,)]

    def test_cutoff_between_orders_obstructs(self):
        a, a2 = F(1, 4), F(1, 2)
        W = LaurentPotential(1, {(1,): mono(1, a), (-1,): mono(1, a2)})
        report = truncation_obstruction(W, (a + a2) / 2)
        assert not report.unobstructed
        assert report.order == a

    def test_unequal_orders_obstructed_even_with_wide_cutoff(self):
        # Unequal disc areas never balance the leading gradient layer.
        a, a2 = F(1, 4), F(1, 2)
        W = LaurentPotential(1, {(1,): mono(1, a), (-1,): mono(1, a2)})
        report = truncation_obstruction(W, F(3, 4))
        assert not report.unobstructed
        assert report.order == a

    def test_unused_variable_is_free(self):
        a = F(1, 5)
        W = LaurentPotential(2, {(1, 0): mono(1, a), (-1, 0): mono(1, a)})
        report = truncation_obstruction(W, a)
        assert report.unobstructed
        for p in report.points:
            assert p[1] == NovikovSeries.one()

    def test_unknown_coefficient_below_cutoff_raises(self):
        # T z + O(T^(1/2))/z: the completion T (z + 1/z) is critical at
        # z = +-1, so the truncation cannot be called obstructed.
        W = LaurentPotential(1, {(1,): mono(1, 1),
                                 (-1,): NovikovSeries.zero(F(1, 2))})
        with pytest.raises(PrecisionError, match=r"z\^\[-1\]"):
            truncation_obstruction(W, 1)

    def test_unknown_coefficient_above_cutoff_ignored(self):
        a = F(1, 3)
        W = LaurentPotential(1, {(1,): mono(1, a), (-1,): mono(1, a),
                                 (2,): NovikovSeries.zero(1)})
        report = truncation_obstruction(W, a)
        assert report.unobstructed
        assert sorted(p.leading_tuple() for p in report.points) == [(-1,),
                                                                    (1,)]

    def test_empty_truncation_vacuous(self):
        W = LaurentPotential(1, {(1,): mono(1, 1)})
        report = truncation_obstruction(W, F(1, 2))
        assert report.unobstructed
        assert report.points == ()
