"""Chain-link potentials: construction, certificates, truncation reports."""

from __future__ import annotations

import random
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

from novlink import critlift
from novlink.critlift import (
    LiftConfig,
    certify_morse,
    hensel_lift,
    leading_solutions,
)
from novlink.errors import AreaError, ConfigError, PrecisionError
from novlink.laurent import LaurentPotential, UnitaryPoint
from novlink.linkfam import (
    BulkParameter,
    CircleLinkS2,
    build_chain_potential,
    critical_data,
    preferred_branch_leads,
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

    def test_refusal_names_k(self):
        with pytest.raises(AreaError, match="η-monotone at k = 5"):
            CircleLinkS2(5, F(1, 4), F(1, 8))

    @pytest.mark.parametrize("k", [F(27, 10), 2.7, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ConfigError, match="k must be a JSON integer"):
            CircleLinkS2(k, F(1, 8), F(1, 4))

    def test_non_positive_k_rejected(self):
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            CircleLinkS2(0, F(1, 8), F(1, 4))

    def test_zero_bulk_rejected(self):
        with pytest.raises(ConfigError):
            BulkParameter(F(0))

    def test_replace_derives_the_total_area_again(self):
        link = replace(CircleLinkS2(2, "1/8", "1/4"), A="1/16")
        assert link == CircleLinkS2(2, F(1, 16), F(1, 4))
        assert link.total_area == F(1, 16) + 2 * F(1, 4)

    def test_total_area_is_not_a_constructor_field(self):
        assert [(f.name, f.init) for f in fields(CircleLinkS2)] == [
            ("k", True), ("A", True), ("B", True), ("total_area", False)]


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

    def test_extra_terms_with_wrong_variable_count_rejected(self):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        extra = LaurentPotential(3, {(1, 0, 0): mono(1)})
        with pytest.raises(ConfigError, match="different variable counts"):
            build_chain_potential(link, BulkParameter(F(1)), extra)


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

    def test_equals_the_lift_from_its_branch(self):
        # The all-plus branch is exact: certifying it gives the lift's
        # certificate, with no Newton step recorded.
        rng = random.Random(17)
        for k in range(1, 13):
            B = F(rng.randint(2, 40), 120)
            A = B * F(rng.randint(1, 9), 10)
            c0 = F(rng.randint(-8, 8) or 3, rng.randint(1, 4))
            link, bulk = CircleLinkS2(k, A, B), BulkParameter(c0)
            z0 = UnitaryPoint([mono(c) for c in
                               preferred_branch_leads(link, bulk)])
            lifted = hensel_lift(build_chain_potential(link, bulk), z0,
                                 LiftConfig((k + 4) * B))
            cert = critical_data(link, bulk)
            assert cert.residual_valuations == ()
            assert cert == replace(lifted, residual_valuations=())

    def test_bulk_tail_forces_genuine_lift(self):
        # A tail on c = T^(1/16) + 3 T^(1/8) adds
        # (2 T^(1/16) tail + tail^2) T^A to each annulus coefficient.
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        tail = mono(3, F(1, 8))
        shift = (2 * mono(1, (link.B - link.A) / 2) * tail + tail * tail) \
            * mono(1, link.A)
        W = build_chain_potential(link, BulkParameter(F(1)), LaurentPotential(
            2, {(-1, 0): shift, (0, 1): shift}))
        cert = hensel_lift(W, UnitaryPoint([mono(1)] * 2),
                           LiftConfig(6 * link.B))
        assert cert.morse
        assert cert.det_valuation() == 2 * link.B
        moved = [c - NovikovSeries.one() for c in cert.point]
        assert any(not d.is_zero() for d in moved)


# Leading bulk coefficients for the trusted-path tests: integers of both
# signs and fractions, so the point's coordinates have denominators.
TRUSTED_C0 = [F(1), F(-2), F(2, 3), F(-5, 7)]


def field_values(x):
    return [(f.name, getattr(x, f.name)) for f in fields(x)]


def weyl_link(k):
    """The chain link of ``scan weyl``'s default schedule at ``k``."""
    B = F(1, (k + 2) ** 2)
    return CircleLinkS2(k, B / 2, B)


class TestTrustedConstructors:
    """``build_chain_potential`` and ``critical_data`` build their values
    with ``LaurentPotential._raw`` and ``UnitaryPoint._raw``; the public
    constructors, given the same input, build the same values field for
    field."""

    @pytest.mark.parametrize("c0", TRUSTED_C0)
    def test_chain_potential_equals_the_public_one(self, c0):
        bulk = BulkParameter(c0)
        for k in range(1, 41):
            link = weyl_link(k)
            W = build_chain_potential(link, bulk)
            public = LaurentPotential(k, dict(W.terms))
            assert field_values(W) == field_values(public)
            assert hash(W) == hash(public)
            # The monomials as the module docstring lists them.
            TB, c2TA = mono(1, link.B), mono(c0 * c0, link.B)

            def unit(i, e):
                return tuple(e if j == i else 0 for j in range(k))

            terms = {unit(0, 1): TB, unit(k - 1, -1): TB}
            for j in range(k - 1):
                terms[unit(j, -1)] = terms[unit(j + 1, 1)] = c2TA
            assert W == LaurentPotential(k, terms)

    @pytest.mark.parametrize("c0", TRUSTED_C0)
    def test_chain_potential_with_extra_terms_equals_the_public_one(self,
                                                                    c0):
        bulk = BulkParameter(c0)
        for k in range(1, 41):
            link = weyl_link(k)
            # One monomial on the chain's z_1, one on none of its monomials.
            extra = LaurentPotential(k, {
                (1,) + (0,) * (k - 1): mono(3, link.B + F(1, 16)),
                (1,) * k: mono(-1, link.B + F(1, 8))})
            W = build_chain_potential(link, bulk, extra)
            public = LaurentPotential(
                k, list(build_chain_potential(link, bulk).terms)
                + list(extra.terms))
            assert field_values(W) == field_values(public)

    @pytest.mark.parametrize("c0", TRUSTED_C0)
    def test_branch_point_equals_the_public_one(self, c0):
        bulk = BulkParameter(c0)
        for k in range(1, 41):
            link = weyl_link(k)
            cert = critical_data(link, bulk)
            point = cert.point
            assert field_values(point) == field_values(
                UnitaryPoint(point.coords))
            target = (k + 4) * link.B
            public = UnitaryPoint([NovikovSeries.monomial(c, 0, target)
                                   for c in preferred_branch_leads(link,
                                                                   bulk)])
            assert field_values(point) == field_values(public)
            assert cert == certify_morse(
                LaurentPotential(k, dict(build_chain_potential(link,
                                                               bulk).terms)),
                public)


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

    def test_order_is_the_least_one_monomial_layer(self):
        # T z1 + T/z1 + T^2 z2: the z1 layer T (z1 - 1/z1) has roots, the
        # z2 layer T^2 z2 is a unit, so the order is 2, not the least
        # valuation 1 of the kept terms.
        W = LaurentPotential(2, {(1, 0): mono(1, 1), (-1, 0): mono(1, 1),
                                 (0, 1): mono(1, 2)})
        report = truncation_obstruction(W, 3)
        assert not report.unobstructed
        assert report.order == 2

    def test_order_of_a_block_without_common_root_is_its_greatest_layer(
            self):
        # z1 + 1/z1 + T (z1^2 z2^2/2 - z2^2/2 + z2): the z1 layer gives
        # z1 = +-1, where the z2 layer z2 (z1^2 z2 - z2 + 1) is z2.  No
        # layer is one monomial; the two fail together once the T^1 layer
        # is kept.
        W = LaurentPotential(2, {(1, 0): mono(1), (-1, 0): mono(1),
                                 (2, 2): mono(F(1, 2), 1),
                                 (0, 2): mono(F(-1, 2), 1),
                                 (0, 1): mono(1, 1)})
        report = truncation_obstruction(W, 1)
        assert not report.unobstructed
        assert report.order == 1
        assert truncation_obstruction(W, F(1, 2)).unobstructed

    def rootless_beside_solvable(self):
        # z1 + 1/z1 + T (z1^2 z2^2/2 - z2^2/2 + z2) + T^5 (z3 + 1/z3): the
        # z1, z2 block has no common root, the z3 block has z3 = +-1.
        return LaurentPotential(3, {(1, 0, 0): mono(1), (-1, 0, 0): mono(1),
                                    (2, 2, 0): mono(F(1, 2), 1),
                                    (0, 2, 0): mono(F(-1, 2), 1),
                                    (0, 1, 0): mono(1, 1),
                                    (0, 0, 1): mono(1, 5),
                                    (0, 0, -1): mono(1, 5)})

    @pytest.mark.parametrize("cutoff", [1, 2, 5, 6])
    def test_solvable_block_does_not_move_the_order(self, cutoff):
        report = truncation_obstruction(self.rootless_beside_solvable(),
                                        cutoff)
        assert not report.unobstructed
        assert report.order == 1

    def test_each_block_is_solved_once(self, monkeypatch):
        calls = []
        for name in ("_solve_univariate", "_solve_coupled"):
            def counted(variables, polys, name=name,
                        solve=getattr(critlift, name)):
                calls.append((name, variables))
                return solve(variables, polys)
            monkeypatch.setattr(critlift, name, counted)
        truncation_obstruction(self.rootless_beside_solvable(), 5)
        assert sorted(calls) == [("_solve_coupled", [0, 1]),
                                 ("_solve_univariate", 2)]

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

    def test_constant_truncation_has_no_gradient_constraints(self):
        # 1 + T^5 z at cutoff 1 keeps only the constant.
        W = LaurentPotential(1, {(0,): mono(1), (1,): mono(1, 5)})
        report = truncation_obstruction(W, 1)
        assert report.unobstructed and report.points == ()
        assert report.note == "truncation has no gradient constraints"

    def test_positive_dimensional_truncation_is_not_obstructed(self):
        # z1 z2 + 1/(z1 z2) is critical on the whole curve z1 z2 = +-1.
        W = LaurentPotential(2, {(1, 1): mono(1), (-1, -1): mono(1)})
        report = truncation_obstruction(W, 0)
        assert report.unobstructed and report.points == ()
        assert report.note == ("leading system not zero-dimensional on the "
                               "active variables")

    def test_empty_truncation_vacuous(self):
        W = LaurentPotential(1, {(1,): mono(1, 1)})
        report = truncation_obstruction(W, F(1, 2))
        assert report.unobstructed
        assert report.points == ()
