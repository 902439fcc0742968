"""Leading-order solving, adic lifting and Morse certification."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from novlink.critlift import (
    LiftConfig,
    certify_morse,
    hensel_lift,
    leading_solutions,
    lift_all,
)
from novlink.errors import (
    ConfigError,
    ExtensionFieldError,
    NonMorseError,
    NotZeroDimensionalError,
    ObstructedError,
    PrecisionError,
)
from novlink.laurent import LaurentPotential, UnitaryPoint
from novlink.linkfam import BulkParameter, CircleLinkS2, build_chain_potential
from novlink.novikov import NovikovSeries

from oracles import one_exponent_lift

LINK2 = CircleLinkS2(2, F(1, 8), F(1, 4))
B = LINK2.B


def mono(c, e=0):
    return NovikovSeries.monomial(F(c), F(e))


def ones(k):
    return UnitaryPoint([NovikovSeries.one()] * k)


def cubic_potential():
    # z^3 - 3 z^2 + 3 z: multiplicative gradient 3 z (z - 1)^2.
    return LaurentPotential(1, {(3,): mono(1), (2,): mono(-3), (1,): mono(3)})


def perturbed_chain(delta, eps=F(1), m=(1, 0)):
    extra = LaurentPotential(2, {m: NovikovSeries.monomial(eps, B + delta)})
    return build_chain_potential(LINK2, BulkParameter(F(1)), extra)


class TestLeadingSolutions:
    def test_chain_k2_four_sign_branches(self):
        W = build_chain_potential(LINK2, BulkParameter(F(1)))
        leads = [p.leading_tuple() for p in leading_solutions(W)]
        assert leads == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_single_monomial_has_no_unit_zeros(self):
        W = LaurentPotential(1, {(1,): NovikovSeries.monomial(1, F(1, 3))})
        assert leading_solutions(W) == []

    def test_cubic_single_root(self):
        assert [p.leading_tuple() for p in leading_solutions(cubic_potential())] \
            == [(1,)]

    def test_positive_dimensional_rejected(self):
        # z1/z2 + z2/z1: gradient layers vanish on the whole curve z1 = ±z2.
        W = LaurentPotential(2, {(1, -1): mono(1), (-1, 1): mono(1)})
        with pytest.raises(NotZeroDimensionalError,
                           match="not zero-dimensional"):
            leading_solutions(W)

    def test_unconstrained_variable_rejected(self):
        W = LaurentPotential(2, {(2, 0): mono(1), (1, 0): mono(-2)})
        with pytest.raises(NotZeroDimensionalError):
            leading_solutions(W)

    def test_gradient_zero_modulo_precision_rejected(self):
        # The z1 component has only an O(T^3) coefficient: no known layer.
        W = LaurentPotential(2, {(1, 0): NovikovSeries.zero(3),
                                 (0, 1): mono(1), (0, -1): mono(1)})
        with pytest.raises(NotZeroDimensionalError):
            leading_solutions(W)

    def test_unknown_leading_layer_needs_precision(self):
        # The z^2 coefficient is O(T): layer T^2 of the gradient is unknown.
        W = LaurentPotential(1, {(2,): NovikovSeries.zero(1),
                                 (-1,): mono(1, 2), (1,): mono(1, 2)})
        with pytest.raises(PrecisionError, match="unknown"):
            leading_solutions(W)
        with pytest.raises(PrecisionError, match="unknown"):
            lift_all(W, LiftConfig(F(4)))

    def test_irrational_branches_dropped_and_reported(self):
        # z + 2/z: critical points z^2 = 2.
        W = LaurentPotential(1, {(1,): mono(1), (-1,): mono(2)})
        assert leading_solutions(W) == []
        with pytest.raises(ExtensionFieldError):
            lift_all(W, LiftConfig(F(1)))


class TestHenselLift:
    def test_exact_solution_returned_unchanged(self):
        W = build_chain_potential(LINK2, BulkParameter(F(1)))
        for prec in (F(1), F(3), F(10)):
            cert = hensel_lift(W, ones(2), LiftConfig(prec))
            assert cert.morse
            for c in cert.point:
                assert c.eq_mod(1, prec)

    def test_perturbation_correction_valuation(self):
        delta = F(1, 8)
        cert = hensel_lift(perturbed_chain(delta), ones(2), LiftConfig(8 * B))
        assert cert.morse
        for c in cert.point:
            diff = c - NovikovSeries.one()
            assert diff.val_lower_bound() >= delta

    def test_matches_one_exponent_oracle(self):
        rng = random.Random(42)
        for _ in range(5):
            delta = F(rng.randint(1, 7), 32)
            eps = F(rng.randint(-5, 5) or 3)
            m = (rng.randint(-1, 2), rng.randint(-2, 1))
            W = perturbed_chain(delta, eps, m)
            target = 8 * B
            fast = hensel_lift(W, ones(2), LiftConfig(target)).point
            slow = one_exponent_lift(W, ones(2), target)
            for a, b in zip(fast, slow):
                assert a.eq_mod(b, target)

    def test_schedule_independence(self):
        W = perturbed_chain(F(1, 16), F(2), (0, 1))
        n = F(1)
        cert_direct = hensel_lift(W, ones(2), LiftConfig(2 * n))
        half = hensel_lift(W, ones(2), LiftConfig(n))
        cert_resumed = hensel_lift(W, half.point, LiftConfig(2 * n))
        for a, b in zip(cert_direct.point, cert_resumed.point):
            assert a.precision == 2 * n and b.precision == 2 * n
            assert a.eq_mod(b, 2 * n)

    def test_quadratic_residual_growth(self):
        delta = F(1, 16)
        target = 8 * B
        cert = hensel_lift(perturbed_chain(delta), ones(2),
                           LiftConfig(target))
        vals = cert.residual_valuations
        assert vals[0] == B + delta
        # The final entry is the precision bound of a converged residual,
        # so the doubling claim caps there.
        gaps = [v - B for v in vals]
        for before, after in zip(gaps, gaps[1:]):
            assert after >= min(2 * before, target - B)

    def test_non_morse_seed_rejected(self):
        with pytest.raises(NonMorseError, match="non-Morse"):
            hensel_lift(cubic_potential(), ones(1), LiftConfig(F(2)))

    def test_rank_one_leading_hessian_rejected(self):
        # W = z1 z2 + 1/(z1 z2) is critical at (1, 1) with Hessian
        # [[2, 2], [2, 2]]: nonzero but singular.
        W = LaurentPotential(2, {(1, 1): mono(1), (-1, -1): mono(1)})
        with pytest.raises(NonMorseError, match="non-Morse"):
            hensel_lift(W, ones(2), LiftConfig(F(2)))

    def test_non_critical_seed_obstructed(self):
        W = LaurentPotential(1, {(1,): mono(1), (-1,): mono(4)})
        # Gradient z - 4/z does not vanish at z = 1 at order zero.
        with pytest.raises(ObstructedError) as err:
            hensel_lift(W, ones(1), LiftConfig(F(2)))
        assert err.value.order == 0

    def test_wrong_arity_rejected(self):
        W = build_chain_potential(LINK2, BulkParameter(F(1)))
        with pytest.raises(ConfigError):
            hensel_lift(W, ones(3), LiftConfig(F(1)))


class TestCertifyMorse:
    def test_chain_point(self):
        W = build_chain_potential(LINK2, BulkParameter(F(1)))
        cert = certify_morse(W, ones(2))
        assert cert.morse
        assert cert.hessian_det == NovikovSeries.monomial(4, 2 * B)

    def test_equatorial_circle(self):
        W = LaurentPotential(1, {(1,): mono(1), (-1,): mono(1)})
        cert = certify_morse(W, ones(1))
        assert cert.morse
        assert cert.hessian_det == mono(2)

    def test_cubic_degenerate(self):
        cert = certify_morse(cubic_potential(), ones(1))
        assert not cert.morse
        assert "determinant vanishes" in cert.reason

    def test_non_critical_point_flagged(self):
        W = LaurentPotential(1, {(1,): mono(1), (-1,): mono(4)})
        cert = certify_morse(W, ones(1))
        assert not cert.morse
        assert "gradient" in cert.reason

    def test_lift_then_certify_is_morse(self):
        rng = random.Random(9)
        for _ in range(5):
            delta = F(rng.randint(1, 7), 40)
            W = perturbed_chain(delta, F(rng.randint(1, 4)),
                                (rng.randint(0, 1), 1))
            cert = hensel_lift(W, ones(2), LiftConfig(8 * B))
            again = certify_morse(W, cert.point)
            assert again.morse


class TestBranchSelection:
    def test_lift_all_covers_every_branch(self):
        W = build_chain_potential(LINK2, BulkParameter(F(1)))
        certs = lift_all(W, LiftConfig(F(1)))
        assert len(certs) == 4
        assert all(c.morse for c in certs)
