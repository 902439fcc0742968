"""Leading-order solving, adic lifting and Morse certification."""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.solvers.polysys import solve_poly_system

from novlink import critlift
from novlink.critlift import (
    LEADING_SOLUTION_LIMIT,
    LIFT_WORK_LIMIT,
    LiftConfig,
    _rational_roots,
    _solve_leading_system,
    _solve_polynomials,
    certify_morse,
    hensel_lift,
    leading_solutions,
)
from novlink.errors import (
    ConfigError,
    NonMorseError,
    NotZeroDimensionalError,
    NovlinkError,
    ObstructedError,
    PrecisionError,
)
from novlink.laurent import LaurentPotential, UnitaryPoint
from novlink.linkfam import (
    BulkParameter,
    CircleLinkS2,
    build_chain_potential,
    preferred_branch_leads,
    truncation_obstruction,
)
from novlink.novikov import NovikovSeries

from oracles import full_precision_lift, one_exponent_lift
from strategies import completions, laurent_potentials

LINK2 = CircleLinkS2(2, F(1, 8), F(1, 4))
B = LINK2.B


def mono(c, e=0):
    return NovikovSeries.monomial(F(c), F(e))


def ones(k):
    return UnitaryPoint([NovikovSeries.one()] * k)


def cubic_potential():
    # z^3 - 3 z^2 + 3 z: multiplicative gradient 3 z (z - 1)^2.
    return LaurentPotential(1, {(3,): mono(1), (2,): mono(-3), (1,): mono(3)})


def poly_mul(*factors):
    """Product of integer polynomials given lowest degree first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def gradient_potential(q, shift=1):
    """One-variable potential whose multiplicative gradient is
    ``z^shift q(z)``, with ``q`` listed lowest degree first."""
    return LaurentPotential(1, {(j + shift,): mono(F(a, j + shift))
                                for j, a in enumerate(q) if a})


def solved(W):
    points, irrational, _ = _solve_leading_system(W)
    return [p.leading_tuple() for p in points], irrational


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
                           match="not zero-dimensional in z1, z2$") as exc:
            leading_solutions(W)
        assert exc.value.variables == ("z1", "z2")

    def test_unconstrained_variable_rejected(self):
        W = LaurentPotential(2, {(2, 0): mono(1), (1, 0): mono(-2)})
        with pytest.raises(NotZeroDimensionalError,
                           match="not zero-dimensional in z2$") as exc:
            leading_solutions(W)
        assert exc.value.variables == ("z2",)

    def test_every_positive_dimensional_block_is_named(self):
        # z2 z3 + 1/(z2 z3) + z4 + 1/z4 in five variables: the curve
        # z2 z3 = ±1 and the free z1 and z5, with z4 = ±1 between them.
        W = LaurentPotential(5, {(0, 1, 1, 0, 0): 1, (0, -1, -1, 0, 0): 1,
                                 (0, 0, 0, 1, 0): 1, (0, 0, 0, -1, 0): 1})
        with pytest.raises(NotZeroDimensionalError) as exc:
            leading_solutions(W)
        assert exc.value.variables == ("z1", "z2", "z3", "z5")

    def test_gradient_zero_modulo_precision_rejected(self):
        # The z1 component has only an O(T^3) coefficient: no known layer.
        W = LaurentPotential(2, {(1, 0): NovikovSeries.zero(3),
                                 (0, 1): mono(1), (0, -1): mono(1)})
        with pytest.raises(PrecisionError,
                           match=r"no layer is known: the coefficient of "
                                 r"z\^\[1, 0\] is O\(T\^3\)"):
            leading_solutions(W)

    def test_unknown_leading_layer_needs_precision(self):
        # The z^2 coefficient is O(T): layer T^2 of the gradient is unknown.
        W = LaurentPotential(1, {(2,): NovikovSeries.zero(1),
                                 (-1,): mono(1, 2), (1,): mono(1, 2)})
        with pytest.raises(PrecisionError,
                           match=r"layer T\^2 is unknown: the coefficient "
                                 r"of z\^\[2\] is O\(T\^1\)"):
            leading_solutions(W)

    # The next tests pin the answers the leading solve gave when it sent
    # every system to sympy's ``solve_poly_system``.

    def test_degree_seven_mixed_roots(self):
        # (z - 1)(z + 2)(2z - 3)(z^2 - 2)(z^2 + 1): three rational roots,
        # +-sqrt(2) and +-i.
        q = poly_mul([-1, 1], [2, 1], [-3, 2], [-2, 0, 1], [1, 0, 1])
        assert solved(gradient_potential(q)) == \
            ([(-2,), (1,), (F(3, 2),)], 4)

    def test_repeated_roots_and_factor_of_z(self):
        # Gradient z^3 (z - 1)^3 (z + 2)^2: the z^3 is no torus zero and
        # the multiplicities count once.
        q = poly_mul([-1, 1], [-1, 1], [-1, 1], [2, 1], [2, 1])
        assert solved(gradient_potential(q, shift=3)) == \
            ([(-2,), (1,)], 0)

    def test_constant_layer_has_no_solutions(self):
        # The z2 component's leading layer is the constant 1.
        W = LaurentPotential(2, {(1, 0): mono(1), (-1, 0): mono(1),
                                 (0, 1): mono(1)})
        assert solved(W) == ([], 0)

    def test_coupled_block_times_univariate_block(self):
        # z1 z2 + 1/z1 + 1/z2 couples z1^2 z2 = 1 and z1 z2^2 = 1 (z1 = z2,
        # z1^3 = 1); z3 + 4/z3 gives z3 = +-2 on its own.
        W = LaurentPotential(3, {(1, 1, 0): mono(1), (-1, 0, 0): mono(1),
                                 (0, -1, 0): mono(1), (0, 0, 1): mono(1),
                                 (0, 0, -1): mono(4)})
        assert solved(W) == ([(1, 1, -2), (1, 1, 2)], 4)

    def test_inconsistent_coupled_system_has_no_solutions(self):
        # z1 + z2 - 2 z1 z2 + z1^2 z2: the z2 layer is (z1 - 1)^2 and the
        # z1 layer 1 - 2 z2 + 2 z1 z2 is 1 at z1 = 1.  sympy's
        # ``solve_poly_system`` returns None for such a system.
        W = LaurentPotential(2, {(1, 0): mono(1), (0, 1): mono(1),
                                 (1, 1): mono(-2), (2, 1): mono(1)})
        assert solved(W) == ([], 0)

    def test_irrational_branches_dropped_and_reported(self):
        # z + 2/z: critical points z^2 = 2.
        W = LaurentPotential(1, {(1,): mono(1), (-1,): mono(2)})
        assert leading_solutions(W) == []
        assert solved(W) == ([], 2)


def permuted(W, perm):
    """``W`` with its variable ``perm[j]`` renamed ``z_(j+1)``."""
    return LaurentPotential(W.num_vars, {tuple(m[i] for i in perm): c
                                         for m, c in W.items()})


def verdict(W):
    """The leading solve's answer, or the type of its refusal."""
    try:
        return solved(W)
    except NovlinkError as exc:
        return type(exc)


@st.composite
def potentials_and_permutations(draw):
    """A potential in 2-3 variables, its coefficients exact, known modulo
    ``T^p`` or only ``O(T^p)``, and a renumbering of its variables."""
    n = draw(st.integers(2, 3))
    W = draw(laurent_potentials(n))
    return W, draw(st.permutations(range(n)))


class TestVerdictOrder:
    """Renumbering the variables never changes the leading solve's
    verdict."""

    def test_unknown_layer_before_a_one_monomial_layer(self):
        # O(T) z1 + T^2/z1 + T z2: the z1 layer T^2 is unknown, the z2
        # layer T z2 a unit.
        W = LaurentPotential(2, {(1, 0): NovikovSeries.zero(1),
                                 (-1, 0): mono(1, 2), (0, 1): mono(1, 1)})
        for perm in ([0, 1], [1, 0]):
            with pytest.raises(PrecisionError, match=r"layer T\^2"):
                _solve_leading_system(permuted(W, perm))

    def test_positive_dimensional_block_before_one_not_in_radicals(self):
        # z1 z2 - 1 is a curve; z3^5 - z3 + z4^3, z4^2 - 1 has roots not in
        # radicals.
        polys = [{(1, 1, 0, 0): F(1), (0, 0, 0, 0): F(-1)},
                 {(0, 0, 5, 0): F(1), (0, 0, 1, 0): F(-1), (0, 0, 0, 3): F(1)},
                 {(0, 0, 0, 2): F(1), (0, 0, 0, 0): F(-1)}]
        for perm in ([0, 1, 2, 3], [2, 3, 0, 1]):
            with pytest.raises(NotZeroDimensionalError):
                _solve_polynomials([{tuple(m[i] for i in perm): c
                                     for m, c in p.items()} for p in polys],
                                   4)

    def test_block_with_no_torus_root_before_a_free_variable(self):
        # The z1, z2 layers of z1 + 1/z1 + T (z1^2 z2^2 - z2^2 + 2 z2) / 2
        # + T^5 (z2 z3 - z3) give z1^2 = 1 and z1^2 z2 - z2 + 1 = 0, with no
        # common root; the z3 layer z2 - 1 leaves z3 in no polynomial.
        polys = [{(2, 0, 0): F(1), (0, 0, 0): F(-1)},
                 {(2, 1, 0): F(1), (0, 1, 0): F(-1), (0, 0, 0): F(1)},
                 {(0, 1, 0): F(1), (0, 0, 0): F(-1)}]
        for perm in itertools.permutations(range(3)):
            assert _solve_polynomials([{tuple(m[i] for i in perm): c
                                        for m, c in p.items()}
                                       for p in polys], 3)[:2] == ([], 0)
        W = LaurentPotential(3, {(1, 0, 0): mono(1), (-1, 0, 0): mono(1),
                                 (2, 2, 0): mono(F(1, 2), 1),
                                 (0, 2, 0): mono(F(-1, 2), 1),
                                 (0, 1, 0): mono(1, 1),
                                 (0, 1, 1): mono(1, 5),
                                 (0, 0, 1): mono(-1, 5)})
        assert leading_solutions(W) == []
        report = truncation_obstruction(W, 5)
        assert not report.unobstructed and report.order == 5
        # Beside blocks that all have torus roots, the free z3 is refused.
        with pytest.raises(NotZeroDimensionalError):
            _solve_polynomials([polys[0], polys[2]], 3)

    def test_one_monomial_layer_before_a_free_variable(self):
        W = LaurentPotential(2, {(1, 0): mono(1, 1)})
        for perm in ([0, 1], [1, 0]):
            assert _solve_leading_system(permuted(W, perm))[:2] == ([], 0)

    @given(potentials_and_permutations())
    @settings(max_examples=100, deadline=None)
    def test_permuting_the_variables_keeps_the_verdict(self, case):
        # The same exception type, or the same points with permuted
        # coordinates and the same irrational count.
        W, perm = case
        before, after = verdict(W), verdict(permuted(W, perm))
        if isinstance(before, tuple):
            before = (sorted(tuple(t[i] for i in perm) for t in before[0]),
                      before[1])
        assert after == before


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

    @pytest.mark.parametrize("target", [B / 2, B])
    def test_target_at_or_below_the_hessian_valuation_lifts(self, target):
        # The chain's Hessian at (1, 1) is 2 T^B on the diagonal, so modulo
        # a target at or below B it is O(T^target): its leading layer is
        # read off the seed's Hessian without a target.
        W = build_chain_potential(LINK2, BulkParameter(F(1)))
        cert = hensel_lift(W, ones(2), LiftConfig(target))
        assert cert.point == UnitaryPoint(
            [NovikovSeries.monomial(1, 0, target)] * 2)
        assert cert.residual_valuations == (target + B,)
        assert cert.hessian_det == NovikovSeries.zero(2 * target)
        assert not cert.morse
        with pytest.raises(PrecisionError,
                           match=r"no layer is known: the determinant is "
                                 rf"O\(T\^\({2 * target}\)\)"):
            cert.det_valuation()
        # Just above B the determinant's leading term is known.
        cert = hensel_lift(W, ones(2), LiftConfig(B + F(1, 16)))
        assert cert.morse and cert.det_valuation() == 2 * B
        assert cert.hessian_det == NovikovSeries([(4, 2 * B)],
                                                 2 * B + F(1, 16))

    def test_leading_hessian_unknown_without_a_target_raises(self):
        # Modulo the target 1/8 the Hessian is O(T^(1/8)), and without a
        # target the exact two-term seed cannot be inverted for 1/z.
        W = LaurentPotential(1, {(1,): mono(1, B), (-1,): mono(1, B)})
        seed = UnitaryPoint([NovikovSeries([(1, 0), (1, 1)])])
        with pytest.raises(PrecisionError, match="inverse of a multi-term"):
            hensel_lift(W, seed, LiftConfig(B / 2))

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

    def test_coordinate_list_seed_accepted(self):
        W = perturbed_chain(F(1, 16))
        cfg = LiftConfig(4 * B)
        assert hensel_lift(W, list(ones(2)), cfg) == \
            hensel_lift(W, ones(2), cfg)

    @pytest.mark.parametrize("target", [0, -1])
    def test_non_positive_target_rejected(self, target):
        with pytest.raises(ConfigError, match="must be positive"):
            LiftConfig(target)


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
    def test_every_leading_branch_lifts(self):
        W = build_chain_potential(LINK2, BulkParameter(F(1)))
        certs = [hensel_lift(W, p, LiftConfig(F(1)))
                 for p in leading_solutions(W)]
        assert len(certs) == 4
        assert all(c.morse for c in certs)


# -- the leading solve against sympy -------------------------------------------


def univariate(q, var=0, k=1):
    """``q`` (lowest degree first) as a polynomial in variable ``var``."""
    return {tuple(j if i == var else 0 for i in range(k)): F(a)
            for j, a in enumerate(q) if a}


def whole_system_by_sympy(polys, k):
    """The leading solve on the whole system, with no blocks.  A system
    with no torus root gives ``([], 0)``: with ``t z1...zk - 1`` adjoined,
    its grevlex Groebner basis is ``[1]`` (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 4).  Then the used-variable check, then
    ``solve_poly_system``, zero coordinates dropped and rational solutions
    split off."""
    symbols = sympy.symbols(f"z1:{k + 1}")
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.prod([s ** e for s, e in zip(symbols, m)])
                 for m, c in p.items()) for p in polys]
    t = sympy.Symbol("t")
    if sympy.groebner(exprs + [t * sympy.prod(symbols) - 1], *symbols, t,
                      order="grevlex").exprs == [1]:
        return [], 0
    if {i for p in polys for m in p for i, e in enumerate(m) if e} \
            != set(range(k)):
        return "not zero-dimensional"
    try:
        sols = solve_poly_system(exprs, *symbols)
    except NotImplementedError:
        return "not zero-dimensional"
    rational, irrational = [], 0
    for sol in sols or []:
        if any(v.is_zero for v in sol):
            continue
        if all(v.is_rational for v in sol):
            rational.append(tuple(F(q.p, q.q)
                                  for q in map(sympy.Rational, sol)))
        else:
            irrational += 1
    return sorted(rational), irrational


def block_solve(polys, k):
    try:
        return _solve_polynomials(polys, k)[:2]
    except NotZeroDimensionalError:
        return "not zero-dimensional"


small_ints = st.integers(-4, 4)
# Linear and quadratic factors, so sympy finds every root of a product.
factors = st.one_of(
    st.tuples(small_ints, st.integers(1, 3)).map(list),
    st.tuples(small_ints.filter(bool), small_ints, st.just(1)).map(list))


@st.composite
def block_systems(draw):
    """Polynomial systems in 1-3 variables made of one-variable blocks (one
    or two polynomials, products of linear and quadratic factors, one of
    them shared or none) and at most one coupled block of two bilinear
    polynomials in two variables.  Beside a coupled block a one-variable
    block has a single factor: sympy's whole-system solve slows down
    sharply with degree."""
    k = draw(st.integers(1, 3))
    pair = draw(st.sampled_from([None, *range(k - 1)]))
    most = 2 if pair is None else 1
    polys, v = [], 0
    while v < k:
        if v == pair:
            for _ in range(2):
                monos = draw(st.lists(st.sampled_from([(1, 0), (0, 1),
                                                       (1, 1)]),
                                      min_size=1, max_size=3, unique=True))
                polys.append({tuple(dict(((v, a), (v + 1, b))).get(i, 0)
                                    for i in range(k)):
                              F(draw(small_ints.filter(bool)))
                              for a, b in monos + [(0, 0)]})
            v += 2
            continue
        common = draw(st.lists(factors, max_size=1))
        for _ in range(draw(st.integers(1, 2))):
            fs = common + draw(st.lists(factors, min_size=0 if common else 1,
                                        max_size=most - len(common)))
            q = poly_mul(*fs)
            if any(q[1:]):
                polys.append(univariate(q, v, k))
        v += 1
    return polys, k


class TestBlockSolver:
    """The block solver against sympy's ``solve_poly_system`` on the whole
    system; sympy stays the oracle here, in the tests only."""

    @given(block_systems())
    @settings(max_examples=60, deadline=None)
    def test_matches_solve_poly_system(self, system):
        polys, k = system
        assert block_solve(polys, k) == whole_system_by_sympy(polys, k)

    def test_no_torus_root_beside_a_positive_dimensional_block(self):
        # 1 + z1 and (1 + z1)(1 + z2) leave z2 free on z1 = -1, and z3 has
        # no torus root: the system has none.
        polys = [{(0, 0, 0): F(1), (1, 0, 0): F(1)},
                 {(0, 0, 0): F(1), (1, 0, 0): F(1), (0, 1, 0): F(1),
                  (1, 1, 0): F(1)},
                 {(0, 0, 1): F(1)}]
        assert block_solve(polys, 3) == whole_system_by_sympy(polys, 3) \
            == ([], 0)

    def test_coupled_root_with_a_zero_coordinate_is_not_counted(self):
        # z1 z2 - z1 and z1 + z2 - 2: the roots (1, 1) and (0, 2), and the
        # second is off the torus.
        polys = [{(1, 1): F(1), (1, 0): F(-1)},
                 {(1, 0): F(1), (0, 1): F(1), (0, 0): F(-2)}]
        assert _solve_polynomials(polys, 2) == ([(1, 1)], 0, [])

    def test_two_equations_on_one_variable_give_their_gcd(self):
        # (z^2 - 2)(z - 1) and (z^2 - 2)(z + 3): gcd z^2 - 2.
        polys = [univariate(poly_mul([-2, 0, 1], [-1, 1])),
                 univariate(poly_mul([-2, 0, 1], [3, 1]))]
        assert _solve_polynomials(polys, 1)[:2] == ([], 2)
        assert whole_system_by_sympy(polys, 1) == ([], 2)
        coprime = [univariate([-1, 1]), univariate([-2, 1])]
        assert _solve_polynomials(coprime, 1)[:2] == ([], 0)

    def test_unsolvable_quintic_counts_every_root(self):
        # z^5 - z - 1 is irreducible with no solution in radicals: sympy's
        # ``roots`` returns none of its five roots, the degree counts them.
        q = poly_mul([-1, -1, 0, 0, 0, 1], [-1, 1])
        assert _solve_polynomials([univariate(q)], 1)[:2] == ([(1,)], 5)
        assert len(set(sympy.Poly(list(reversed(q)),
                                  sympy.Symbol("z")).all_roots())) == 6
        assert whole_system_by_sympy([univariate(q)], 1) == ([(1,)], 0)

    def test_coupled_block_not_in_radicals_is_refused(self):
        # sympy's own example x^5 - x + y^3, y^2 - 1 has ten solutions, but
        # at y = 1 the quintic x^5 - x + 1 has none in radicals.
        polys = [{(5, 0): F(1), (1, 0): F(-1), (0, 3): F(1)},
                 {(0, 2): F(1), (0, 0): F(-1)}]
        with pytest.raises(ConfigError, match="leading block in z1, z2 "
                                              "cannot all be written in "
                                              "radicals"):
            _solve_polynomials(polys, 2)
        # Beside a block with no root the system has no solution at all.
        none = [univariate([-1, 1], 2, 3), univariate([-2, 1], 2, 3)]
        assert _solve_polynomials([{m + (0,): c for m, c in p.items()}
                                   for p in polys] + none, 3)[:2] == ([], 0)
        # z1^6 + 6 z1 + 6 z1 z2 + 3 z2^2: the z2 layer gives z2 = -z1, and
        # the z1 layer then 6 (z1^5 - z1 + 1).
        W = LaurentPotential(2, {(6, 0): mono(1), (1, 0): mono(6),
                                 (1, 1): mono(6), (0, 2): mono(3)})
        for solve in (leading_solutions,
                      lambda W: truncation_obstruction(W, 0)):
            with pytest.raises(ConfigError, match="radicals"):
                solve(W)

    def test_rational_roots_with_large_coefficients(self):
        # Roots p/q with p and q prime near 10^18 and 10^9: found without
        # factoring either.
        p, q = 10 ** 18 + 9, 10 ** 9 + 7
        f = poly_mul([-p, q], [1, 0, 1], [5, -3])
        assert sorted(_rational_roots(f)) == [F(5, 3), F(p, q)]

    def test_chain_solves_never_call_sympy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_poly_system called")

        monkeypatch.setattr(critlift, "solve_poly_system", refuse)
        rng = random.Random(5)
        for k in range(1, 9):
            for c0 in (F(1), F(3, 2), F(-2)):
                link = CircleLinkS2(k, F(1, 8), F(1, 4))
                W = build_chain_potential(link, BulkParameter(c0))
                assert len(leading_solutions(W)) == 2 ** k
            extra = {tuple(rng.choice((-1, 0, 1)) for _ in range(k)):
                     mono(rng.choice((-1, 1)), F(1, 4) + F(j, 16))
                     for j in (1, 2, 3)}
            extra.pop((0,) * k, None)
            W = build_chain_potential(link, BulkParameter(1),
                                      LaurentPotential(k, extra))
            assert len(leading_solutions(W)) == 2 ** k
        for a, a2 in ((F(1, 3), F(1, 2)), (F(2, 5), F(2, 5))):
            W = LaurentPotential(1, {(1,): NovikovSeries.monomial(1, a),
                                     (-1,): NovikovSeries.monomial(1, a2)})
            truncation_obstruction(W, (a + a2) / 2)


class TestLeadingSolutionLimit:
    def chain(self, k):
        return build_chain_potential(CircleLinkS2(k, F(1, 8), F(1, 4)),
                                     BulkParameter(F(1)))

    def test_limit_is_a_chain_of_two_to_the_k(self):
        k = LEADING_SOLUTION_LIMIT.bit_length() - 1
        assert 2 ** k == LEADING_SOLUTION_LIMIT
        assert len(leading_solutions(self.chain(k))) == LEADING_SOLUTION_LIMIT

    def test_refused_before_any_block_is_solved(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block was solved")

        monkeypatch.setattr(critlift, "_solve_univariate", refuse)
        monkeypatch.setattr(critlift, "_solve_coupled", refuse)
        W = self.chain(LEADING_SOLUTION_LIMIT.bit_length())
        # A free variable beside the blocks is refused by the bound too.
        free = LaurentPotential(W.num_vars + 1,
                                {m + (0,): c for m, c in W.items()})
        for potential in (W, free):
            with pytest.raises(ConfigError,
                               match="LEADING_SOLUTION_LIMIT = "
                                     f"{LEADING_SOLUTION_LIMIT}"):
                leading_solutions(potential)


class TestLiftWorkLimit:
    GOLDEN = Path(__file__).parent / "golden"

    def load(self, name):
        return json.loads((self.GOLDEN / name).read_text(encoding="utf-8"))

    # The k = 3 golden potential has n = 3 variables, M = 9 monomials and
    # exponents 1/4, 5/16, 3/8 and 7/16; v0 = 1/4, so L = 16 * (target +
    # 1/4).  Its copy with coefficients known modulo T^(25/14), T^(13/7)
    # and T^(9/5) has the same cost: precisions do not count.
    @pytest.mark.parametrize("potential", ["lift_k3_potential.json",
                                           "lift_k3_potential_prec.json"])
    def test_cost_is_read_before_the_first_step(self, monkeypatch,
                                                potential):
        class FirstStep(Exception):
            pass

        def first_step(*args):
            raise FirstStep

        monkeypatch.setattr(critlift, "_table_gradient", first_step)
        W = LaurentPotential.from_obj(self.load(potential))
        z0 = UnitaryPoint.from_obj(self.load("lift_k3_seed.json"))
        assert 3 * (9 + 9) * 260 ** 3 <= LIFT_WORK_LIMIT
        with pytest.raises(FirstStep):
            hensel_lift(W, z0, LiftConfig(16))
        cost = 3 * (9 + 9) * 276 ** 3
        with pytest.raises(ConfigError,
                           match=f"costs {cost} units of work, above "
                                 f"LIFT_WORK_LIMIT = {LIFT_WORK_LIMIT}"):
            hensel_lift(W, z0, LiftConfig(17))

    def test_lattice_is_spanned_by_exponent_differences(self):
        # Every coefficient of this chain sits at T^B: with a constant seed
        # the point stays constant, one lattice point whatever the target.
        W = build_chain_potential(CircleLinkS2(12, F(13, 400), F(13, 40)),
                                  BulkParameter(F(2)))
        M = len(list(W.items()))
        work = 17 * F(13, 40)
        assert critlift._lift_cost(W, ones(12), work, F(1, 40)) == \
            12 * (M + 144)
        # A seed term at T^(1/7) makes the step gcd(0, 1/7) = 1/7.
        seed = [mono(1)] * 11 + [mono(1) + mono(1, F(1, 7))]
        assert critlift._lift_cost(W, seed, work, F(1, 280)) == \
            12 * (M + 144) * math.ceil(7 * work) ** 3


# -- doubling precision against the full-precision loop ------------------------


def lift_outcome(lift, W, z0, target):
    try:
        return lift(W, z0, target)
    except ObstructedError as exc:
        return ("obstructed", exc.order)
    except NonMorseError:
        return ("non-Morse",)


def doubling_lift(W, z0, target):
    return hensel_lift(W, z0, LiftConfig(target))


@st.composite
def perturbed_chain_lifts(draw):
    """A perturbed chain (k = 1..4, c0 and a bulk tail drawn, 0..k extra
    monomials, some below the chain's valuation), a sign branch of its
    leading system as seed (now and then moved off it), and a target from
    B/2 to 8B: at B/2 and B the Hessian modulo the target may leave its
    leading layer unknown."""
    k = draw(st.integers(1, 4))
    B = draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 5)]))
    link = CircleLinkS2(k, B / draw(st.sampled_from([2, 3])), B)
    tail = draw(st.one_of(st.none(), st.integers(1, 6).map(
        lambda j: NovikovSeries.monomial(1, (link.B - link.A) / 2
                                         + F(j, 16)))))
    bulk = BulkParameter(draw(st.sampled_from(
        [F(1), F(2), F(1, 2), F(3, 2), F(-1), F(-2, 3)])))
    extra = {}
    for _ in range(draw(st.integers(0, k))):
        m = draw(st.tuples(*[st.integers(-1, 1)] * k).filter(any))
        delta = F(draw(st.integers(-2, 7)), 16)
        coeff = F(draw(small_ints.filter(bool)), draw(st.integers(1, 3)))
        extra[m] = NovikovSeries.monomial(coeff, B + delta)
    if tail is not None:
        # c = c0 T^b + tail turns each annulus coefficient c^2 T^A into
        # c0^2 T^B plus (2 c0 T^b tail + tail^2) T^A.
        b = (link.B - link.A) / 2
        shift = ((2 * NovikovSeries.monomial(bulk.c0, b) * tail + tail * tail)
                 * NovikovSeries.monomial(1, link.A))
        for j in range(k - 1):
            for m in (tuple(-1 if i == j else 0 for i in range(k)),
                      tuple(1 if i == j + 1 else 0 for i in range(k))):
                extra[m] = extra.get(m, NovikovSeries.zero()) + shift
    W = build_chain_potential(link, bulk,
                              LaurentPotential(k, extra) if extra else None)
    leads = [draw(st.sampled_from([1, -1])) * c
             for c in preferred_branch_leads(link, bulk)]
    if draw(st.integers(0, 9)) == 0:
        leads[0] *= 2
    seed = UnitaryPoint([NovikovSeries.monomial(c, 0) for c in leads])
    return W, seed, B * draw(st.sampled_from([F(1, 2), *range(1, 9)]))


def landing_potential(tail):
    """``T^(1/4) (z + c^2 / z)`` with ``c = 1 + tail``: its critical point
    ``c`` is a finite series.  Newton's error stays quadratic, so no
    truncated iterate reaches ``c`` below the working precision: the loop
    ends on a residual zero modulo ``T^work``, found at ``work`` itself."""
    c = NovikovSeries([(1, 0)] + tail)
    TB = NovikovSeries.monomial(1, F(1, 4))
    return LaurentPotential(1, {(1,): TB, (-1,): c * c * TB})


def snapping_potential():
    """``T^(1/4) (z^2 + 2 c^3 / z)`` with ``c = 1 + T^(1/16)``.  Its second
    and third log-derivatives agree at the critical point ``c``, which
    cancels the quadratic error of the multiplicative step ``z (1 +
    delta)``.  The error is cubic, so truncating the update at ``2g + eps``
    puts the iterate on ``c`` while ``p`` is still below ``work``."""
    c = NovikovSeries([(1, 0), (1, F(1, 16))])
    TB = NovikovSeries.monomial(1, F(1, 4))
    return LaurentPotential(1, {(2,): TB, (-1,): 2 * c * c * c * TB})


def scaled(W, s):
    """``T^s W``: the same critical points, the Hessian's valuation moved
    by ``s`` (below zero for ``s = -1``)."""
    TS = NovikovSeries.monomial(1, s)
    return LaurentPotential(W.num_vars, {m: c * TS for m, c in W.items()})


class TestDoublingPrecision:
    @given(perturbed_chain_lifts())
    @settings(max_examples=100, deadline=None)
    def test_matches_full_precision_lift(self, case):
        W, seed, target = case
        assert lift_outcome(doubling_lift, W, seed, target) == \
            lift_outcome(full_precision_lift, W, seed, target)

    @pytest.mark.parametrize("W, seed", [
        # Exact seeds: the chain's own critical points, c0 = 1 and c0 != 1.
        (build_chain_potential(LINK2, BulkParameter(F(1))), ones(2)),
        (build_chain_potential(CircleLinkS2(3, F(1, 8), F(1, 4)),
                               BulkParameter(F(3, 2))),
         UnitaryPoint([mono(F(3, 2)), mono(1), mono(F(2, 3))])),
        # Newton reaches a finite critical point, at the working precision.
        (landing_potential([(1, F(1, 16))]), ones(1)),
        (landing_potential([(1, F(1, 16)), (F(-3, 2), F(3, 16))]), ones(1)),
        (landing_potential([(2, F(3, 16))]), ones(1)),
        # Obstructed at the first step, and a non-Morse seed.
        (LaurentPotential(1, {(1,): mono(1), (-1,): mono(4)}), ones(1)),
        (cubic_potential(), ones(1)),
    ] + [
        # Scaled by T^s: the Hessian's valuation v0 falls to -3/4 and 0.
        (scaled(W, s), ones(W.num_vars))
        for W in (landing_potential([(1, F(1, 16))]),
                  landing_potential([(1, F(1, 16)), (F(-3, 2), F(3, 16))]),
                  perturbed_chain(F(1, 16)))
        for s in (F(-1), F(-1, 4))
    ])
    @pytest.mark.parametrize("target", [F(3, 4), F(3, 2), F(2)])
    def test_edge_cases_match_full_precision_lift(self, W, seed, target):
        assert lift_outcome(doubling_lift, W, seed, target) == \
            lift_outcome(full_precision_lift, W, seed, target)

    @pytest.mark.parametrize("target", [F(1), F(3, 2), F(2)])
    def test_landing_below_work_is_checked_again_at_work(self, monkeypatch,
                                                         target):
        # The first update lands on c: the next residual is zero modulo
        # p = 9/16, which says nothing about the orders up to work, so the
        # table is taken again at work before the loop stops.
        work = target + F(1, 4)
        calls = []
        table = LaurentPotential._monomial_table

        def table_spy(self, point, target_precision):
            calls.append(target_precision)
            return table(self, point, target_precision)

        monkeypatch.setattr(LaurentPotential, "_monomial_table", table_spy)
        W = snapping_potential()
        cert = doubling_lift(W, ones(1), target)
        assert calls == [target, work, F(9, 16), work, target]
        assert cert.residual_valuations == (F(5, 16), work)
        # The full-precision loop takes more steps (residual valuations
        # 5/16, 7/16, 13/16 and 5/4 at target 1): the step that gains more
        # than 2g records a different valuation, and nothing else differs.
        oracle = full_precision_lift(W, ones(1), target)
        assert len(oracle.residual_valuations) > 2
        assert replace(cert, residual_valuations=oracle.residual_valuations) \
            == oracle

    @pytest.mark.parametrize("prec, target", [
        (F(9, 5), F(3, 2)), (F(9, 5), F(5, 4)), (F(9, 5), F(1)),
        (F(8, 5), F(5, 4)), (F(23, 14), F(1)), (F(23, 14), F(5, 4))])
    def test_off_lattice_coefficient_precision_matches_full_precision_lift(
            self, prec, target):
        # The extra coefficient T^(5/16) + O(T^prec) has a precision
        # denominator off the 1/16 exponent lattice, so eps is finer than
        # the exponents need; the certificate, residual valuations included,
        # is still the full-precision loop's.
        W = build_chain_potential(LINK2, BulkParameter(F(1)), LaurentPotential(
            2, {(1, 0): NovikovSeries.monomial(1, B + F(1, 16), prec)}))
        cert = doubling_lift(W, ones(2), target)
        assert cert == full_precision_lift(W, ones(2), target)
        assert cert.morse and len(cert.residual_valuations) >= 5

    @pytest.mark.parametrize("k, extra", [
        (5, {(1, 0, -1, 0, 0): (1, 1), (0, 1, 0, 0, -1): (-1, 3),
             (0, 0, 1, 1, 0): (F(1, 2), 2), (-1, 0, 0, 0, 1): (2, 5),
             (0, -1, 1, 0, 0): (-1, 6)}),
        (6, {(1, -1, 0, 0, 0, 0): (1, 1), (0, 0, 1, 0, -1, 0): (-1, 2),
             (0, 1, 0, 1, 0, 0): (F(1, 3), 3), (0, 0, 0, -1, 0, 1): (2, 4),
             (-1, 0, 0, 0, 0, 1): (1, 5), (0, 0, -1, 1, 1, 0): (F(-1, 2), 7)}),
    ])
    def test_five_and_six_link_chains_match_full_precision_lift(self, k,
                                                                 extra):
        # The property above stops at k = 4.  Each chain has k extra
        # monomials c z^m at T^(B + j/16), given as m: (c, j); the last
        # solve of the lift to 6B takes the Hessian only modulo T^(3/4).
        link, bulk = CircleLinkS2(k, B / 2, B), BulkParameter(F(1))
        W = build_chain_potential(link, bulk, LaurentPotential(k, {
            m: NovikovSeries.monomial(c, B + F(j, 16))
            for m, (c, j) in extra.items()}))
        seed = UnitaryPoint([mono(c) for c in preferred_branch_leads(link,
                                                                     bulk)])
        cert = doubling_lift(W, seed, 6 * B)
        assert cert == full_precision_lift(W, seed, 6 * B)
        assert cert.morse and cert.residual_valuations[-2:] == (F(5, 4),
                                                                 F(7, 4))

    def test_newton_steps_exhausted_is_obstructed(self, monkeypatch):
        # The perturbed chain needs six steps (see the next test); one step
        # leaves the residual at T^(5/16).
        monkeypatch.setattr(critlift, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(ObstructedError,
                           match="1 Newton steps exhausted") as err:
            hensel_lift(perturbed_chain(F(1, 16)), ones(2), LiftConfig(6 * B))
        assert err.value.order == F(5, 16)

    def test_precision_doubles_with_the_residual(self, monkeypatch):
        # The perturbed chain's gaps g = rv - B go 1/16, 1/8, 1/4, 1/2, 1,
        # so the residuals are taken modulo 7/4 (the seed), then 9/16,
        # 13/16, 21/16 and 7/4 = work twice.  Each solve gets the Hessian
        # modulo B + min(g + 1/16, p - rv): B + g + 1/16 while p doubles,
        # and B + 7/4 - 5/4 = 3/4 in the last, capped solve, where the
        # residual known modulo T^(7/4) leaves delta unknown from T^(3/2)
        # on.  The closing check, whose residual is zero, builds no
        # Hessian.
        calls = []
        table = LaurentPotential._monomial_table
        hessian = critlift._table_hessian

        def table_spy(self, point, target_precision):
            calls.append(("table", target_precision))
            return table(self, point, target_precision)

        def hessian_spy(table, n, precision):
            calls.append(("hessian", precision))
            return hessian(table, n, precision)

        monkeypatch.setattr(LaurentPotential, "_monomial_table", table_spy)
        monkeypatch.setattr(critlift, "_table_hessian", hessian_spy)
        cert = hensel_lift(perturbed_chain(F(1, 16)), ones(2),
                           LiftConfig(6 * B))
        assert [str(v) for v in cert.residual_valuations] == \
            ["5/16", "3/8", "1/2", "3/4", "5/4", "7/4"]
        # The first table finds v0 at the target, the last certifies.
        assert calls[0] == calls[-1] == ("table", 6 * B)
        assert calls[1:-1] == [
            ("table", F(7, 4)), ("hessian", F(3, 8)),
            ("table", F(9, 16)), ("hessian", F(7, 16)),
            ("table", F(13, 16)), ("hessian", F(9, 16)),
            ("table", F(21, 16)), ("hessian", F(13, 16)),
            ("table", F(7, 4)), ("hessian", F(3, 4)),
            ("table", F(7, 4))]


# -- the lift claims no more than W's coefficients fix ------------------------


def chain_plus(coeff):
    """The k = 2 chain (A = 1/8, B = 1/4, c0 = 1) plus ``coeff z1``."""
    return build_chain_potential(LINK2, BulkParameter(F(1)),
                                 LaurentPotential(2, {(1, 0): coeff}))


@st.composite
def capped_chain_lifts(draw):
    """A chain (k = 1..3) plus 1..k monomials ``c T^e`` at ``e = B +
    j/16``, each known modulo a ``T^p`` on the exponents' lattice strictly
    between ``e`` and ``work = target + B``; a sign branch as seed; and
    the potential with every inexact coefficient completed above its
    precision."""
    k = draw(st.integers(1, 3))
    B = draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 5)]))
    link = CircleLinkS2(k, B / 2, B)
    bulk = BulkParameter(draw(st.sampled_from([F(1), F(2), F(-1, 2)])))
    target = B * draw(st.integers(3, 6))
    extra = {}
    for _ in range(draw(st.integers(1, k))):
        m = draw(st.tuples(*[st.integers(-1, 1)] * k).filter(any))
        e = B + F(draw(st.integers(1, 4)), 16)
        below_work = math.ceil((target + B - e) * 16) - 1
        p = e + F(draw(st.integers(1, below_work)), 16)
        extra[m] = NovikovSeries.monomial(
            draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2)])), e, p)
    W = build_chain_potential(link, bulk, LaurentPotential(k, extra))
    completed = LaurentPotential(k, {m: draw(completions(c))
                                     for m, c in W.items()})
    seed = UnitaryPoint([mono(draw(st.sampled_from([1, -1])) * c)
                         for c in preferred_branch_leads(link, bulk)])
    return W, completed, seed, target


class TestCoefficientPrecisionCap:
    """A coefficient known modulo ``T^p_W`` fixes the point modulo
    ``T^(p_W - v0)``, and the lift claims no more."""

    def test_two_completions_part_where_the_claim_ends(self):
        # p_W = 8/5 and v0 = B = 1/4: z1 is known modulo T^(27/20), the
        # full-precision loop's figure, and the completions + T^(8/5) and
        # - 7 T^(8/5) lift to points that first differ there.
        target = F(3, 2)
        W = chain_plus(NovikovSeries.monomial(1, F(5, 16), F(8, 5)))
        cert = doubling_lift(W, ones(2), target)
        assert cert.morse
        assert [c.precision for c in cert.point] == [F(27, 20)] * 2
        assert full_precision_lift(W, ones(2), target).point[0].precision \
            == F(27, 20)
        z1s = [doubling_lift(chain_plus(NovikovSeries(
            [(1, F(5, 16)), (c, F(8, 5))])), ones(2), target).point[0]
            for c in (1, -7)]
        assert [z.coefficient(F(27, 20)) for z in z1s] == [F(-1, 2),
                                                           F(7, 2)]
        for z in z1s:
            assert z.eq_mod(cert.point[0], F(27, 20))

    def test_precision_below_the_target(self):
        # p_W = 33/80 at target 1/2: the point is known modulo T^(13/80).
        W = chain_plus(NovikovSeries.monomial(1, F(5, 16), F(33, 80)))
        cert = doubling_lift(W, ones(2), F(1, 2))
        assert [c.precision for c in cert.point] == [F(13, 80)] * 2

    def test_lift_stops_once_the_residual_is_zero_modulo_p_w(self):
        # z2's coefficient is known modulo T^(19/16), below work = 2: every
        # seed stops with the residual zero modulo T^(19/16), not with an
        # obstruction there.
        W = LaurentPotential(2, {
            (-1, -1): NovikovSeries([(-1, F(9, 16))], F(447, 112)),
            (-1, 0): mono(4, F(1, 4)), (0, -1): mono(1, F(1, 4)),
            (0, 1): NovikovSeries([(4, F(1, 4)), (1, F(9, 16))], F(19, 16)),
            (1, 0): mono(1, F(1, 4))})
        seeds = leading_solutions(W)
        assert sorted(p.leading_tuple() for p in seeds) == [
            (-2, F(-1, 2)), (-2, F(1, 2)), (2, F(-1, 2)), (2, F(1, 2))]
        for seed in seeds:
            cert = doubling_lift(W, seed, F(7, 4))
            assert cert.morse
            assert [c.precision for c in cert.point] == [F(15, 16)] * 2
            assert cert.residual_valuations == (F(9, 16), F(7, 8),
                                                F(19, 16))

    @given(capped_chain_lifts())
    @settings(max_examples=200, deadline=None)
    def test_completions_agree_modulo_the_claimed_precision(self, case):
        W, completed, seed, target = case
        cert = doubling_lift(W, seed, target)
        other = doubling_lift(completed, seed, target)
        for z, w in zip(cert.point, other.point):
            assert z.eq_mod(w, z.precision)
