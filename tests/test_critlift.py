"""Leading-order solving, adic lifting and Morse certification."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.solvers.polysys import solve_poly_system

from novlink import critlift
from novlink.critlift import (
    LEADING_SOLUTION_LIMIT,
    LiftConfig,
    _rational_roots,
    _solve_leading_system,
    _solve_polynomials,
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
from novlink.linkfam import (
    BulkParameter,
    CircleLinkS2,
    build_chain_potential,
    preferred_branch_leads,
    truncation_obstruction,
)
from novlink.novikov import NovikovSeries

from oracles import full_precision_lift, one_exponent_lift

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
    points, irrational = _solve_leading_system(W)
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


# -- the leading solve against sympy -------------------------------------------


def univariate(q, var=0, k=1):
    """``q`` (lowest degree first) as a polynomial in variable ``var``."""
    return {tuple(j if i == var else 0 for i in range(k)): F(a)
            for j, a in enumerate(q) if a}


def whole_system_by_sympy(polys, k):
    """The leading solve as it was before block solving: the used-variable
    check, then the whole system through ``solve_poly_system``, zero
    coordinates dropped and rational solutions split off.  A system with
    no solution gives ``([], 0)``."""
    if {i for p in polys for m in p for i, e in enumerate(m) if e} \
            != set(range(k)):
        return "not zero-dimensional"
    symbols = sympy.symbols(f"z1:{k + 1}")
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.prod([s ** e for s, e in zip(symbols, m)])
                 for m, c in p.items()) for p in polys]
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
        return _solve_polynomials(polys, k)
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

    def test_two_equations_on_one_variable_give_their_gcd(self):
        # (z^2 - 2)(z - 1) and (z^2 - 2)(z + 3): gcd z^2 - 2.
        polys = [univariate(poly_mul([-2, 0, 1], [-1, 1])),
                 univariate(poly_mul([-2, 0, 1], [3, 1]))]
        assert _solve_polynomials(polys, 1) == ([], 2)
        assert whole_system_by_sympy(polys, 1) == ([], 2)
        coprime = [univariate([-1, 1]), univariate([-2, 1])]
        assert _solve_polynomials(coprime, 1) == ([], 0)

    def test_unsolvable_quintic_counts_every_root(self):
        # z^5 - z - 1 is irreducible with no solution in radicals: sympy's
        # ``roots`` returns none of its five roots, the degree counts them.
        q = poly_mul([-1, -1, 0, 0, 0, 1], [-1, 1])
        assert _solve_polynomials([univariate(q)], 1) == ([(1,)], 5)
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
                                   for p in polys] + none, 3) == ([], 0)
        # z1^6 + 6 z1 + 6 z1 z2 + 3 z2^2: the z2 layer gives z2 = -z1, and
        # the z1 layer then 6 (z1^5 - z1 + 1).
        W = LaurentPotential(2, {(6, 0): mono(1), (1, 0): mono(6),
                                 (1, 1): mono(6), (0, 2): mono(3)})
        for solve in (lambda W: lift_all(W, LiftConfig(F(1))),
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
        for solve in (leading_solutions,
                      lambda W: lift_all(W, LiftConfig(F(1)))):
            with pytest.raises(ConfigError,
                               match="LEADING_SOLUTION_LIMIT = "
                                     f"{LEADING_SOLUTION_LIMIT}"):
                solve(W)


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
    leading system as seed (now and then moved off it), and a target."""
    k = draw(st.integers(1, 4))
    B = draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 5)]))
    link = CircleLinkS2(k, B / draw(st.sampled_from([2, 3])), B)
    tail = draw(st.one_of(st.none(), st.integers(1, 6).map(
        lambda j: NovikovSeries.monomial(1, (link.B - link.A) / 2
                                         + F(j, 16)))))
    bulk = BulkParameter(draw(st.sampled_from(
        [F(1), F(2), F(1, 2), F(3, 2), F(-1), F(-2, 3)])), tail)
    extra = {}
    for _ in range(draw(st.integers(0, k))):
        m = draw(st.tuples(*[st.integers(-1, 1)] * k).filter(any))
        delta = F(draw(st.integers(-2, 7)), 16)
        coeff = F(draw(small_ints.filter(bool)), draw(st.integers(1, 3)))
        extra[m] = NovikovSeries.monomial(coeff, B + delta)
    W = build_chain_potential(link, bulk,
                              LaurentPotential(k, extra) if extra else None)
    leads = [draw(st.sampled_from([1, -1])) * c
             for c in preferred_branch_leads(link, bulk)]
    if draw(st.integers(0, 9)) == 0:
        leads[0] *= 2
    seed = UnitaryPoint([NovikovSeries.monomial(c, 0) for c in leads])
    return W, seed, B * draw(st.integers(2, 8))


def landing_potential(tail):
    """``T^(1/4) (z + c^2 / z)`` with ``c = 1 + tail``: its critical point
    ``c`` is a finite series, which a truncated iterate can hit exactly."""
    c = NovikovSeries([(1, 0)] + tail)
    TB = NovikovSeries.monomial(1, F(1, 4))
    return LaurentPotential(1, {(1,): TB, (-1,): c * c * TB})


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
        # Newton lands on a finite critical point.
        (landing_potential([(1, F(1, 16))]), ones(1)),
        (landing_potential([(1, F(1, 16)), (F(-3, 2), F(3, 16))]), ones(1)),
        (landing_potential([(2, F(3, 16))]), ones(1)),
        # Obstructed at the first step, and a non-Morse seed.
        (LaurentPotential(1, {(1,): mono(1), (-1,): mono(4)}), ones(1)),
        (cubic_potential(), ones(1)),
    ])
    @pytest.mark.parametrize("target", [F(3, 4), F(3, 2), F(2)])
    def test_edge_cases_match_full_precision_lift(self, W, seed, target):
        assert lift_outcome(doubling_lift, W, seed, target) == \
            lift_outcome(full_precision_lift, W, seed, target)

    def test_precision_doubles_with_the_residual(self, monkeypatch):
        # The perturbed chain's gaps rv - B go 1/16, 1/8, 1/4, 1/2, 1, so
        # the residuals are taken modulo 7/4 (the seed), then 9/16, 13/16,
        # 21/16 and 7/4 = work twice.
        precisions = []
        log_jet = LaurentPotential.log_jet

        def spy(self, point, target_precision=None):
            precisions.append(target_precision)
            return log_jet(self, point, target_precision)

        monkeypatch.setattr(LaurentPotential, "log_jet", spy)
        cert = hensel_lift(perturbed_chain(F(1, 16)), ones(2),
                           LiftConfig(6 * B))
        assert [str(v) for v in cert.residual_valuations] == \
            ["5/16", "3/8", "1/2", "3/4", "5/4", "7/4"]
        # The first call finds v0 at the target, the last certifies.
        assert precisions[1:-1] == [F(7, 4), F(9, 16), F(13, 16), F(21, 16),
                                    F(7, 4), F(7, 4)]
