"""Critical points of Laurent potentials by leading-order solving and lifting.

The workflow: extract the lowest-valuation layer of the multiplicative
gradient system, solve it over the rationals (a zero-dimensional polynomial
system), then push each rational leading solution up order by order in the
exponent filtration.  Lifting uses Newton iteration over the series field:
each step solves one linear system against the current Hessian with exact
rational arithmetic, and the residual valuation climbs quadratically, so
each step works at about twice the precision of the one before (see
``hensel_lift``).

The leading system splits into blocks of polynomials that share no
variable, and its solutions are the product of the blocks' solutions.  A
block in one variable is solved on integers (``_solve_univariate``); only
a block that couples two or more variables goes to sympy's
``solve_poly_system``.  ``_solve_leading_system`` and ``_solve_polynomials``
state the one order in which the solve's verdicts are reached.

Only rational leading solutions are lifted.  Branches whose leading
coordinates are algebraic but irrational are reported, never approximated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Tuple

import sympy
from sympy.polys.polyerrors import UnsolvableFactorError
from sympy.solvers.polysys import solve_poly_system

from .errors import (
    ConfigError,
    NonMorseError,
    NotZeroDimensionalError,
    ObstructedError,
    PrecisionError,
)
from .laurent import (
    LaurentPotential,
    UnitaryPoint,
    _as_point,
    _classes,
    _det,
    _square,
    _table_gradient,
    _table_hessian,
    det_bareiss,
    solve_linear,
)
from .novikov import (
    INFINITY,
    NovikovSeries,
    _least_valuation,
    _positive_fraction,
)

#: Newton steps a lift may take before it is reported obstructed.  The
#: residual valuation climbs quadratically, so a converging lift needs far
#: fewer.
MAX_NEWTON_STEPS = 64

#: Largest Bezout bound of a leading system that is solved: the product
#: over its blocks of each block's bound, so ``2^k`` for a ``k``-link
#: chain.  A larger system is refused with ``ConfigError`` before any work,
#: because every rational solution becomes a point of the output.  At the
#: limit, ``crit find`` on the k = 10 chain (1024 points) takes 0.7-0.85 s
#: in a fresh process, and k = 11 takes 1.05-1.25 s (Python 3.11.7, 2-core
#: x86-64).
LEADING_SOLUTION_LIMIT = 1024

#: Largest cost ``n (M + n^2) L^3`` of a lift (``_lift_cost``), read off
#: its inputs before the first Newton step: ``n`` variables, ``M``
#: monomials and ``L`` lattice points below the working precision.  The
#: coefficients grow with the terms, so a product of ``L``-term series
#: costs about ``L^3``, and a step makes about ``n M`` of them for the
#: monomial table and ``n^3`` for the solve.  Lifts took 0.8-1.1 ns per
#: unit under Python 3.11.7 on a 2-core x86-64 machine: on the k = 3
#: golden potential (``L = 16 (target + 1/4)``), 0.37 s at ``--prec 12``
#: (cost 4.1e8), 1.4 s at 18 (1.3e9, refused) and 2.6 s at 24 (3.2e9,
#: refused); a k = 6 perturbed chain 0.32 s at target 6 (3.2e8).
LIFT_WORK_LIMIT = 10 ** 9


@dataclass(frozen=True)
class LiftConfig:
    """Settings for the order-by-order lift.

    ``target_precision``: the lifted point satisfies the gradient system
    modulo ``T^target_precision``.
    """

    target_precision: Fraction

    def __post_init__(self):
        object.__setattr__(self, "target_precision", _positive_fraction(
            self.target_precision, "target_precision"))


@dataclass(frozen=True)
class CriticalCertificate:
    """A candidate critical point with its nondegeneracy evidence.

    ``hessian_det`` is the determinant of the multiplicative Hessian at the
    point; ``morse`` records whether the gradient vanishes to the available
    precision and the determinant has an invertible leading term.
    ``residual_valuations`` traces the Newton residual per lift step.
    """

    point: UnitaryPoint
    hessian_det: NovikovSeries
    morse: bool
    reason: str
    hessian: Tuple[Tuple[NovikovSeries, ...], ...]
    residual_valuations: Tuple = ()

    def det_valuation(self):
        """``PrecisionError`` for a determinant known only as ``O(T^p)``."""
        return _least_valuation((self.hessian_det,),
                                lambda _: "the determinant")


# -- leading-order system -----------------------------------------------------

#: A leading polynomial: ``{exponent vector: nonzero coefficient}``.
Polynomial = Dict[Tuple[int, ...], Fraction]


def _solve_leading_system(W: LaurentPotential):
    """All torus solutions of the leading gradient system, as
    ``(rational_points, irrational_count, order)``.

    The leading layer of gradient component ``i``, ``sum m_i coeff z^m``,
    is its part at the least valuation ``v`` of its coefficients
    (``novikov._least_valuation``, which raises ``PrecisionError`` when
    that layer is unknown).  It becomes a polynomial once its monomial
    content is divided out (per-variable minimum exponent set to zero),
    which is harmless on the unit torus: a layer of one monomial becomes a
    nonzero constant, a unit.  A variable in no monomial has no layer.
    Every layer is read before ``_solve_polynomials`` decides, so
    renumbering the variables never changes the verdict.  ``order`` is
    ``None`` unless some block has no torus root; then it is the least,
    over those blocks, of the greatest valuation among the block's layers.
    """
    valuations, polys = [], []
    for i in range(W.num_vars):
        comp = [(m, c) for m, c in W.items() if m[i]]
        if not comp:
            continue
        v = _least_valuation(
            [c for _, c in comp],
            lambda j: f"the coefficient of z^{list(comp[j][0])}")
        monos = [(m, a) for m, c in comp if (a := m[i] * c.coefficient(v))]
        shift = [min(e) for e in zip(*(m for m, _ in monos))]
        valuations.append(v)
        polys.append({tuple(e - s for e, s in zip(m, shift)): a
                      for m, a in monos})
    rational, irrational, rootless = _solve_polynomials(polys, W.num_vars)
    order = min((max(valuations[n] for n in block) for block in rootless),
                default=None)
    # Few distinct coordinates recur across the 2^k-style product.
    leads = {c: NovikovSeries.monomial(c, 0) for c in set().union(*rational)}
    points = [UnitaryPoint([leads[c] for c in tup]) for tup in rational]
    return points, irrational, order


def _solve_polynomials(polys: List[Polynomial], k: int):
    """Torus solutions of nonzero polynomials in ``k`` variables, as
    ``(rational, irrational, rootless)``: the sorted tuples of the rational
    solutions with no zero coordinate, the number of the other such
    solutions, and the polynomials' indices in each block with no torus
    root.  The blocks share no variable, and the solutions are the product
    of theirs.  A nonzero constant is a block with no variable and no
    root, a variable in no polynomial a positive-dimensional block; every
    other block is solved once, to ``(rational roots, count)``, count
    ``None`` for a positive dimension, or to the ``ConfigError`` of a root
    not in radicals.  The verdict, in this order: a constant gives no
    solution; a Bezout bound above ``LEADING_SOLUTION_LIMIT`` raises
    ``ConfigError`` before any block is solved; a block with no torus root
    gives none; a positive dimension raises ``NotZeroDimensionalError``
    naming the variables of every positive-dimensional block; a
    root not in radicals raises its block's ``ConfigError``.
    """
    # The blocks are the classes (``_classes``) of the variables 0..k-1 and
    # the polynomials, numbered from k, where a polynomial joins its variables.
    blocks = [([i for i in c if i < k], [i - k for i in c if i >= k])
              for c in _classes(k + len(polys), (
                  (k + n, i) for n, p in enumerate(polys)
                  for m in p for i, e in enumerate(m) if e))]
    if constants := [ns for vs, ns in blocks if not vs]:
        return [], 0, constants
    # Bezout: a block has at most the product of its len(vs) largest total
    # degrees of isolated roots.
    bound = 1
    for vs, ns in blocks:
        degrees = sorted((max(map(sum, polys[n])) for n in ns), reverse=True)
        bound *= math.prod(degrees[:len(vs)])
    if bound > LEADING_SOLUTION_LIMIT:
        raise ConfigError(
            f"the leading system may have up to {bound} solutions, above "
            f"LEADING_SOLUTION_LIMIT = {LEADING_SOLUTION_LIMIT}")
    outcomes = []
    for vs, ns in blocks:
        ps = [polys[n] for n in ns]
        outcomes.append(([], None) if not ps  # a variable in no polynomial
                        else _solve_univariate(vs[0], ps) if len(vs) == 1
                        else _solve_coupled(vs, ps))
    counts = [out if isinstance(out, ConfigError) else out[1]
              for out in outcomes]
    if 0 in counts:
        return [], 0, [ns for (_, ns), c in zip(blocks, counts) if c == 0]
    if None in counts:
        free = tuple(f"z{v + 1}" for v in sorted(
            v for (vs, _), c in zip(blocks, counts) if c is None for v in vs))
        raise NotZeroDimensionalError(
            f"leading system not zero-dimensional in {', '.join(free)}",
            variables=free)
    for c in counts:
        if isinstance(c, ConfigError):
            raise c
    where = [v for vs, _ in blocks for v in vs]
    rational = sorted(
        tuple(c for _, c in sorted(zip(where, itertools.chain(*combo))))
        for combo in itertools.product(*(roots for roots, _ in outcomes)))
    return rational, math.prod(counts) - len(rational), []


def _solve_coupled(variables: List[int], polys: List[Polynomial]):
    """Torus solutions of a block in two or more variables, by sympy's
    ``solve_poly_system``.

    Returns ``(rational, count)``: the rational solutions as tuples over
    ``variables`` and the number of solutions with no zero coordinate, or
    ``([], None)`` for a positive-dimensional block.  A block with a root
    that cannot be written in radicals returns a ``ConfigError``, since its
    solutions could be neither listed nor counted.
    """
    symbols = [sympy.Symbol(f"z{v + 1}") for v in variables]
    exprs = [sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                         * sympy.Mul(*(s ** m[v]
                                       for s, v in zip(symbols, variables)))
                         for m, c in p.items())) for p in polys]
    try:
        sols = solve_poly_system(exprs, *symbols, strict=True)
    except UnsolvableFactorError:
        return ConfigError(
            f"the roots of the leading block in "
            f"{', '.join(map(str, symbols))} cannot all be written in "
            f"radicals")
    except NotImplementedError:  # sympy's refusal of a positive dimension
        return [], None
    rational, count = [], 0
    for sol in sols or ():  # None: no solution at all
        if any(v.is_zero for v in sol):
            continue
        count += 1
        if all(v.is_rational for v in sol):
            rational.append(tuple(Fraction(q.p, q.q)
                                  for q in map(sympy.Rational, sol)))
    return rational, count


# -- one-variable blocks, on integers --------------------------------------
#
# A polynomial in one variable is a list of coefficients, lowest degree
# first, with a nonzero last entry; ``[]`` is zero.


def _solve_univariate(var: int, polys: List[Polynomial]):
    """Torus roots of polynomials in the one variable ``var``: the roots of
    their gcd.

    Returns ``(rational, count)``: the rational roots as 1-tuples and the
    number of distinct nonzero roots, which is the degree of the gcd's
    squarefree part once its factors of ``z`` are removed (0 when the gcd
    is constant).
    """
    g = None
    for p in polys:
        f = [Fraction(0)] * (1 + max(m[var] for m in p))
        for m, c in p.items():
            f[m[var]] = c
        g = f if g is None else _poly_gcd(g, f)
    while not g[0]:
        g = g[1:]
    squarefree = _poly_divmod(g, _poly_gcd(g, _derivative(g)))[0]
    # The primitive integer multiple of the squarefree part.
    scale = math.lcm(*(c.denominator for c in squarefree))
    ints = [int(c * scale) for c in squarefree]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    return [(r,) for r in _rational_roots(ints)], len(ints) - 1


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _poly_divmod(a, b):
    """Quotient and remainder of ``a`` by ``b`` over the rationals."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            r[i + j] -= c * bj
    r = r[:len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_gcd(a, b):
    """Monic gcd of two polynomials, not both zero."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _rational_roots(f: List[int]) -> List[Fraction]:
    """Rational roots of a squarefree integer polynomial with ``f[0] != 0``.

    By the rational-root theorem a root ``p/q`` in lowest terms has ``p``
    dividing ``f[0]`` and ``q`` dividing ``f[-1]``.  A fraction that small
    is fixed by its residue modulo any ``M > 2 |f[0] f[-1]|``, and rational
    reconstruction (the extended Euclidean algorithm stopped at the first
    remainder at most ``|f[0]|``) recovers it.  The residues come from the
    roots modulo a prime ``ell`` that divides neither ``f[-1]`` nor any
    ``f'(r)``, lifted to ``M`` by Newton's method; such a prime exists
    because ``f`` is squarefree.  So no integer is factored, and every
    candidate is checked exactly.
    """
    df = _derivative(f)

    def value(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    for ell in itertools.count(2):
        if f[-1] % ell == 0 or any(ell % d == 0
                                   for d in range(2, math.isqrt(ell) + 1)):
            continue
        residues = [r for r in range(ell) if value(f, r) % ell == 0]
        if all(value(df, r) % ell for r in residues):
            break
    modulus = ell
    while modulus <= 2 * abs(f[0] * f[-1]):
        modulus *= modulus
        residues = [(r - value(f, r) * pow(value(df, r), -1, modulus))
                    % modulus for r in residues]
    d = len(f) - 1
    roots = []
    for r in residues:
        a0, a1, b0, b1 = modulus, r, 0, 1
        while a1 > abs(f[0]):
            quo = a0 // a1
            a0, a1, b0, b1 = a1, a0 - quo * a1, b1, b0 - quo * b1
        if sum(c * a1 ** i * b1 ** (d - i) for i, c in enumerate(f)) == 0:
            roots.append(Fraction(a1, b1))
    return roots


def leading_solutions(W: LaurentPotential) -> List[UnitaryPoint]:
    """Rational solutions of the leading-order gradient system.

    The points are constant (order-zero) and sorted lexicographically by
    coordinate tuple; irrational branches are dropped, and
    ``truncation_obstruction`` counts them.  ``hensel_lift`` lifts a point.
    """
    return _solve_leading_system(W)[0]


# -- lifting -------------------------------------------------------------------


def _leading_matrix(matrix):
    """Lowest-valuation layer of a series matrix as exact constants.

    Returns ``(v0, rows)``, ``v0`` by ``novikov._least_valuation``, where
    entries with valuation above ``v0`` contribute zero.
    """
    v0 = _least_valuation(entry for row in matrix for entry in row)
    if v0 is INFINITY:
        return INFINITY, None
    rows = [[NovikovSeries.monomial(entry.coefficient(v0), 0)
             for entry in row] for row in matrix]
    return v0, rows


def hensel_lift(W: LaurentPotential, z0: UnitaryPoint,
                cfg: LiftConfig) -> CriticalCertificate:
    """Lift a leading-order solution to a critical point mod the target.

    ``z0`` is a ``UnitaryPoint`` or a sequence of its coordinates.

    Newton iteration: solve ``H(z) delta = -grad(z)`` and update
    ``z <- z * (1 + delta)`` componentwise.  Requires the Hessian at the
    seed to be invertible at leading order; the correction acquired over
    the seed has strictly positive valuation.  A target that leaves that
    layer unknown reads it off the seed's Hessian without a target.

    Precision doubles with the accuracy (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 9).  Let ``v0`` be the valuation of the leading
    Hessian, ``work = target + max(v0, 0)``, and ``eps = 1/D`` with ``D``
    the least common denominator of the exponents and the precisions of
    ``W``'s coefficients and the seed (the lcm of their ``integer_form[0]``),
    so that every exponent the loop meets is a multiple of ``eps``.  The
    precisions only make ``eps`` finer, which keeps the same terms: none
    lies strictly between two multiples of the exponents' own step.
    Step ``t`` evaluates the residual modulo ``T^p`` from the point's
    monomial table, with ``p = work`` at the first step.  A residual of
    valuation ``rv`` puts the point within relative order ``g = rv - v0``
    of the critical point, and the Newton update within ``2g``.  Only a
    residual that is not zero goes on to a solve, against the Hessian
    built from the same table modulo ``T^(v0 + h)``, ``h = min(g + eps, p
    - rv)``; the check that ends the loop builds no Hessian.  The step
    keeps the updated point's terms below ``min(work, 2g + eps)`` and
    asserts them exact modulo ``min(work, p - min(v0, 0))`` for the next
    ``p = min(work, v0 + 4g + eps)``: the residual modulo that ``p``
    fixes the next update below ``2g' + eps`` when ``g' = 2g``.  The
    residual's precision is absolute and the point's is relative to its
    valuation 0; a point error at ``T^x`` moves the residual at ``T^(v0 +
    x)``, so ``p - v0`` is enough, and at ``v0 >= 0`` the point is
    asserted modulo ``p`` itself.  A residual that is zero modulo a ``p``
    below ``min(work, p_W)`` is evaluated again at ``work``, and the loop
    stops only on a residual that is zero modulo ``T^min(work, p_W)``.
    The point claims no more than ``W`` fixes: a monomial has valuation 0
    on the unit torus, so ``W`` fixes the gradient, and the residual is
    cut, modulo ``T^p_W``, the least precision of a coefficient whose
    monomial is not constant (infinite for an exact ``W``); by
    ``dz = -H^-1 d(grad)`` the point is asserted modulo at most
    ``min(work, p_W - v0)``.

    Why the certificate is the one a loop at the full precision ``work``
    gives:

    * The solve's Hessian.  Its leading layer at ``v0`` is invertible, so
      ``H^-1`` has valuation ``-v0`` and the update ``delta = -H^-1 r``
      valuation at least ``g``.  An error ``E`` in ``H`` at ``T^(v0 + h)``
      changes ``H^-1`` by ``H^-1 E (H + E)^-1``, of valuation at least ``h
      - v0``, so it moves ``delta`` only at ``T^(g + h)`` (Caruso, Roe &
      Vaccon, ANTS XI, 2014): at ``T^(2g + eps)``, which the step
      truncates away, or at ``T^(p - v0)``, where the residual, known
      modulo ``T^p``, leaves ``delta`` unknown anyway.  Only a step capped
      at ``p = work``, or one after ``g`` more than doubled, has ``p - rv
      < g + eps``.  The pivots keep valuation ``v0 < v0 + h``, so the
      solve fails no more often than with the full Hessian.
    * Point, Hessian and determinant.  The final point is critical modulo
      ``T^min(work, p_W)`` and the leading Hessian is invertible, so by
      Hensel uniqueness it equals the full-precision loop's point modulo
      ``T^min(target, p_W - v0)``; ``certify_morse`` computes the Hessian
      and determinant from that truncated point alone.
    * ``residual_valuations``.  Let the kept point agree with the
      full-precision iterate beyond its accuracy ``g``.  A Newton step
      moves the two apart by no more than it moves either toward the
      critical point, so the updates agree beyond ``g'``, and truncating
      at ``2g + eps`` keeps that whenever ``g' <= 2g``.  The next residual
      then agrees with the full-precision one above its own valuation
      ``v0 + g'``: the truncation sits above what that residual can see.
      A step gains more than ``2g`` only if its order-``2g`` error
      cancels; the two loops may then record different valuations, while
      the point and certificate stay equal.  The chain families never
      cancel it.  A potential whose second and third log-derivatives agree
      at its critical point does, and the loop then lands on that point
      while ``p`` is below ``work``.
    * ``v0 < 0``.  The point stays asserted modulo at least ``2g + eps >
      0``, above its unit terms, and the final check at ``work`` asserts
      it modulo ``work``, as the full-precision loop holds it.

    A lift whose cost, read off ``W``, the seed and ``work``, exceeds
    ``LIFT_WORK_LIMIT`` raises ``ConfigError`` before the first step.
    """
    z0 = _as_point(z0, W.num_vars)
    target = cfg.target_precision
    try:
        v0, lead = _leading_matrix(W.log_jet(z0, target)[1])
    except PrecisionError:
        # The target is at or below the Hessian's leading layer.
        v0, lead = _leading_matrix(W.log_jet(z0)[1])
    if v0 is INFINITY or det_bareiss(lead).is_zero():
        raise NonMorseError("non-Morse: cannot lift")

    # Each Newton division costs the Hessian's leading valuation, so run
    # the loop that much above the target; the point then comes out known
    # modulo the target or W's cap.  Seed terms are taken at face value (finite
    # seed precision dropped): the iteration self-corrects anything above
    # the seed's accuracy, and the result is re-verified at the end.
    work = target + max(v0, 0)
    # Every exponent the loop meets is a multiple of eps.
    inputs = [c for _, c in W.items()] + list(z0)
    eps = Fraction(1, math.lcm(*(c.integer_form[0] for c in inputs)))
    cost = _lift_cost(W, z0, work, eps)
    if cost > LIFT_WORK_LIMIT:
        raise ConfigError(f"the lift to precision {target} costs {cost} "
                          f"units of work, above LIFT_WORK_LIMIT = "
                          f"{LIFT_WORK_LIMIT}")
    p_W = min((c.precision for m, c in W.items() if any(m)), default=INFINITY)
    cap = min(work, p_W - v0)
    z = [c.assume_precision(cap) for c in z0]
    p = work
    residual_vals = []
    bound = v0  # each residual valuation must pass v0 and the one before
    n = W.num_vars
    for _ in range(MAX_NEWTON_STEPS):
        _, table = W._monomial_table(z, p)
        residual = [r.truncate(p_W) for r in _table_gradient(table, n)]
        if p < min(work, p_W) and all(r.is_zero() for r in residual):
            # Zero below p says nothing about the orders up to work.
            p = work
            z = [c.assume_precision(cap) for c in z]
            continue
        rv = min(r.val_lower_bound() for r in residual)
        residual_vals.append(rv)
        if all(r.is_zero() for r in residual):
            break
        if rv <= bound:
            raise ObstructedError(f"obstructed at order {rv}", order=rv)
        bound = rv
        h_now = _table_hessian(table, n, min(rv + eps, v0 + p - rv))
        delta = solve_linear(h_now, [-r for r in residual])
        g = rv - v0
        keep = min(work, 2 * g + eps)
        p = min(work, v0 + 4 * g + eps)
        # p is absolute; the point's precision is relative to valuation 0.
        held = min(cap, p - min(v0, 0))
        z = [(z[i] * (NovikovSeries.one() + delta[i])).truncate(keep)
             .assume_precision(held) for i in range(n)]
    else:
        raise ObstructedError(f"obstructed at order {rv}: "
                              f"{MAX_NEWTON_STEPS} Newton steps exhausted "
                              "before reaching the target",
                              order=rv)

    z = [c.truncate(target) for c in z]
    point = UnitaryPoint(z)
    cert = certify_morse(W, point)
    return replace(cert, residual_valuations=tuple(residual_vals))


def _lift_cost(W: LaurentPotential, z0, work, eps) -> int:
    """The cost ``n (M + n^2) L^3`` that ``LIFT_WORK_LIMIT`` bounds, with
    ``L = ceil(work / g)`` and ``g`` the gcd of the differences of the
    exponents of ``W``'s coefficients and of the seed's own exponents, all of
    them multiples of ``eps = 1/D``.

    Every exponent the lift forms lies on ``g Z`` (the point's) or on
    ``b + g Z`` (the monomial table, gradient and Hessian), ``b`` any
    exponent of ``W``: products, inverses and the Hessian solve keep these
    cosets.  So a unitary coordinate has at most ``L`` terms below
    ``work``.  The precisions' denominators make ``eps`` finer but add no
    term, and ``g = 0`` (one exponent in ``W``, a constant seed) keeps the
    point constant: ``L = 1``.
    """
    n, coeffs, D = W.num_vars, [c for _, c in W.items()], eps.denominator

    def exponents(series):  # over D
        return [e * (D // de) for de, _, E, _ in
                (c.integer_form for c in series) for e in E]

    ws = exponents(coeffs)
    g = math.gcd(*(e - ws[0] for e in ws), *exponents(z0))
    points = math.ceil(work * D / g) if g else 1
    return n * (len(coeffs) + n * n) * points ** 3


def certify_morse(W: LaurentPotential, z) -> CriticalCertificate:
    """Check criticality and nondegeneracy of a point.

    The point is Morse when the gradient vanishes modulo the point's own
    precision and the Hessian determinant has a nonzero leading term.
    Failure is reported in the flag and reason string, never raised.
    Exact points are checked exactly.
    """
    return _certify(W, z)[0]


def _certify(W: LaurentPotential, z):
    """``(certificate, blocks)``: ``certify_morse``'s certificate and the
    blocks ``laurent._square`` read off its Hessian, the one reading of it,
    for a caller that goes on to trace the Hessian."""
    z = _as_point(z, W.num_vars)
    reasons = []
    residual, matrix = W.log_jet(z, z.precision())
    grad_ok = all(r.is_zero() for r in residual)
    if not grad_ok:
        bad = min(r.val_lower_bound() for r in residual if not r.is_zero())
        reasons.append(f"gradient does not vanish (residual valuation {bad})")

    rows, blocks = _square(matrix, "matrix")
    det = _det(rows, blocks)
    det_ok = not det.is_zero()
    if not det_ok:
        reasons.append("Hessian determinant vanishes to available precision")

    return CriticalCertificate(
        point=z,
        hessian_det=det,
        morse=grad_ok and det_ok,
        reason="; ".join(reasons),
        hessian=tuple(map(tuple, rows)),
    ), blocks
