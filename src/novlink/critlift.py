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
block in one variable is solved on integers: the roots of the gcd of its
polynomials, rational ones by the rational-root theorem, the distinct
nonzero ones counted by the degree of the squarefree part.  Only a block
that couples two or more variables goes to sympy's ``solve_poly_system``,
and one with a root not in radicals is refused with ``ConfigError``.
A system whose Bezout bound (the product of the blocks' bounds) exceeds
``LEADING_SOLUTION_LIMIT`` is refused with ``ConfigError`` up front.

Only rational leading solutions are lifted.  Branches whose leading
coordinates are algebraic but irrational are reported, never approximated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import sympy
from sympy.polys.polyerrors import UnsolvableFactorError
from sympy.solvers.polysys import solve_poly_system

from .errors import (
    ConfigError,
    ExtensionFieldError,
    NonMorseError,
    NotZeroDimensionalError,
    ObstructedError,
)
from .laurent import LaurentPotential, UnitaryPoint, det_bareiss, solve_linear
from .novikov import INFINITY, NovikovSeries, as_fraction, as_precision

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


@dataclass(frozen=True)
class LiftConfig:
    """Settings for the order-by-order lift.

    ``target_precision``: the lifted point satisfies the gradient system
    modulo ``T^target_precision``.
    """

    target_precision: Fraction

    def __post_init__(self):
        object.__setattr__(self, "target_precision",
                           as_fraction(self.target_precision))
        if self.target_precision <= 0:
            raise ConfigError("target_precision must be positive")


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
    reason: str = ""
    hessian: Optional[Tuple[Tuple[NovikovSeries, ...], ...]] = None
    residual_valuations: Tuple = ()

    def det_valuation(self):
        return self.hessian_det.valuation()


# -- leading-order system -----------------------------------------------------

#: A leading polynomial: ``{exponent vector: nonzero coefficient}``.
Polynomial = Dict[Tuple[int, ...], Fraction]


def _leading_polynomial(component: LaurentPotential) -> Polynomial:
    """Lowest-valuation layer of a gradient component as a polynomial.

    The monomial content is divided out (per-variable minimum exponent set
    to zero), which is harmless on the unit torus and keeps the system
    polynomial.  A coefficient known only as ``O(T^p)`` with ``p <= v``
    leaves layer ``v`` unknown and raises ``PrecisionError``.
    """
    v = component.min_coefficient_valuation()
    monos = [(m, coeff.leading_coefficient())
             for m, coeff in component.terms_through(v).items()]
    shift = [min(m[i] for m, _ in monos) for i in range(component.num_vars)]
    return {tuple(e - s for e, s in zip(m, shift)): c for m, c in monos}


def _solve_leading_system(W: LaurentPotential):
    """All torus solutions of the leading gradient system.

    Returns ``(rational_points, irrational_count)``.  Raises
    ``NotZeroDimensionalError`` when the solution set is not finite (this
    includes a gradient component that vanishes identically and a variable
    that no leading polynomial constrains), and ``ConfigError`` when the
    Bezout bound of the system exceeds ``LEADING_SOLUTION_LIMIT``.
    """
    grads = W.log_gradient()
    # A component whose coefficients are all zero modulo precision has no
    # known leading layer.
    if any(g.min_coefficient_valuation() is INFINITY for g in grads):
        raise NotZeroDimensionalError("leading system not zero-dimensional")
    polys = []
    for g in grads:
        poly = _leading_polynomial(g)
        if len(poly) == 1:
            # A gradient layer reduced to a nonzero constant: no unit zeros.
            return [], 0
        polys.append(poly)
    rational, irrational = _solve_polynomials(polys, W.num_vars)
    # Few distinct coordinates recur across the 2^k-style product.
    leads = {c: NovikovSeries.monomial(c, 0) for tup in rational for c in tup}
    points = [UnitaryPoint([leads[c] for c in tup]) for tup in rational]
    return points, irrational


def _solve_polynomials(polys: List[Polynomial], k: int):
    """Torus solutions of nonconstant polynomials in ``k`` variables.

    Returns ``(rational, irrational)``: the sorted tuples of the rational
    solutions with no zero coordinate, and the number of the other such
    solutions.  The polynomials split into blocks that share no variable,
    and the solutions are the product of the blocks' solutions.  A system
    with no solution at all (over the complex numbers) gives ``([], 0)``.
    A coupled block whose roots cannot all be written in radicals raises
    ``ConfigError``.
    """
    blocks = []  # (variables, ascending indices of their polynomials)
    for n, poly in enumerate(polys):
        variables = {i for m in poly for i, e in enumerate(m) if e}
        joined = [b for b in blocks if b[0] & variables]
        for b in joined:
            blocks.remove(b)
            variables |= b[0]
        blocks.append((variables,
                       sorted(i for b in joined for i in b[1]) + [n]))
    blocks = [(sorted(vs), [polys[i] for i in members])
              for vs, members in blocks]
    if sum(len(vs) for vs, _ in blocks) != k:
        raise NotZeroDimensionalError("leading system not zero-dimensional")
    bound = math.prod(_bezout_bound(len(vs), ps) for vs, ps in blocks)
    if bound > LEADING_SOLUTION_LIMIT:
        raise ConfigError(
            f"the leading system may have up to {bound} solutions, above "
            f"LEADING_SOLUTION_LIMIT = {LEADING_SOLUTION_LIMIT}")

    # A block with no solution settles the system even when another block
    # cannot be solved.
    solved, unsolved = [], None
    for vs, ps in blocks:
        try:
            solved.append((vs, _solve_univariate(vs[0], ps) if len(vs) == 1
                           else _solve_coupled(vs, ps)))
        except (NotZeroDimensionalError, ConfigError) as exc:
            unsolved = exc
    if any(sols is None for _, sols in solved):
        return [], 0
    if unsolved is not None:
        raise unsolved
    rational = []
    for combo in itertools.product(*(roots for _, (roots, _) in solved)):
        tup = [None] * k
        for (vs, _), values in zip(solved, combo):
            for v, c in zip(vs, values):
                tup[v] = c
        rational.append(tuple(tup))
    rational.sort()
    total = math.prod(count for _, (_, count) in solved)
    return rational, total - len(rational)


def _bezout_bound(n: int, polys: List[Polynomial]) -> int:
    """Product of the ``n`` largest total degrees: a bound on the isolated
    solutions of ``polys`` in ``n`` variables."""
    degrees = sorted((max(sum(m) for m in p) for p in polys), reverse=True)
    return math.prod(degrees[:n])


def _solve_coupled(variables: List[int], polys: List[Polynomial]):
    """Torus solutions of a block in two or more variables, by sympy's
    ``solve_poly_system``.

    Returns ``(rational, count)``: the rational solutions as tuples over
    ``variables`` and the number of solutions with no zero coordinate.
    ``None`` means the block has no solution at all.  A block with a root
    that cannot be written in radicals raises ``ConfigError``, since its
    solutions could be neither listed nor counted.
    """
    symbols = [sympy.Symbol(f"z{v + 1}") for v in variables]
    exprs = [sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                         * sympy.Mul(*(s ** m[v]
                                       for s, v in zip(symbols, variables)))
                         for m, c in p.items())) for p in polys]
    try:
        sols = solve_poly_system(exprs, *symbols, strict=True)
    except UnsolvableFactorError as exc:
        raise ConfigError(
            f"the roots of the leading block in "
            f"{', '.join(map(str, symbols))} cannot all be written in "
            f"radicals") from exc
    except NotImplementedError as exc:
        raise NotZeroDimensionalError(
            "leading system not zero-dimensional") from exc
    if sols is None:
        return None
    rational, count = [], 0
    for sol in sols:
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
    squarefree part once its factors of ``z`` are removed.  ``None`` means
    the gcd is constant, so the polynomials have no common root.
    """
    g = None
    for p in polys:
        f = [Fraction(0)] * (1 + max(m[var] for m in p))
        for m, c in p.items():
            f[m[var]] = c
        g = f if g is None else _poly_gcd(g, f)
    if len(g) == 1:
        return None
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
    coordinate tuple; irrational branches are dropped here (see
    ``lift_all`` for how they are surfaced).
    """
    points, _ = _solve_leading_system(W)
    return points


# -- lifting -------------------------------------------------------------------


def _leading_matrix(matrix):
    """Lowest-valuation layer of a series matrix as exact constants.

    Returns ``(v0, rows)`` where entries with valuation above ``v0``
    contribute zero.
    """
    v0 = INFINITY
    for row in matrix:
        for entry in row:
            v0 = min(v0, entry.val_lower_bound())
    if v0 is INFINITY:
        return INFINITY, None
    rows = [[NovikovSeries.monomial(entry.coefficient(v0), 0)
             for entry in row] for row in matrix]
    return v0, rows


def hensel_lift(W: LaurentPotential, z0: UnitaryPoint,
                cfg: LiftConfig) -> CriticalCertificate:
    """Lift a leading-order solution to a critical point mod the target.

    Newton iteration: solve ``H(z) delta = -grad(z)`` and update
    ``z <- z * (1 + delta)`` componentwise.  Requires the Hessian at the
    seed to be invertible at leading order; the correction acquired over
    the seed has strictly positive valuation.

    Precision doubles with the accuracy (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 9).  Let ``v0`` be the valuation of the leading
    Hessian, ``work = target + max(v0, 0)``, and ``eps = 1/D`` with ``D``
    the least common exponent denominator of ``W``'s coefficients and the
    seed, so that every exponent the loop meets is a multiple of ``eps``.
    Step ``t`` evaluates residual and Hessian modulo ``T^p``, with ``p =
    work`` at the first step.  A residual of valuation ``rv`` puts the
    point within relative order ``g = rv - v0`` of the critical point, and
    the Newton update within ``2g``.  The step keeps the updated point's
    terms below ``min(work, 2g + eps)`` and asserts them exact modulo the
    next ``p = min(work, v0 + 4g + eps)``: the residual modulo that ``p``
    fixes the next update below ``2g' + eps`` when ``g' = 2g``.  A residual
    that is zero modulo a ``p`` below ``work`` is evaluated again at
    ``work``, and the loop stops only on a residual that is zero modulo
    ``T^work``.

    Why the certificate is the one a loop at the full precision ``work``
    gives:

    * Point, Hessian and determinant.  The final point is critical modulo
      ``T^work`` and the leading Hessian is invertible, so by Hensel
      uniqueness it equals the full-precision loop's point modulo
      ``T^target``; ``certify_morse`` computes the Hessian and determinant
      from that truncated point alone.
    * ``residual_valuations``.  Let the kept point agree with the
      full-precision iterate beyond its accuracy ``g``.  A Newton step
      moves the two apart by no more than it moves either toward the
      critical point, so the updates agree beyond ``g'``, and truncating
      at ``2g + eps`` keeps that whenever ``g' <= 2g``.  The next residual
      then agrees with the full-precision one above its own valuation
      ``v0 + g'``: the truncation sits above what that residual can see.
      A step gains more than ``2g`` only if its order-``2g`` error
      cancels; that step may record a different valuation (never on the
      chain families of the tests), while the point and certificate stay
      equal.
    """
    if len(z0) != W.num_vars:
        raise ConfigError("seed point has the wrong number of coordinates")
    target = cfg.target_precision
    _, h_matrix = W.log_jet(z0, target)
    v0, lead = _leading_matrix(h_matrix)
    if v0 is INFINITY or det_bareiss(lead).is_zero():
        raise NonMorseError("non-Morse: cannot lift")

    # Each Newton division costs the Hessian's leading valuation, so run
    # the loop that much above the target; the point then comes out known
    # modulo the full target.  Seed terms are taken at face value (finite
    # seed precision dropped): the iteration self-corrects anything above
    # the seed's accuracy, and the result is re-verified at the end.
    work = target + max(v0, 0)
    # Every exponent the loop meets is a multiple of eps.
    inputs = [c for _, c in W.items()] + list(z0.coords)
    eps = Fraction(1, math.lcm(*(c.integer_form[0] for c in inputs)))
    z = [c.assume_precision(work) for c in z0.coords]
    p = work
    residual_vals = []
    prev_val = None
    for _ in range(MAX_NEWTON_STEPS):
        residual, h_now = W.log_jet(z, p)
        if p < work and all(r.is_zero() for r in residual):
            # Zero below p says nothing about the orders up to work.
            p = work
            z = [c.assume_precision(work) for c in z]
            residual, h_now = W.log_jet(z, p)
        rv = min(r.val_lower_bound() for r in residual)
        residual_vals.append(rv)
        if all(r.is_zero() for r in residual):
            break
        if rv <= v0:
            raise ObstructedError(f"obstructed at order {rv}", order=rv)
        if prev_val is not None and rv <= prev_val:
            raise ObstructedError(f"obstructed at order {rv}", order=rv)
        prev_val = rv
        delta = solve_linear(h_now, [-r for r in residual])
        g = rv - v0
        keep = min(work, 2 * g + eps)
        p = min(work, v0 + 4 * g + eps)
        z = [(z[i] * (NovikovSeries.one() + delta[i])).truncate(keep)
             .assume_precision(p) for i in range(len(z))]
    else:
        rv = residual_vals[-1] if residual_vals else None
        raise ObstructedError(f"obstructed at order {rv}: "
                              f"{MAX_NEWTON_STEPS} Newton steps exhausted "
                              "before reaching the target",
                              order=rv)

    z = [c.truncate(target) for c in z]
    point = UnitaryPoint(z)
    cert = certify_morse(W, point, target_precision=target)
    return replace(cert, residual_valuations=tuple(residual_vals))


def certify_morse(W: LaurentPotential, z, target_precision=None
                  ) -> CriticalCertificate:
    """Check criticality and nondegeneracy of a point.

    The point is Morse when the gradient vanishes modulo the working
    precision and the Hessian determinant has a nonzero leading term.
    Failure is reported in the flag and reason string, never raised.
    With no explicit target the point's own precision is used; exact
    points are checked exactly.
    """
    if not isinstance(z, UnitaryPoint):
        z = UnitaryPoint(z)
    if target_precision is None:
        prec = z.precision()
        target = None if prec is INFINITY else prec
    else:
        target = as_precision(target_precision)

    reasons = []
    residual, matrix = W.log_jet(z, target)
    grad_ok = all(r.is_zero() for r in residual)
    if not grad_ok:
        bad = min(r.val_lower_bound() for r in residual if not r.is_zero())
        reasons.append(f"gradient does not vanish (residual valuation {bad})")

    det = det_bareiss(matrix)
    det_ok = not det.is_zero()
    if not det_ok:
        reasons.append("Hessian determinant vanishes to available precision")

    return CriticalCertificate(
        point=z,
        hessian_det=det,
        morse=grad_ok and det_ok,
        reason="; ".join(reasons),
        hessian=tuple(tuple(row) for row in matrix),
    )


def lift_all(W: LaurentPotential, cfg: LiftConfig
             ) -> List[CriticalCertificate]:
    """Find and lift every rational leading branch of the potential.

    Raises ``ExtensionFieldError`` when the leading system has solutions
    but none with rational coordinates.
    """
    points, irrational = _solve_leading_system(W)
    if not points:
        if irrational:
            raise ExtensionFieldError(
                "requires extension field: leading solutions exist but "
                "none are rational")
        return []
    return [hensel_lift(W, p, cfg) for p in points]

