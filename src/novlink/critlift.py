"""Critical points of Laurent potentials by leading-order solving and lifting.

The workflow: extract the lowest-valuation layer of the multiplicative
gradient system, solve it over the rationals (a zero-dimensional polynomial
system), then push each rational leading solution up order by order in the
exponent filtration.  Lifting uses Newton iteration over the series field:
each step solves one linear system against the current Hessian with exact
rational arithmetic, and the residual valuation climbs quadratically.

Only rational leading solutions are lifted.  Branches whose leading
coordinates are algebraic but irrational are reported, never approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

import sympy
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


def _leading_polynomial(component: LaurentPotential, symbols):
    """Lowest-valuation layer of a gradient component as a sympy expression.

    The monomial content is divided out (per-variable minimum exponent set
    to zero), which is harmless on the unit torus and keeps the system
    polynomial.  A coefficient known only as ``O(T^p)`` with ``p <= v``
    leaves layer ``v`` unknown and raises ``PrecisionError``.
    """
    v = component.min_coefficient_valuation()
    monos = [(m, coeff.leading_coefficient())
             for m, coeff in component.terms_through(v).items()]
    shift = [min(m[i] for m, _ in monos) for i in range(component.num_vars)]
    expr = sympy.Integer(0)
    for m, c in monos:
        term = sympy.Rational(c.numerator, c.denominator)
        for i, e in enumerate(m):
            ee = e - shift[i]
            if ee:
                term *= symbols[i] ** ee
        expr += term
    return sympy.expand(expr), v


def _solve_leading_system(W: LaurentPotential):
    """All torus solutions of the leading gradient system.

    Returns ``(rational_points, irrational_count)``.  Raises
    ``NotZeroDimensionalError`` when the solution set is not finite (this
    includes a gradient component that vanishes identically and a variable
    that no leading polynomial constrains).
    """
    k = W.num_vars
    grads = W.log_gradient()
    # A component whose coefficients are all zero modulo precision has no
    # known leading layer.
    if any(g.min_coefficient_valuation() is INFINITY for g in grads):
        raise NotZeroDimensionalError("leading system not zero-dimensional")
    symbols = sympy.symbols(f"z1:{k + 1}")
    polys = []
    for g in grads:
        expr, _ = _leading_polynomial(g, symbols)
        if expr.is_number:
            # A gradient layer reduced to a nonzero constant: no unit zeros.
            return [], 0
        polys.append(expr)
    used = set()
    for p in polys:
        used.update(p.free_symbols)
    if used != set(symbols):
        raise NotZeroDimensionalError("leading system not zero-dimensional")
    try:
        sols = solve_poly_system(polys, *symbols)
    except NotImplementedError as exc:
        raise NotZeroDimensionalError(
            "leading system not zero-dimensional") from exc
    rational: List[Tuple[Fraction, ...]] = []
    irrational = 0
    for sol in sols:
        if any(v.is_zero for v in sol):
            continue
        if all(v.is_rational for v in sol):
            rational.append(tuple(Fraction(q.p, q.q)
                                  for q in map(sympy.Rational, sol)))
        else:
            irrational += 1
    rational.sort()
    points = [UnitaryPoint([NovikovSeries.monomial(c, 0) for c in tup])
              for tup in rational]
    return points, irrational


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
    z = [c.assume_precision(work) for c in z0.coords]
    residual_vals = []
    prev_val = None
    for _ in range(MAX_NEWTON_STEPS):
        residual, h_now = W.log_jet(z, work)
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
        z = [(z[i] * (NovikovSeries.one() + delta[i])).truncate(work)
             for i in range(len(z))]
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

