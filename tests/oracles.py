"""Independent oracles used to cross-check the library implementations.

Everything here deliberately avoids the code path it verifies:

* ``det_minor_expansion``: division-free cofactor determinant (checks the
  Bareiss route);
* ``long_divide``: schoolbook long division on Fraction dicts (checks the
  series quotient, precision included);
* ``series_product`` and ``series_sum``: term-by-term arithmetic on
  ``{exponent: coefficient}`` Fraction dicts, the adic precision rule
  written out (checks the integer-form series arithmetic);
* ``evaluate_dual``: first-order dual-number evaluation (checks symbolic
  multiplicative gradients);
* ``one_exponent_lift``: kill the residual one exponent layer at a time
  with a constant leading Hessian (checks Newton lifting);
* ``full_precision_lift``: the Newton loop with every step at the full
  working precision (checks the doubling-precision ``hensel_lift``
  certificate by certificate, residual valuations and errors included);
* ``tensor_multiply`` and friends: full tensor-basis arithmetic with
  explicit arrangements (checks the symmetric structure constants);
* ``symk_idempotents_triple_sum``: the idempotents' closed-form triple sum
  (checks the column recurrence);
* ``spectrum_brute_force``: every multiset of values walked along the
  lattice (checks the integer spectrum);
* ``trace_with_conventions``: the Clifford trace with the calibration
  constants left free (pins down the frozen ones).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from math import comb

from novlink.cliffordtrace import CliffordAlgebraModel, clifford_product, poincare_pairing
from novlink.critlift import MAX_NEWTON_STEPS, certify_morse
from novlink.errors import (
    ConfigError,
    InexactDivisionError,
    NonMorseError,
    NotInvertibleError,
    ObstructedError,
)
from novlink.laurent import LaurentPotential, UnitaryPoint, det_bareiss, solve_linear
from novlink.novikov import INFINITY, NovikovSeries


# -- determinants -------------------------------------------------------------


def det_minor_expansion(matrix):
    """Division-free determinant over the top-rows/column-subsets lattice."""
    n = len(matrix)
    if n == 0:
        return NovikovSeries.one()
    memo = {(): NovikovSeries.one()}

    def minor(cols):
        got = memo.get(cols)
        if got is not None:
            return got
        r = len(cols) - 1
        acc = NovikovSeries.zero()
        for i, c in enumerate(cols):
            entry = matrix[r][c]
            if entry.is_zero() and entry.precision is INFINITY:
                continue
            sub = minor(tuple(x for x in cols if x != c))
            term = entry * sub
            acc = acc + (term if (r + i) % 2 == 0 else -term)
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


# -- long division -------------------------------------------------------------


def long_divide(a, b):
    """Quotient ``a / b`` one term at a time, on a Fraction remainder dict.

    The quotient is known to ``val(a) - val(b) + min(relprec(a),
    relprec(b))``.  With both operands exact it has to be a finite sum: a
    quotient term past ``top(a) - top(b)`` raises ``InexactDivisionError``.
    """
    if not b.terms:
        raise NotInvertibleError("divisor is zero modulo its precision")
    vb, lead = b.terms[0]
    if not a.terms:
        return NovikovSeries.zero(INFINITY if a.is_exact()
                                  else a.precision - vb)
    va = a.terms[0][0]
    rels = [x.precision - x.terms[0][0] for x in (a, b) if not x.is_exact()]
    qprec = va - vb + min(rels) if rels else INFINITY
    qtop = a.terms[-1][0] - b.terms[-1][0]
    rem = dict(a.terms)
    quotient = []
    while rem:
        e = min(rem) - vb
        if qprec is not INFINITY and e >= qprec:
            break
        if qprec is INFINITY and e > qtop:
            raise InexactDivisionError("exact quotient is not a finite sum")
        q = rem[e + vb] / lead
        quotient.append((q, e))
        for be, bc in b.terms:
            x = be + e
            c = rem.get(x, 0) - q * bc
            if c:
                rem[x] = c
            else:
                rem.pop(x, None)
    return NovikovSeries(quotient, qprec)


# -- products and sums -----------------------------------------------------------


def _dict_and_precision(x):
    """``({exponent: coefficient}, precision)`` with ``None`` for an exact
    series, read off the public ``terms`` and ``precision``."""
    return dict(x.terms), None if x.precision is INFINITY else x.precision


def _series_from_dict(terms, prec):
    """The result: nonzero terms below ``prec`` (``None``: exact)."""
    kept = [(c, e) for e, c in sorted(terms.items())
            if c != 0 and (prec is None or e < prec)]
    return NovikovSeries(kept, INFINITY if prec is None else prec)


def series_product(x, y):
    """``x * y`` by the schoolbook double sum over Fraction dicts.

    With ``p`` a precision (``None`` when exact) and ``v`` the valuation,
    or the precision for a term-free operand, the product is known modulo
    ``T^min(p_x + v_y, p_y + v_x)``, a ``None`` summand dropping its
    candidate; no candidate left means the product is exact.
    """
    tx, px = _dict_and_precision(x)
    ty, py = _dict_and_precision(y)
    vx = min(tx) if tx else px
    vy = min(ty) if ty else py
    bounds = [p + v for p, v in ((px, vy), (py, vx))
              if p is not None and v is not None]
    out = {}
    for ex, cx in tx.items():
        for ey, cy in ty.items():
            out[ex + ey] = out.get(ex + ey, 0) + cx * cy
    return _series_from_dict(out, min(bounds) if bounds else None)


def series_sum(x, y, sign=1):
    """``x + sign * y`` over Fraction dicts, known modulo the lesser of the
    two precisions (exact when both are)."""
    tx, px = _dict_and_precision(x)
    ty, py = _dict_and_precision(y)
    out = dict(tx)
    for e, c in ty.items():
        out[e] = out.get(e, 0) + sign * c
    finite = [p for p in (px, py) if p is not None]
    return _series_from_dict(out, min(finite) if finite else None)


# -- dual numbers --------------------------------------------------------------


class Dual:
    """First-order jet ``a + b*eps`` with ``eps^2 = 0`` over the series field."""

    def __init__(self, a, b):
        self.a = NovikovSeries.from_scalar(a)
        self.b = NovikovSeries.from_scalar(b)

    def __add__(self, other):
        return Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def inverse(self, target):
        ai = self.a.invert(target)
        return Dual(ai, -(ai * ai * self.b))

    def power(self, n, target):
        base = self if n >= 0 else self.inverse(target)
        out = Dual(NovikovSeries.one(), NovikovSeries.zero())
        for _ in range(abs(n)):
            out = out * base
        return out


def evaluate_dual(W: LaurentPotential, coords, direction: int, target):
    """Evaluate along ``z -> z * (1 + eps)`` in one coordinate.

    Returns ``(value, derivative)``: the eps-part is the multiplicative
    partial derivative at the point, computed without symbolic
    differentiation.
    """
    duals = []
    for i, c in enumerate(coords):
        b = c if i == direction else NovikovSeries.zero()
        duals.append(Dual(c, b))
    total = Dual(NovikovSeries.zero(), NovikovSeries.zero())
    for m, coeff in W.items():
        term = Dual(coeff, NovikovSeries.zero())
        for i, e in enumerate(m):
            if e:
                term = term * duals[i].power(e, target)
        total = total + term
    return total.a.truncate(target), total.b.truncate(target)


# -- one-exponent-at-a-time lifting --------------------------------------------


def _solve_rational(matrix, rhs):
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            if any(a[i][n] != 0 for i in range(k, n)):
                return None
            continue
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n + 1):
                a[i][j] -= f * a[k][j]
    xs = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        if a[k][k] == 0:
            if a[k][n] != 0:
                return None
            continue
        acc = a[k][n]
        for j in range(k + 1, n):
            acc -= a[k][j] * xs[j]
        xs[k] = acc / a[k][k]
    return xs


def one_exponent_lift(W: LaurentPotential, z0: UnitaryPoint, target):
    """Brute-force lift: cancel the lowest residual exponent per pass.

    Uses only the constant leading Hessian at the seed; every pass solves
    one rational linear system and multiplies in a single-exponent
    correction.  Raises ``ObstructedError`` when the leading layer of the
    residual is not in the image of the leading Hessian.
    """
    grads = W.log_gradient()
    hess = W.log_hessian()
    h_at = [[entry.evaluate(z0, target) for entry in row] for row in hess]
    v0 = min(e.val_lower_bound() for row in h_at for e in row)
    H0 = [[e.coefficient(v0) for e in row] for row in h_at]

    # Clearing the residual up to target + v0 pins the point mod target.
    work = target + max(v0, 0)
    z = [c.assume_precision(work) for c in z0.coords]
    for _ in range(10_000):
        residual = [g.evaluate(z, work) for g in grads]
        live = [r for r in residual if not r.is_zero()]
        if not live:
            return UnitaryPoint([c.truncate(target) for c in z])
        e = min(r.valuation() for r in live)
        layer = [-r.coefficient(e) for r in residual]
        x = _solve_rational(H0, layer)
        if x is None:
            raise ObstructedError(f"obstructed at order {e}", order=e)
        for i in range(len(z)):
            if x[i]:
                bump = NovikovSeries.one() + NovikovSeries.monomial(
                    x[i], e - v0)
                z[i] = (z[i] * bump).truncate(work)
    raise AssertionError("one_exponent_lift failed to terminate")


def full_precision_lift(W: LaurentPotential, z0: UnitaryPoint, target):
    """Newton lift with every step at the full working precision.

    The loop ``hensel_lift`` ran before it lifted at doubling precision:
    each step evaluates the residual and Hessian modulo ``work = target +
    max(v0, 0)``, solves ``H delta = -grad`` and keeps the whole updated
    point.  Same checks, same errors, same certificate.
    """
    if len(z0) != W.num_vars:
        raise ConfigError("seed point has the wrong number of coordinates")
    _, h_matrix = W.log_jet(z0, target)
    v0 = INFINITY
    for row in h_matrix:
        for entry in row:
            v0 = min(v0, entry.val_lower_bound())
    if v0 is INFINITY or det_bareiss(
            [[NovikovSeries.monomial(e.coefficient(v0), 0) for e in row]
             for row in h_matrix]).is_zero():
        raise NonMorseError("non-Morse: cannot lift")

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

    point = UnitaryPoint([c.truncate(target) for c in z])
    cert = certify_morse(W, point, target_precision=target)
    return replace(cert, residual_valuations=tuple(residual_vals))


# -- tensor-basis arithmetic ----------------------------------------------------


def sym_to_tensor(x):
    """Expand a symmetric element into the full ``2^k`` arrangement basis.

    An arrangement is the bitmask of the slots holding ``H``.  Only exact
    zeros are left out: an ``O(T^p)`` coefficient still carries precision.
    """
    out = {}
    for j, coeff in enumerate(x.coeffs):
        if coeff.is_zero() and coeff.is_exact():
            continue
        for S in itertools.combinations(range(x.k), j):
            out[sum(1 << s for s in S)] = coeff
    return out


def tensor_multiply(t1, t2, omega):
    """Slotwise product: overlapping quantum factors square to ``T^omega``.

    ``weighted[S2][n]`` is ``c2 * T^(n*omega)`` for every overlap size ``n``
    the arrangement ``S2`` allows, so each pair costs one series product.
    """
    weighted = {S2: [c2 * NovikovSeries.monomial(1, omega * n)
                     for n in range(S2.bit_count() + 1)]
                for S2, c2 in t2.items()}
    out = {}
    for S1, c1 in t1.items():
        for S2, w2 in weighted.items():
            key = S1 ^ S2
            term = c1 * w2[(S1 & S2).bit_count()]
            cur = out.get(key)
            val = term if cur is None else cur + term
            if val.is_zero() and val.is_exact():
                out.pop(key, None)
            else:
                out[key] = val
    return out


def tensor_to_sym(t, k, omega):
    """Collapse a symmetric tensor element back to the monomial basis.

    Asserts that every size present has all ``C(k, j)`` arrangements and
    that they carry the same coefficient, i.e. that the input really is
    invariant.
    """
    from novlink.symprodqh import SymQHElement

    coeffs = [NovikovSeries.zero()] * (k + 1)
    seen = {}
    count = [0] * (k + 1)
    for S, c in t.items():
        j = S.bit_count()
        count[j] += 1
        if j in seen:
            assert seen[j] == c, "tensor element is not symmetric"
        else:
            seen[j] = c
            coeffs[j] = c
    assert all(count[j] == comb(k, j) for j in seen), \
        "tensor element is not symmetric"
    return SymQHElement(k, omega, coeffs)


def symk_idempotents_triple_sum(k, omega):
    """Coefficient lists of the ``k + 1`` idempotents from the closed form

        ``E_j = 2^-k sum_w alpha_{j,w} T^(-w*omega/2) m_w``,
        ``alpha_{j,w} = sum_t (-1)^(w-t) C(w, t) C(k-w, j-t)``.
    """
    out = []
    for j in range(k + 1):
        coeffs = []
        for w in range(k + 1):
            alpha = sum((-1) ** (w - t) * comb(w, t) * comb(k - w, j - t)
                        for t in range(min(w, j) + 1))
            coeffs.append(NovikovSeries.monomial(Fraction(alpha, 2 ** k),
                                                 -w * omega / 2)
                          if alpha else NovikovSeries.zero())
        out.append(coeffs)
    return out


# -- spectra -------------------------------------------------------------------


def spectrum_brute_force(values, k, g, lo, hi):
    """Every ``k``-fold sum of the values, walked along the lattice ``g Z``
    through the window ``[lo, hi]``, in plain Fraction arithmetic."""
    out = set()
    for combo in itertools.combinations_with_replacement(values, k):
        x = sum(combo, Fraction(0))
        while x >= lo:
            x -= g
        while x <= hi:
            if x >= lo:
                out.add(x)
            x += g
    return sorted(out)


# -- Clifford trace with free conventions ---------------------------------------


def trace_with_conventions(form, kappa, parity_twist, quadratic_twist):
    """The volume trace with the calibration constants left adjustable.

    ``parity_twist`` toggles the ``(-1)^{|I|}`` carried by the inverse
    pairing matrix; ``quadratic_twist`` toggles its ``(-1)^{n(n-1)/2}``.
    The algebra of ``kappa * form`` obeys ``e_i e_j + e_j e_i = kappa *
    form[i][j]``.
    """
    alg = CliffordAlgebraModel([[kappa * x for x in row] for row in form])
    n = alg.n
    full = tuple(range(1, n + 1))
    vol = alg.vol
    total = NovikovSeries.zero()
    for I in alg.subsets():
        J = tuple(sorted(set(full) - set(I)))
        ginv = alg.pairing_sign(J, I)
        if parity_twist:
            ginv *= -1 if len(I) % 2 else 1
        if quadratic_twist:
            ginv *= -1 if ((n * (n - 1)) // 2) % 2 else 1
        sign = (-1 if len(I) % 2 else 1) * ginv
        bracket = poincare_pairing(
            alg,
            clifford_product(alg, alg.basis_element(I), vol),
            clifford_product(alg, alg.basis_element(J), vol))
        total = total + (bracket if sign == 1 else -bracket)
    return total
