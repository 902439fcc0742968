"""Output checks of the benchmark, independent of the code they check.

Nothing here calls novlink or ``tests/oracles.py``: outputs are read through
their plain data (``terms``, ``precision``, ``coeffs``, rendered text) and
compared with values the mathematics forces or with a computation made
here with bare ``Fraction`` arithmetic.  Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence

Series = Dict[Fraction, Fraction]  # exponent -> nonzero coefficient


# -- rendered tables -------------------------------------------------------

def _table(text: str, columns: Sequence[str]) -> List[Dict[str, Fraction]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != list(columns):
        raise ValueError(f"header {rows[:1]} is not {list(columns)}")
    return [{c: Fraction(v) for c, v in zip(columns, row)} for row in rows[1:]]


WEYL_COLUMNS = ("k", "A", "B", "val_Z", "val_Z_over_k", "defect_bound")
NOBULK_COLUMNS = ("k", "idempotent_count", "val_e", "val_e_over_k")


def weyl_table(text: str, k: int) -> List[str]:
    """One ``scan weyl`` row on the power schedule (beta 1, power 2, shift 2).

    ``B = 1/(k+2)^2``, ``A = B/2``; the trace valuation is ``k B``.
    """
    try:
        rows = _table(text, WEYL_COLUMNS)
    except ValueError as exc:
        return [f"weyl k={k}: {exc}"]
    B = Fraction(1, (k + 2) ** 2)
    want = {"k": k, "A": B / 2, "B": B, "val_Z": k * B,
            "val_Z_over_k": B, "defect_bound": k * B}
    if len(rows) != 1:
        return [f"weyl k={k}: {len(rows)} rows, expected 1"]
    return [f"weyl k={k}: {c} = {rows[0][c]}, expected {v}"
            for c, v in want.items() if rows[0][c] != v]


def nobulk_table(text: str, kmax: int, omega: Fraction) -> List[str]:
    """``scan nobulk`` for ``k = 1..kmax``: ``k + 1`` idempotents of
    valuation ``-k omega / 2``."""
    try:
        rows = _table(text, NOBULK_COLUMNS)
    except ValueError as exc:
        return [f"nobulk: {exc}"]
    want = [{"k": k, "idempotent_count": k + 1, "val_e": -k * omega / 2,
             "val_e_over_k": -omega / 2} for k in range(1, kmax + 1)]
    if rows != want:
        return [f"nobulk: table {rows} differs from {want}"]
    return []


# -- truncated series with bare Fractions ------------------------------------

def _series(x) -> Series:
    return {e: c for e, c in x.terms}


def _mul(a: Series, b: Series, prec: Fraction) -> Series:
    out: Series = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < prec:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _inverse(a: Series, prec: Fraction) -> Series:
    """``1/a`` modulo ``T^prec`` for a unit ``a`` (valuation 0), by the
    geometric series of ``a = a0 (1 + t)``."""
    a0 = a[Fraction(0)]
    minus_t = {e: -c / a0 for e, c in a.items() if e != 0}
    total: Series = {Fraction(0): Fraction(1)}
    power: Series = {Fraction(0): Fraction(1)}
    while power:
        power = _mul(power, minus_t, prec)
        for e, c in power.items():
            total[e] = total.get(e, 0) + c
    return {e: c / a0 for e, c in total.items() if c}


def _log_gradient(terms, coords: List[Series], prec: Fraction
                  ) -> List[Series]:
    """``z_i d/dz_i W`` at ``coords`` modulo ``T^prec``, monomial by
    monomial, for ``W = sum c T^e z^m`` given as ``(m, c, e)`` triples."""
    k = len(coords)
    inverses = [_inverse(z, prec) for z in coords]
    grad: List[Series] = [{} for _ in range(k)]
    for m, c, e in terms:
        value: Series = {e: c} if e < prec else {}
        for v, power in enumerate(m):
            factor = coords[v] if power > 0 else inverses[v]
            for _ in range(abs(power)):
                value = _mul(value, factor, prec)
        for i in range(k):
            if m[i]:
                for ex, cx in value.items():
                    grad[i][ex] = grad[i].get(ex, 0) + m[i] * cx
    return [{e: c for e, c in g.items() if c} for g in grad]


def lift_certificate(k: int, B: Fraction, terms, target: Fraction,
                     leading_points: int, cert) -> List[str]:
    """A lifted perturbed chain point from the all-plus branch.

    Every certificate is Morse, the leading system has its ``2^k`` sign
    branches, residual valuations strictly increase, the Hessian
    determinant has valuation ``k B``, and each coordinate is
    ``1 + O(T^>0)`` known to the target.  The log-gradient, evaluated here,
    vanishes modulo ``T^target`` and further modulo ``T^(target + v)``,
    ``v`` the least coefficient valuation: a point right modulo
    ``T^target`` must reach that far, so a coordinate wrong below the
    target is caught too.
    """
    errors = []
    tag = f"lift k={k}"
    if not cert.morse:
        errors.append(f"{tag}: not Morse ({cert.reason})")
    if leading_points != 2 ** k:
        errors.append(f"{tag}: {leading_points} leading points, "
                      f"expected {2 ** k}")
    rv = list(cert.residual_valuations)
    if not rv or any(b <= a for a, b in zip(rv, rv[1:])):
        errors.append(f"{tag}: residual valuations {rv} not increasing")
    if cert.det_valuation() != k * B:
        errors.append(f"{tag}: det valuation {cert.det_valuation()}, "
                      f"expected {k * B}")
    coords = []
    for i, z in enumerate(cert.point):
        s = _series(z)
        if s.get(Fraction(0)) != 1 or min(s) != 0:
            errors.append(f"{tag}: coordinate {i} does not start 1 + ...")
            return errors
        if not z.precision >= target:
            errors.append(f"{tag}: coordinate {i} known only to "
                          f"T^{z.precision} < T^{target}")
        coords.append(s)
    reach = target + min(e for _, _, e in terms)
    for i, g in enumerate(_log_gradient(terms, coords, reach)):
        if g:
            errors.append(f"{tag}: gradient {i} has valuation {min(g)} "
                          f"< {reach}")
    return errors


# -- symmetric products and spectra ------------------------------------------

def idempotents(idems, k: int, omega: Fraction) -> List[str]:
    """The ``k + 1`` idempotents are exact, sum to the unit ``m_0`` and
    each has valuation ``-k omega / 2``."""
    tag = f"idempotents k={k}"
    if len(idems) != k + 1:
        return [f"{tag}: {len(idems)} elements, expected {k + 1}"]
    errors = []
    total: List[Series] = [{} for _ in range(k + 1)]
    for j, e in enumerate(idems):
        if (len(e.coeffs) != k + 1
                or not all(c.is_exact() for c in e.coeffs)):
            errors.append(f"{tag}: e[{j}] is not an exact element of rank "
                          f"{k + 1}")
            continue
        exps = [x for c in e.coeffs for x, _ in c.terms]
        if not exps or min(exps) != -k * omega / 2:
            errors.append(f"{tag}: e[{j}] valuation "
                          f"{min(exps) if exps else 'inf'}, expected "
                          f"{-k * omega / 2}")
        for w, c in enumerate(e.coeffs):
            for x, a in c.terms:
                total[w][x] = total[w].get(x, 0) + a
    total = [{x: a for x, a in s.items() if a} for s in total]
    unit = [{Fraction(0): Fraction(1)}] + [{} for _ in range(k)]
    if total != unit:
        errors.append(f"{tag}: idempotents do not sum to 1")
    return errors


def idempotent_products(idems, pairs, products) -> List[str]:
    """``e_i e_j`` is ``e_i`` when ``i = j`` and exactly zero otherwise."""
    errors = []
    for (i, j), p in zip(pairs, products):
        got = [(c.terms, c.is_exact()) for c in p.coeffs]
        if i == j:
            want = [(c.terms, c.is_exact()) for c in idems[i].coeffs]
        else:
            want = [((), True)] * len(idems[i].coeffs)
        if got != want:
            errors.append(f"product e[{i}] e[{j}] is not "
                          f"{'e[%d]' % i if i == j else 'exactly 0'}")
    return errors


def spectrum(values, k: int, g: Fraction, window, spec) -> List[str]:
    """Brute force: every multiset of ``k`` orbit actions, translated by
    the multiples of ``g`` that land in the window."""
    lo, hi = window
    points = set()
    for multiset in itertools.combinations_with_replacement(values, k):
        base = sum(multiset, Fraction(0))
        n = math.ceil((lo - base) / g)
        while base + n * g <= hi:
            points.add(base + n * g)
            n += 1
    want = sorted(points)
    if list(spec) != want:
        return [f"spectrum k={k}: {len(spec)} points differ from the "
                f"{len(want)} of the brute-force enumeration"]
    return []
