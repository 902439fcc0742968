"""Inputs and operations of the three benchmark workloads.

``build(name, seed, workdir)`` makes one workload's input set from its seed
and returns the operations of one pass, in the order a pass issues them.
Every library call goes through a module attribute (``critlift.hensel_lift``,
``cli.main``, ...) so that the traced run's patches are seen.

* ``weyl-scan``: ``novlink scan weyl`` through ``cli.main``, one call per
  ``k = 1..12`` on the paper's ``power`` schedule (beta 1, power 2, shift 2,
  c0 1).  The schedule is fixed by the paper; the seed only orders the calls.
* ``perturbed-lift``: chain links with ``A = 1/8``, ``B = 1/4`` for
  ``k = 2..6``, each with ``k`` extra monomials of valuation ``B + j/16``
  (``j = 1, 2, 3, 1, ...``).  Their exponent vectors in ``{-1, 0, 1}^k`` are
  a fixed template drawn from ``random.Random(1000 + k)``; the seed draws
  the signs of their unit coefficients.  One call is ``leading_solutions`` then
  ``hensel_lift`` to ``6B`` from the all-plus branch.
* ``symprod``: for ``k = 4, 8, ..., 32`` one call computes the ``k + 1``
  idempotents, eight idempotent products (six of them seeded) and the
  spectrum of the ``k``-fold sums of three seeded orbit actions; one more
  call runs ``novlink scan nobulk`` for ``k = 1..32``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

from novlink import cli, critlift, linkfam, spectrum, symprodqh
from novlink.laurent import LaurentPotential
from novlink.novikov import NovikovSeries

import checks

NAMES = ("weyl-scan", "perturbed-lift", "symprod")


@dataclass
class Op:
    """One closed-loop call: ``call()`` returns the output that
    ``encode`` turns into the bytes compared across passes."""

    label: str
    call: Callable[[], object]
    encode: Callable[[object], str]
    largest: bool = False


@dataclass
class Workload:
    ops: List[Op]
    warmup: Op
    # Maps the outputs of one pass (None where the call failed) to a list of
    # check failures; an empty list means every output passed.
    check: Callable[[list], List[str]]
    inputs: dict  # what the seed chose, printed with the result


def run_cli(argv: List[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"novlink {' '.join(argv)} exited {code}: "
                       f"{err.getvalue().strip()}")
    return out.getvalue()


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "weyl-scan":
        return _weyl_scan(seed, workdir)
    if name == "perturbed-lift":
        return _perturbed_lift(seed)
    if name == "symprod":
        return _symprod(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


# -- weyl-scan -------------------------------------------------------------

WEYL_K = range(1, 13)


def _weyl_scan(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ks = list(WEYL_K)
    rng.shuffle(ks)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k in ks:
        path = workdir / f"weyl-k{k}.json"
        path.write_text(json.dumps({
            "k_range": [k, k],
            "schedule": {"type": "power", "beta": "1", "power": 2,
                         "shift": 2},
            "c0": "1",
            "output_format": "csv",
        }))
        argv = ["scan", "weyl", "--config", str(path)]
        ops.append(Op(f"k={k}", lambda argv=argv: run_cli(argv), str,
                      largest=(k == max(WEYL_K))))

    def check(outputs):
        errors = []
        for k, text in zip(ks, outputs):
            if text is not None:
                errors += checks.weyl_table(text, k)
        return errors

    warm = next(op for op, k in zip(ops, ks) if k == min(WEYL_K))
    return Workload(ops, warm, check, {"k_order": ks})


# -- perturbed-lift --------------------------------------------------------

LIFT_K = range(2, 7)
LIFT_A = Fraction(1, 8)
LIFT_B = Fraction(1, 4)


def template_exponents(k: int) -> List[tuple]:
    """The fixed exponent vectors of the ``k`` extra monomials.

    They do not depend on the run's seed: the cost of a lift follows the
    support pattern and the size of the coefficients, so seeded supports
    or coefficient sizes would make the figures of different seeds
    incomparable.
    """
    rng = random.Random(1000 + k)
    out: List[tuple] = []
    while len(out) < k:
        m = tuple(rng.choice((-1, 0, 1)) for _ in range(k))
        if any(m) and m not in out:
            out.append(m)
    return out


def lift_terms(k: int, coeffs: List[Fraction]) -> List[tuple]:
    """Every monomial of the perturbed chain potential as ``(m, c, e)``.

    ``c0 = 1`` makes ``c^2 T^A = T^B``, so each of the ``2k`` chain terms is
    ``T^B`` times its monomial; the extras follow the template.
    """
    B = LIFT_B
    terms = []
    for i in range(k):
        e_i = tuple(1 if v == i else 0 for v in range(k))
        minus_i = tuple(-x for x in e_i)
        if i == 0:
            terms.append((e_i, Fraction(1), B))
        if i == k - 1:
            terms.append((minus_i, Fraction(1), B))
        if i < k - 1:
            terms.append((minus_i, Fraction(1), B))
        if i > 0:
            terms.append((e_i, Fraction(1), B))
    for i, (m, c) in enumerate(zip(template_exponents(k), coeffs)):
        terms.append((m, c, B + Fraction(1 + i % 3, 16)))
    return terms


def _lift(W, target):
    points = critlift.leading_solutions(W)
    plus = [p for p in points if all(c > 0 for c in p.leading_tuple())]
    if len(plus) != 1:
        raise ValueError(f"{len(plus)} all-plus leading points, expected 1")
    cert = critlift.hensel_lift(W, plus[0], critlift.LiftConfig(target))
    return len(points), cert


def _encode_lift(out) -> str:
    count, cert = out
    return json.dumps({
        "leading_points": count,
        "point": cert.point.to_obj(),
        "hessian": [[e.to_obj() for e in row] for row in cert.hessian],
        "hessian_det": cert.hessian_det.to_obj(),
        "morse": cert.morse,
        "reason": cert.reason,
        "residual_valuations": [str(v) for v in cert.residual_valuations],
    }, sort_keys=True)


def _perturbed_lift(seed: int) -> Workload:
    rng = random.Random(seed)
    target = 6 * LIFT_B
    ops, cases = [], []
    for k in LIFT_K:
        coeffs = [Fraction(rng.choice((-1, 1))) for _ in range(k)]
        terms = lift_terms(k, coeffs)
        extra = LaurentPotential(k, {m: NovikovSeries.monomial(c, e)
                                     for m, c, e in terms[2 * k:]})
        W = linkfam.build_chain_potential(
            linkfam.CircleLinkS2(k, LIFT_A, LIFT_B),
            linkfam.BulkParameter(1), extra)
        cases.append((k, terms))
        ops.append(Op(f"k={k}", lambda W=W: _lift(W, target), _encode_lift,
                      largest=(k == max(LIFT_K))))

    def check(outputs):
        errors = []
        for (k, terms), out in zip(cases, outputs):
            if out is not None:
                count, cert = out
                errors += checks.lift_certificate(k, LIFT_B, terms, target,
                                                  count, cert)
        return errors

    return Workload(ops, ops[0], check,
                    {"coefficients": [[str(c) for _, c, _ in t[2 * k:]]
                                      for k, t in cases]})


# -- symprod ---------------------------------------------------------------

SYM_K = range(4, 33, 4)
SYM_PAIRS = 8
# Distinct primes above max(SYM_K): no two k-fold sums of the orbit actions
# coincide, so the spectrum size, and with it the cost, is the same for
# every seed.
SYM_ORBIT_DENOMINATORS = (37, 41, 43)


def _symprod_rung(k, omega, pairs, orbits, cfg):
    idems = symprodqh.symk_idempotents(k, omega)
    products = [symprodqh.symk_multiply(idems[i], idems[j])
                for i, j in pairs]
    spec = spectrum.enumerate_spectrum(orbits, cfg)
    return idems, products, spec


def _encode_rung(out) -> str:
    idems, products, spec = out
    return json.dumps({
        "idempotents": [[c.to_obj() for c in e.coeffs] for e in idems],
        "products": [[c.to_obj() for c in p.coeffs] for p in products],
        "spectrum": [str(x) for x in spec],
    }, sort_keys=True)


def _symprod(seed: int) -> Workload:
    rng = random.Random(seed)
    omega = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2),
                        Fraction(3, 2), Fraction(2, 3)))
    values = [Fraction(rng.choice([n for n in range(-30, 31) if n]), q)
              for q in SYM_ORBIT_DENOMINATORS]
    g = Fraction(rng.randint(5, 20), rng.randint(1, 6))
    window = (-3 * g, 3 * g)
    orbits = spectrum.ModelOrbitSet(values)
    ops, rungs = [], []
    for k in SYM_K:
        # The middle idempotent has half its coefficients zero, so its
        # products cost half as much.  Every rung has the same two of them,
        # and the seeded pairs avoid it, so the seed does not move the cost.
        mid = k // 2
        others = [i for i in range(k + 1) if i != mid]
        i, j = rng.sample(others, 2)
        pairs = [(mid, mid), (mid, j), (i, i)]
        while len(pairs) < SYM_PAIRS:
            pairs.append(tuple(rng.sample(others, 2)))
        cfg = spectrum.SpectrumConfig(k, g, window)
        rungs.append((k, pairs))
        ops.append(Op(f"k={k}",
                      lambda k=k, pairs=pairs, cfg=cfg:
                      _symprod_rung(k, omega, pairs, orbits, cfg),
                      _encode_rung, largest=(k == max(SYM_K))))
    kmax = max(SYM_K)
    argv = ["scan", "nobulk", "--kmin", "1", "--kmax", str(kmax),
            "--omega", str(omega)]
    ops.append(Op("nobulk", lambda: run_cli(argv), str))
    rng.shuffle(ops)

    def check(outputs):
        errors = []
        by_label = dict(zip((op.label for op in ops), outputs))
        for k, pairs in rungs:
            out = by_label[f"k={k}"]
            if out is not None:
                idems, products, spec = out
                errors += checks.idempotents(idems, k, omega)
                errors += checks.idempotent_products(idems, pairs, products)
                errors += checks.spectrum(values, k, g, window, spec)
        if by_label["nobulk"] is not None:
            errors += checks.nobulk_table(by_label["nobulk"], kmax, omega)
        return errors

    warm = next(op for op in ops if op.label == f"k={min(SYM_K)}")
    return Workload(ops, warm, check,
                    {"omega": str(omega), "orbit_actions":
                     [str(v) for v in values], "pi_generator": str(g)})
