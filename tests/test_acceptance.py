"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every check is exact rational equality unless stated otherwise; no
tolerances are involved anywhere.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

from novlink.cliffordtrace import KAPPA, trace_Z
from novlink.critlift import LiftConfig, hensel_lift
from novlink.errors import SubadditivityError
from novlink.harness import AreaSchedule
from novlink.laurent import LaurentPotential, UnitaryPoint, det_bareiss
from novlink.linkfam import (
    BulkParameter,
    CircleLinkS2,
    build_chain_potential,
    critical_data,
    truncation_obstruction,
)
from novlink.novikov import NovikovSeries
from novlink.spectrum import (
    ModelOrbitSet,
    SpectrumConfig,
    enumerate_spectrum,
    fekete_homogenize,
    rigidity_check,
)
from novlink.symprodqh import SymQHElement, symk_idempotents, symk_multiply

from oracles import (
    int_tensor,
    int_tensor_multiply,
    one_exponent_lift,
    sym_to_tensor,
    trace_with_conventions,
)


def _verdict(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problem(s))"
    print(f"[acceptance] criterion {num} - {name}: {status}")
    for f in failures[:10]:
        print(f"    {f}")
    assert not failures, f"criterion {num} failed: {failures[:10]}"


def test_criterion_1_chain_hessian_valuation():
    """val(det Hess) = k * B_k for the decaying disc-area schedule."""
    failures = []
    schedule = AreaSchedule(kind="power", beta=F(1), power=2, shift=2)
    for k in range(1, 13):
        started = time.monotonic()
        link = schedule.link(k)
        assert link.B == F(1, (k + 2) ** 2)
        cert = critical_data(link, BulkParameter(F(1)))
        elapsed = time.monotonic() - started
        if not cert.morse:
            failures.append(f"k={k}: not Morse ({cert.reason})")
        if cert.det_valuation() != k * link.B:
            failures.append(f"k={k}: val {cert.det_valuation()} != "
                            f"{k * link.B}")
        if elapsed >= 1.0:
            failures.append(f"k={k}: took {elapsed:.2f}s")
    _verdict(1, "chain-link Hessian valuation k*B_k", failures)


def criterion_2_cases():
    """Criterion 2's forms as ``(n, diagonal, form)``: ten diagonal forms
    of each rank 1..5, then five dense ones of each rank 2..5."""
    rng = random.Random(2024)

    def random_form(n, diagonal):
        form = [[NovikovSeries.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if diagonal and i != j:
                    continue
                pairs = [(F(rng.randint(-6, 6) or 2, rng.randint(1, 3)),
                          F(rng.randint(0, 10), rng.choice((2, 3, 4))))]
                if rng.random() < 0.5:
                    pairs.append((F(rng.randint(-4, 4) or 1),
                                  pairs[0][1] + F(rng.randint(1, 5), 4)))
                entry = NovikovSeries(pairs)
                form[i][j] = entry
                form[j][i] = entry
        return form

    cases = [(n, True) for n in (1, 2, 3, 4, 5) for _ in range(10)]
    cases += [(n, False) for n in (2, 3, 4, 5) for _ in range(5)]
    return [(n, diagonal, random_form(n, diagonal))
            for n, diagonal in cases]


def test_criterion_2_trace_identity():
    """Trace equals the Hessian determinant in leading term, ranks 1..5."""
    failures = []

    # One-time calibration on the two-element basis: enumerate the
    # candidate grid and require the frozen constants to be the survivors.
    h = NovikovSeries([(5, F(1, 3))])
    survivors = set()
    for kappa in (F(2), F(1), F(1, 2), F(-1), F(-2)):
        for parity in (False, True):
            for quad in (False, True):
                if trace_with_conventions([[h]], kappa, parity, quad) == h:
                    survivors.add((kappa, parity))
    if survivors != {(KAPPA, True)}:
        failures.append(f"calibration grid left {survivors}")

    cases = criterion_2_cases()
    assert len(cases) == 70
    for idx, (n, diagonal, form) in enumerate(cases):
        Z = trace_Z(form)
        det = det_bareiss(form)
        if det.is_zero():
            if not Z.is_zero():
                failures.append(f"case {idx}: det 0 but Z = {Z}")
            continue
        if Z.is_zero():
            failures.append(f"case {idx}: Z vanished, det = {det}")
        elif (Z.valuation() != det.valuation()
              or Z.leading_coefficient() != det.leading_coefficient()):
            failures.append(f"case {idx} (n={n}): leading terms differ: "
                            f"Z={Z}, det={det}")
    _verdict(2, "Clifford trace = det(Hessian), calibrated once", failures)


def test_criterion_3_no_bulk_obstruction():
    """k+1 orthogonal idempotents of valuation -k/2, against the oracle."""
    failures = []
    omega = F(1)
    for k in range(1, 9):
        idems = symk_idempotents(k, omega)
        # The idempotents' exponents -w*omega/2 are integers over de, and
        # their coefficients over dc = 2^k.
        de, dc = 2 * omega.denominator, 2 ** k
        tensors = [int_tensor(sym_to_tensor(e), de, dc) for e in idems]
        if len(idems) != k + 1:
            failures.append(f"k={k}: {len(idems)} idempotents")
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        if total != SymQHElement(k, omega, [1] + [0] * k):
            failures.append(f"k={k}: idempotents do not sum to 1")
        for i, ei in enumerate(idems):
            if ei.valuation() != -F(k, 2):
                failures.append(f"k={k}, e[{i}]: valuation "
                                f"{ei.valuation()} != {-F(k, 2)}")
            if ei.valuation() / k != -F(1, 2):
                failures.append(f"k={k}, e[{i}]: val/k not -1/2")
            for j, ej in enumerate(idems):
                direct = symk_multiply(ei, ej)
                via_tensor = int_tensor_multiply(tensors[i], tensors[j],
                                                 int(omega * de))
                if int_tensor(sym_to_tensor(direct), de, dc * dc) \
                        != via_tensor:
                    failures.append(f"k={k}: tensor oracle disagrees at "
                                    f"({i}, {j})")
                expected = ei if i == j else None
                if i == j and direct != ei:
                    failures.append(f"k={k}: e[{i}] not idempotent")
                if i != j and not direct.is_zero():
                    failures.append(f"k={k}: e[{i}]e[{j}] nonzero")
    _verdict(3, "undeformed idempotent valuations -k/2", failures)


def test_criterion_4_adic_lifting():
    """Perturbed chain lifts: correction depth, oracle match, doubling."""
    failures = []
    rng = random.Random(777)
    link = CircleLinkS2(2, F(1, 8), F(1, 4))
    B = link.B
    target = 8 * B
    seed_pt = UnitaryPoint([NovikovSeries.one(), NovikovSeries.one()])
    delta_pool = [F(j, 16) for j in (1, 2, 3)] + \
                 [F(j, 12) for j in (1, 2)] + [F(1, 8), F(1, 6), F(3, 16),
                                               F(1, 32), F(5, 32)]
    for case in range(100):
        delta = rng.choice(delta_pool)
        assert 0 < delta < B
        eps = F(rng.randint(-6, 6) or 3, rng.randint(1, 3))
        m = (rng.randint(-2, 2), rng.randint(-2, 2))
        extra = LaurentPotential(
            2, {m: NovikovSeries.monomial(eps, B + delta)})
        W = build_chain_potential(link, BulkParameter(F(1)), extra)

        cert = hensel_lift(W, seed_pt, LiftConfig(target))
        if not cert.morse:
            failures.append(f"case {case}: lift not Morse")
            continue
        for i, c in enumerate(cert.point):
            corr = c - NovikovSeries.one()
            if corr.val_lower_bound() < delta:
                failures.append(f"case {case}: correction[{i}] valuation "
                                f"{corr.val_lower_bound()} < delta={delta}")

        oracle_pt = one_exponent_lift(W, seed_pt, target)
        for i, (a, b) in enumerate(zip(cert.point, oracle_pt)):
            if not a.eq_mod(b, target):
                failures.append(f"case {case}: coordinate {i} differs "
                                f"from the one-exponent oracle")

        gaps = [v - B for v in cert.residual_valuations]
        for before, after in zip(gaps, gaps[1:]):
            if after < min(2 * before, target - B):
                failures.append(f"case {case}: residual gap {before} -> "
                                f"{after} is not doubling")
    _verdict(4, "adic lifting to 8B with oracle agreement", failures)


def test_criterion_5_spectrum_shift():
    """Shifting every orbit action by s translates the spectrum by k*s."""
    failures = []
    rng = random.Random(55)
    for case in range(50):
        k = rng.randint(1, 6)
        vals = [F(rng.randint(-8, 8), rng.randint(1, 5))
                for _ in range(rng.randint(1, 4))]
        s = F(rng.randint(-6, 6), rng.randint(1, 4))
        pi = F(rng.randint(3, 40), rng.randint(1, 2))
        lo, hi = F(-4), F(4)
        base = enumerate_spectrum(
            ModelOrbitSet(vals), SpectrumConfig(k, pi, (lo, hi)))
        shifted = enumerate_spectrum(
            ModelOrbitSet([v + s for v in vals]),
            SpectrumConfig(k, pi, (lo + k * s, hi + k * s)))
        if shifted != [x + k * s for x in base]:
            failures.append(f"case {case}: k={k}, s={s}, values={vals}")
    _verdict(5, "spectrum shift by k*s on matched windows", failures)


def test_criterion_6_rigidity_mechanism():
    """Confined paths are constant; constructed jumps are flagged."""
    failures = []
    rng = random.Random(4242)
    for case in range(1000):
        npts = rng.randint(2, 8)
        gap = F(rng.randint(1, 9), rng.randint(1, 6))
        start = F(rng.randint(-20, 20), rng.randint(1, 4))
        spectrum = [start]
        for _ in range(npts - 1):
            spectrum.append(spectrum[-1]
                            + gap * F(rng.randint(1, 3)))
        step = gap * F(rng.randint(1, 9), 10)
        length = rng.randint(1, 12)
        if case % 2 == 0:
            value = rng.choice(spectrum)
            samples = [value] * length
            out = rigidity_check(spectrum, samples, step)
            if not out.constant:
                failures.append(f"case {case}: constant path flagged at "
                                f"{out.violation_index}")
        else:
            jump_at = rng.randint(1, length)
            a, b = rng.sample(spectrum, 2)
            samples = [a] * jump_at + [b] * (length + 1 - jump_at)
            out = rigidity_check(spectrum, samples, step)
            if out.constant or out.violation_index != jump_at:
                failures.append(f"case {case}: jump at {jump_at} reported "
                                f"as {out.violation_index}")
    _verdict(6, "spectral rigidity: confined paths constant", failures)


def test_criterion_7_product_link_obstruction():
    """Unequal disc areas obstruct the truncated potential; equal do not."""
    failures = []
    rng = random.Random(31337)
    pairs = []
    while len(pairs) < 50:
        a = F(rng.randint(1, 30), rng.randint(1, 8))
        a2 = a + F(rng.randint(1, 20), rng.randint(1, 8))
        pairs.append((a, a2))
    pairs += [(F(rng.randint(1, 30), rng.randint(1, 8)),) * 2
              for _ in range(50)]
    assert len(pairs) == 100
    for idx, (a, a2) in enumerate(pairs):
        W = LaurentPotential(1, {(1,): NovikovSeries.monomial(1, a),
                                 (-1,): NovikovSeries.monomial(1, a2)})
        cutoff = (a + a2) / 2
        report = truncation_obstruction(W, cutoff)
        if a < a2:
            if report.unobstructed or report.order != a:
                failures.append(f"pair {idx}: (a={a}, a'={a2}) not "
                                f"obstructed at {a}")
        else:
            leads = sorted(p.leading_tuple() for p in report.points)
            if not report.unobstructed or leads != [(-1,), (1,)]:
                failures.append(f"pair {idx}: equal areas {a} missing the "
                                f"+-1 critical points")
    _verdict(7, "equal-area truncation criterion", failures)


def test_criterion_8_fekete():
    """Affine subadditive sequences: estimate within beta/M; violations."""
    failures = []
    M = 100
    rng = random.Random(808)
    for case in range(30):
        alpha = F(rng.randint(-9, 9), rng.randint(1, 5))
        beta = F(rng.randint(0, 12), rng.randint(1, 3))
        seq = [alpha * m + beta for m in range(1, M + 1)]
        estimate, bracket = fekete_homogenize(seq)
        if abs(estimate - alpha) > F(beta, M):
            failures.append(f"case {case}: estimate {estimate} not within "
                            f"{F(beta, M)} of {alpha}")
        if not (bracket[0] <= estimate <= bracket[1]):
            failures.append(f"case {case}: estimate outside bracket")
    for case in range(30):
        alpha = F(rng.randint(-5, 5), rng.randint(1, 3))
        beta = F(rng.randint(0, 6))
        seq = [alpha * m + beta for m in range(1, 21)]
        spot = rng.randint(2, 20)
        spike = F(rng.randint(1, 5))
        seq[spot - 1] = seq[spot - 1] + 2 * beta + spike + 1
        try:
            fekete_homogenize(seq)
            failures.append(f"violation case {case}: spike at {spot} "
                            f"not detected")
        except SubadditivityError as err:
            m, n = err.pair
            if seq[m + n - 1] <= seq[m - 1] + seq[n - 1]:
                failures.append(f"violation case {case}: reported pair "
                                f"({m}, {n}) does not violate")
    _verdict(8, "Fekete estimate and violation detection", failures)
