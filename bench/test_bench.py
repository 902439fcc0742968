"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest bench/test_bench.py

Each check must accept the library's real output and reject a corrupted
copy of it; the tracer must leave outputs and the library unchanged.
"""

from __future__ import annotations

import csv
import io
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from novlink import (critlift, laurent, novikov, spectrum,  # noqa: E402
                     symprodqh)
from novlink.laurent import UnitaryPoint  # noqa: E402
from novlink.novikov import NovikovSeries  # noqa: E402

SIXTEENTH = F(1, 16)


def shifted(x: NovikovSeries, by=SIXTEENTH) -> NovikovSeries:
    """``x`` with every exponent, and its precision, raised by ``by``."""
    return NovikovSeries([(c, e + by) for e, c in x.terms],
                         x.precision + by)


def edit_cell(text: str, row: int, column: str, by=SIXTEENTH) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row][col] = str(F(rows[row][col]) + by)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_weyl_table(tmp_path):
    wl = workloads.build("weyl-scan", 0, tmp_path)
    k3 = next(op for op in wl.ops if op.label == "k=3")
    text = k3.call()
    assert checks.weyl_table(text, 3) == []
    for column in ("A", "B", "val_Z", "val_Z_over_k", "defect_bound"):
        assert checks.weyl_table(edit_cell(text, 1, column), 3)
    assert checks.weyl_table(text, 4)
    assert checks.weyl_table(text.replace("val_Z,", "valZ,", 1), 3)
    assert checks.weyl_table(text + text.splitlines()[1] + "\n", 3)


def test_nobulk_table():
    text = workloads.run_cli(["scan", "nobulk", "--kmax", "4",
                              "--omega", "3/2"])
    assert checks.nobulk_table(text, 4, F(3, 2)) == []
    assert checks.nobulk_table(edit_cell(text, 2, "val_e"), 4, F(3, 2))
    assert checks.nobulk_table(edit_cell(text, 3, "idempotent_count", 1),
                               4, F(3, 2))
    assert checks.nobulk_table("".join(text.splitlines(True)[:-1]), 4,
                               F(3, 2))


def _lift_case():
    wl = workloads.build("perturbed-lift", 0, None)
    out = wl.ops[1].call()                      # k = 3
    return wl, out


def _only_k3(out):
    return [None, out, None, None, None]


def test_lift_certificate_accepts_the_lift():
    wl, out = _lift_case()
    assert wl.check(_only_k3(out)) == []


def test_lift_certificate_rejects_corruptions():
    wl, (count, cert) = _lift_case()
    target = 6 * workloads.LIFT_B
    z = list(cert.point)
    for e in (workloads.LIFT_B, target - SIXTEENTH):
        bumped = z[:1] + [z[1] + NovikovSeries.monomial(1, e, target)] + z[2:]
        bad = replace(cert, point=UnitaryPoint(bumped))
        assert wl.check(_only_k3((count, bad))), f"perturbation at T^{e}"
    coarse = [c.truncate(target - SIXTEENTH) for c in z]
    assert wl.check(_only_k3((count, replace(
        cert, point=UnitaryPoint(coarse)))))
    assert wl.check(_only_k3((count, replace(
        cert, hessian_det=shifted(cert.hessian_det)))))
    rv = cert.residual_valuations
    assert wl.check(_only_k3((count, replace(
        cert, residual_valuations=(rv[0], rv[0]) + rv[1:]))))
    assert wl.check(_only_k3((count, replace(cert, morse=False))))
    assert wl.check(_only_k3((count - 1, cert)))


def test_idempotent_checks():
    k, omega = 4, F(2, 3)
    idems = symprodqh.symk_idempotents(k, omega)
    pairs = [(1, 1), (1, 2), (4, 0)]
    prods = [symprodqh.symk_multiply(idems[i], idems[j]) for i, j in pairs]
    assert checks.idempotents(idems, k, omega) == []
    assert checks.idempotent_products(idems, pairs, prods) == []

    for w in (2, k):
        coeffs = list(idems[2].coeffs)
        coeffs[w] = shifted(coeffs[w])
        bad = (idems[:2] + [symprodqh.SymQHElement(k, omega, coeffs)]
               + idems[3:])
        assert checks.idempotents(bad, k, omega)
    assert checks.idempotents(idems[:-1], k, omega)
    assert checks.idempotents(idems, k, 2 * omega)
    assert checks.idempotent_products(idems, pairs, prods[1:] + prods[:1])
    inexact = [c.truncate(9) for c in prods[1].coeffs]
    assert checks.idempotent_products(
        idems, pairs, [prods[0], symprodqh.SymQHElement(k, omega, inexact),
                       prods[2]])


def test_spectrum_check():
    values = [F(3, 37), F(-5, 41), F(7, 43)]
    g = F(5, 3)
    window = (-3 * g, 3 * g)
    spec = spectrum.enumerate_spectrum(spectrum.ModelOrbitSet(values),
                                       spectrum.SpectrumConfig(5, g, window))
    assert checks.spectrum(values, 5, g, window, spec) == []
    assert checks.spectrum(values, 5, g, window, spec[1:])
    assert checks.spectrum(values, 5, g, window,
                           sorted(spec + [spec[0] + SIXTEENTH]))
    assert checks.spectrum(values, 4, g, window, spec)


def test_symprod_workload_checks_its_outputs():
    wl = workloads.build("symprod", 0, None)
    small = {"k=4", "nobulk"}
    outputs = [op.call() if op.label in small else None for op in wl.ops]
    assert wl.check(outputs) == []


def test_tracer_keeps_outputs_and_restores_the_library():
    wl = workloads.build("perturbed-lift", 3, None)
    op = wl.ops[0]
    originals = (NovikovSeries.__mul__, novikov.divide, laurent.solve_linear,
                 critlift.solve_linear, critlift.hensel_lift)
    plain = op.encode(op.call())
    tracer = Tracer()
    runs = []
    for _ in range(2):
        tracer.begin_pass()
        tracer.install()
        try:
            assert critlift.solve_linear is not originals[3]
            out = tracer.op(op.label, op.call)
        finally:
            tracer.uninstall()
        runs.append(tracer.end_pass())
        assert op.encode(out) == plain
    assert (NovikovSeries.__mul__, novikov.divide, laurent.solve_linear,
            critlift.solve_linear, critlift.hensel_lift) == originals
    assert runs[0]["counts"] == runs[1]["counts"]
    counts = runs[0]["counts"]
    assert counts["critlift.hensel_lift.calls"] == 1
    assert counts["laurent.solve_linear.calls"] == counts[
        "critlift.newton_steps"] > 0
    spans = runs[0]["spans"]
    assert spans[0][0] == "op:k=2" and spans[0][3] == -1
    assert all(0 <= parent < i for i, (*_, parent) in enumerate(spans)
               if i)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "symprod", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
