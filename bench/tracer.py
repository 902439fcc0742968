"""Per-layer tracing for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of each novlink module and
patches every name under which novlink binds them (``critlift.solve_linear``
and ``laurent.solve_linear`` alike), so calls made inside the library are
seen too; ``uninstall()`` puts the originals back.  Timed runs never install
it.

Each wrapped call records its wall time, and its parent is charged for it,
so a function's self time is its time minus that of the wrapped calls it
made.  Calls of the series kernel (``novikov``: products, sums, inversions,
divisions, truncations) are aggregated in place: a pass makes hundreds of
thousands of them, too many to keep one span each.  Every other wrapped
call, and each benchmark operation, is kept as a span
``(name, start, end, parent)`` in memory and written out as JSON at the end
of the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from novlink import (cli, cliffordtrace, critlift, harness, laurent, linkfam,
                     novikov, spectrum, symprodqh)

NovikovSeries = novikov.NovikovSeries


def _terms(x) -> int:
    return len(x.terms) if isinstance(x, NovikovSeries) else (1 if x else 0)


def _note_terms(tr, args, result):
    if isinstance(result, NovikovSeries) and len(result.terms) > tr.max_terms:
        tr.max_terms = len(result.terms)


def _note_mul(tr, args, result):
    tr.counts["novikov.mul.term_products"] += (_terms(args[0])
                                               * _terms(args[1]))
    _note_terms(tr, args, result)


def _note_divide(tr, args, result):
    tr.counts["novikov.divide.quotient_terms"] += len(result.terms)
    _note_terms(tr, args, result)


def _note_lift(tr, args, result):
    tr.counts["critlift.newton_steps"] += len(result.residual_valuations) - 1


def _note_points(tr, args, result):
    tr.counts["spectrum.points"] += len(result)


# (owner, attribute, traced name, result hook).  Class attributes are
# patched on the class; module functions wherever novlink binds them.
KERNEL = [
    (NovikovSeries, "__mul__", "novikov.mul", _note_mul),
    (NovikovSeries, "__rmul__", "novikov.mul", _note_mul),
    (NovikovSeries, "__add__", "novikov.add", _note_terms),
    (NovikovSeries, "__radd__", "novikov.add", _note_terms),
    (NovikovSeries, "__sub__", "novikov.sub", _note_terms),
    (NovikovSeries, "__rsub__", "novikov.rsub", None),
    (NovikovSeries, "__neg__", "novikov.neg", None),
    (NovikovSeries, "truncate", "novikov.truncate", None),
    (NovikovSeries, "invert", "novikov.invert", _note_terms),
    (novikov, "divide", "novikov.divide", _note_divide),
]
LAYERS = [
    (laurent.LaurentPotential, "evaluate", "laurent.evaluate", None),
    (laurent, "solve_linear", "laurent.solve_linear", None),
    (laurent, "det_bareiss", "laurent.det_bareiss", None),
    (critlift, "leading_solutions", "critlift.leading_solutions", None),
    (critlift, "hensel_lift", "critlift.hensel_lift", _note_lift),
    (critlift, "certify_morse", "critlift.certify_morse", None),
    (linkfam, "build_chain_potential", "linkfam.build_chain_potential", None),
    (linkfam, "critical_data", "linkfam.critical_data", None),
    (cliffordtrace, "trace_Z", "cliffordtrace.trace_Z", None),
    (cliffordtrace, "clifford_product", "cliffordtrace.clifford_product",
     None),
    (cliffordtrace, "poincare_pairing", "cliffordtrace.poincare_pairing",
     None),
    (cliffordtrace, "defect_bound", "cliffordtrace.defect_bound", None),
    (symprodqh, "symk_multiply", "symprodqh.symk_multiply", None),
    (symprodqh, "symk_idempotents", "symprodqh.symk_idempotents", None),
    (spectrum, "enumerate_spectrum", "spectrum.enumerate_spectrum",
     _note_points),
    (harness, "weyl_scan", "harness.weyl_scan", None),
    (harness, "nobulk_scan", "harness.nobulk_scan", None),
    (harness, "render_rows", "harness.render_rows", None),
    (cli, "main", "cli.main", None),
]


def _novlink_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "novlink"
                                  or name.startswith("novlink."))]


class Tracer:
    """Counts, self times and spans of one traced pass at a time."""

    def __init__(self):
        self._patches = []
        self._frames = []      # one [child seconds] per active wrapped call
        self._open = []        # indices of the active recorded spans
        self.begin_pass()

    def begin_pass(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.max_terms = 0
        self.spans = []
        self._origin = time.perf_counter()

    def _wrap(self, fn, name, hook, keep_span):
        clock = time.perf_counter
        frames, opened = self._frames, self._open

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if keep_span:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0,
                                   opened[-1] if opened else -1])
                opened.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                if keep_span:
                    opened.pop()
                    span = self.spans[idx]
                    span[1] = t0 - self._origin
                    span[2] = t1 - self._origin
                dur = t1 - t0
                self.self_s[name] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                self.calls[name] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _novlink_modules()
        for table, keep_span in ((KERNEL, False), (LAYERS, True)):
            for owner, attr, name, hook in table:
                original = getattr(owner, attr)
                traced = self._wrap(original, name, hook, keep_span)
                if isinstance(owner, type):
                    self._patch(owner, attr, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def op(self, label, call):
        """Run one benchmark operation as a root span."""
        return self._wrap(call, f"op:{label}", None, True)()

    def end_pass(self) -> dict:
        """Counts (machine independent) and self times of the pass."""
        c, s = self.calls, self.self_s
        counts = {
            "novikov.mul.calls": c["novikov.mul"],
            "novikov.mul.term_products":
                self.counts["novikov.mul.term_products"],
            "novikov.add.calls": c["novikov.add"] + c["novikov.sub"],
            "novikov.invert.calls": c["novikov.invert"],
            "novikov.divide.calls": c["novikov.divide"],
            "novikov.divide.quotient_terms":
                self.counts["novikov.divide.quotient_terms"],
            "novikov.max_terms": self.max_terms,
            "laurent.evaluate.calls": c["laurent.evaluate"],
            "laurent.solve_linear.calls": c["laurent.solve_linear"],
            "critlift.hensel_lift.calls": c["critlift.hensel_lift"],
            "critlift.newton_steps": self.counts["critlift.newton_steps"],
            "cliffordtrace.trace_Z.calls": c["cliffordtrace.trace_Z"],
            "cliffordtrace.clifford_product.calls":
                c["cliffordtrace.clifford_product"],
            "cliffordtrace.poincare_pairing.calls":
                c["cliffordtrace.poincare_pairing"],
            "symprodqh.symk_multiply.calls": c["symprodqh.symk_multiply"],
            "spectrum.points": self.counts["spectrum.points"],
        }
        self_s = {f"{name}.self_s": s[name] for name in (
            "laurent.evaluate", "laurent.solve_linear", "laurent.det_bareiss",
            "critlift.leading_solutions", "critlift.hensel_lift",
            "critlift.certify_morse", "linkfam.critical_data",
            "cliffordtrace.trace_Z", "cliffordtrace.clifford_product",
            "symprodqh.symk_multiply",
            "symprodqh.symk_idempotents", "spectrum.enumerate_spectrum",
            "harness.weyl_scan", "harness.nobulk_scan",
            "harness.render_rows", "cli.main")}
        self_s["novikov.self_s"] = sum(v for k, v in s.items()
                                       if k.startswith("novikov."))
        return {"counts": counts, "self_s": self_s, "spans": self.spans}
