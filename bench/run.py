#!/usr/bin/env python3
"""End-to-end benchmark of novlink.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src``).  The
workloads are ``weyl-scan``, ``perturbed-lift`` and ``symprod`` (see
``workloads.py`` and ``README.md``).  The command

1. starts several fresh interpreters that each import novlink and build the
   workload's inputs from the seed, and takes the median of their times
   (``setup_s``);
2. starts one fresh single-threaded worker process that issues the
   workload's calls in a closed loop, one after the other, pass after pass
   over the same input set, until ``S`` seconds have gone by, and then
   checks every output;
3. prints each metric by name with its unit, and as its last line one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``pass_s`` (median over passes of one pass's time), ``largest_s`` (median
over passes of the time of the pass's largest input) and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics come from the traced ones (see ``tracer.py``) and the spans are
written to ``bench/out/trace-<workload>-seed<N>.json``.

Times are calibrated against machine speed.  A fixed pure-Python reference
kernel runs between every two calls, and each call's wall time is scaled by
``REF_NOMINAL_S`` over the mean of the reference times just before and
just after it.  The speed of the 2-core machine this was written on drifts
by up to 60 % over a few seconds, and the calibration removes that drift
from the figures; the raw wall-time medians are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("weyl-scan", "perturbed-lift", "symprod")
SETUP_STARTS = 5          # measured fresh starts for setup_s
IMPORTTIME_STARTS = 3     # fresh ``-X importtime`` starts in a traced run
DEADLINE_S = 170          # the whole command ends well within 180 s

# Machine speed is sampled every SAMPLE_INTERVAL_S by timing a small
# reference kernel from a SIGALRM handler.  REF_NOMINAL_S is the kernel's
# median time on the reference machine (2 cores, Python 3.11.7), so
# calibrated times are seconds at that machine's median speed.
SAMPLE_INTERVAL_S = 0.02
MIN_SAMPLES = 5
REF_NOMINAL_S = 0.00025


def _ref_kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i % 13 - 6, i % 29 + 1)
        table[i & 63] = (acc.numerator & 1023, i)
    return acc


class SpeedSampler:
    """Calibrates wall times against the machine's momentary speed.

    While active, a timer signal runs the reference kernel every
    ``SAMPLE_INTERVAL_S`` in the main thread, between two bytecodes of
    whatever is running, and records ``REF_NOMINAL_S / kernel time``.  An
    interval's calibrated time is its wall time, less the time spent in the
    handler, times the mean of the ratios sampled during it (or of the last
    ``MIN_SAMPLES`` ratios when it was too short to hold that many).
    """

    def __init__(self):
        self.ratios = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _ref_kernel()
        self.ratios.append(REF_NOMINAL_S / (time.perf_counter() - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return time.perf_counter(), len(self.ratios), self.spent

    def since(self, mark):
        """``(raw, calibrated)`` seconds from ``mark`` to now."""
        t0, n0, spent0 = mark
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        ratios = self.ratios[n0:]
        if len(ratios) < MIN_SAMPLES:
            ratios = self.ratios[-MIN_SAMPLES:] or [1.0]
        return raw, raw * statistics.fmean(ratios)


# -- child processes ----------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Set-up is timed with a warm bytecode cache, as users have it, whatever
    # the calling environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(argv, deadline, stderr=None) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark ran out of time")
    return subprocess.run([sys.executable] + argv, env=_child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr,
                          text=True, timeout=timeout, check=True)


def _import_novlink():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import novlink
    where = Path(novlink.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"novlink imported from {where}, not from {SRC}")


def setup_child(args) -> None:
    """One fresh start: time ``import novlink`` plus building the inputs."""
    with SpeedSampler() as speed:
        mark = speed.mark()
        _import_novlink()
        import workloads
        workloads.build(args.workload, args.seed, Path(args.workdir))
        raw, cal = speed.since(mark)
    print(json.dumps({"setup_s": cal, "raw_s": raw}))


def _import_times(deadline):
    """Cumulative import times of novlink and sympy from ``-X importtime``."""
    found = {"novlink": [], "sympy": []}
    for _ in range(IMPORTTIME_STARTS):
        proc = _run_child(["-X", "importtime", "-c", "import novlink"],
                          deadline, stderr=subprocess.PIPE)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"setup.{name}_import_s": statistics.median(v)
            for name, v in found.items()}


# -- the worker ---------------------------------------------------------------

def _run_pass(ops, speed, tracer=None):
    """One pass: every call timed on its own."""
    rec = {"raw": [], "cal": [], "encoded": [], "outputs": [], "failed": 0,
           "errors": []}
    for op in ops:
        mark = speed.mark()
        try:
            out = op.call() if tracer is None else tracer.op(op.label,
                                                               op.call)
        except Exception as exc:  # a failed call is counted, not fatal
            out = None
            rec["failed"] += 1
            rec["errors"].append(f"{op.label}: {type(exc).__name__}: {exc}")
        raw, cal = speed.since(mark)
        rec["raw"].append(raw)
        rec["cal"].append(cal)
        rec["outputs"].append(out)
        rec["encoded"].append(None if out is None else op.encode(out))
    return rec


def work_child(args) -> None:
    _import_novlink()
    import workloads
    wl = workloads.build(args.workload, args.seed, Path(args.workdir))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    largest = next(i for i, op in enumerate(wl.ops) if op.largest)
    passes, mismatches = [], []
    with SpeedSampler() as speed:
        try:
            wl.warmup.call()
        except Exception:  # the timed passes count and report the failure
            pass
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.begin_pass()
                tracer.install()
                try:
                    rec = _run_pass(wl.ops, speed, tracer)
                finally:
                    tracer.uninstall()
                rec["trace"] = tracer.end_pass()
            else:
                rec = _run_pass(wl.ops, speed)
            rec["traced"] = traced
            if passes:
                # Later passes must repeat the first one's bytes; only the
                # first pass's outputs are kept, so peak memory does not
                # grow with the number of passes.
                kind = "traced" if traced else "untraced"
                for op, a, b in zip(wl.ops, passes[0]["encoded"],
                                    rec.pop("encoded")):
                    if a is not None and b is not None and a != b:
                        mismatches.append(
                            f"pass {len(passes)} ({kind}): output of "
                            f"{op.label} differs from pass 0")
                del rec["outputs"]
            passes.append(rec)
            if (time.perf_counter() - start >= args.seconds
                    and (tracer is None or len(passes) >= 2)):
                break

    failures = [f"pass {p}: {e}" for p, rec in enumerate(passes)
                for e in rec["errors"]]
    errors = wl.check(passes[0]["outputs"]) + mismatches
    untraced = [rec for rec in passes if not rec["traced"]]
    result = {
        "passes": len(passes),
        "attempted": len(passes) * len(wl.ops),
        "failed": sum(rec["failed"] for rec in passes),
        "failures": failures,
        "inputs": wl.inputs,
        "pass_s": [sum(rec["cal"]) for rec in untraced],
        "pass_raw_s": [sum(rec["raw"]) for rec in untraced],
        "largest_s": [rec["cal"][largest] for rec in untraced],
        "largest_raw_s": [rec["raw"][largest] for rec in untraced],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024),
    }
    if tracer is not None:
        result["trace"] = _trace_summary(args, passes, errors)
    result["check_errors"] = errors
    print(json.dumps(result))


def _trace_summary(args, passes, errors) -> dict:
    traced = [rec for rec in passes if rec["traced"]]
    untraced = [rec for rec in passes if not rec["traced"]]
    counts = traced[0]["trace"]["counts"]
    for rec in traced[1:]:
        if rec["trace"]["counts"] != counts:
            errors.append("traced passes disagree on operation counts")
    metrics = dict(counts)
    # Self times are scaled by the pass's calibration factor, so they are in
    # the same calibrated seconds as pass_s.
    for name in traced[0]["trace"]["self_s"]:
        metrics[name] = statistics.median(
            rec["trace"]["self_s"][name] * sum(rec["cal"]) / sum(rec["raw"])
            for rec in traced)
    traced_s = statistics.median(sum(rec["cal"]) for rec in traced)
    untraced_s = statistics.median(sum(rec["cal"]) for rec in untraced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "passes": [{"pass": p, "counts": rec["trace"]["counts"],
                        "self_s": rec["trace"]["self_s"],
                        "spans": rec["trace"]["spans"]}
                       for p, rec in enumerate(passes) if rec["traced"]],
        }, fh)
    return {"metrics": metrics, "traced_pass_s": traced_s,
            "untraced_pass_s": untraced_s, "file": str(path.relative_to(ROOT))}


# -- the command --------------------------------------------------------------

UNITS = {"_s": "s", "_mb": "MB"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(args) -> int:
    if not (SRC / "novlink" / "__init__.py").is_file():
        print(f"error: no novlink sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    script = str(Path(__file__).resolve())
    try:
        # The first start fills the bytecode cache and is not counted.
        starts = [json.loads(_run_child([script, "--role", "setup"] + common,
                                        deadline).stdout.splitlines()[-1])
                  for _ in range(SETUP_STARTS + 1)][1:]
        layer = _import_times(deadline) if args.trace else {}
        proc = _run_child([script, "--role", "work", "--seconds",
                           str(args.seconds), "--trace", str(args.trace)]
                          + common, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(proc.stdout.splitlines()[-1])

    for err in res["failures"] + res["check_errors"]:
        print(f"error: {err}", file=sys.stderr)
    setup = [s["setup_s"] for s in starts]
    print(f"workload {args.workload}, seed {args.seed}: {res['passes']} "
          f"passes, {res['attempted']} calls attempted, {res['failed']} "
          f"failed, {len(res['check_errors'])} check failures")
    print(f"inputs: {json.dumps(res['inputs'])}")
    print(f"setup: {len(setup)} fresh starts, raw "
          + ", ".join(f"{s['raw_s']:.4f}" for s in starts) + " s")
    if args.trace:
        tr = res["trace"]
        metrics = dict(tr["metrics"], **layer)
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per "
              f"pass (traced {tr['traced_pass_s']:.4f} s, untraced "
              f"{tr['untraced_pass_s']:.4f} s); spans in {tr['file']}")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(res["pass_s"]),
            "largest_s": statistics.median(res["largest_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for key in ("pass_s", "pass_raw_s", "largest_s", "largest_raw_s"):
            print(f"{key} per pass: "
                  + ", ".join(f"{v:.4f}" for v in res[key]))
    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6f} {_unit(name)}")
    print(json.dumps({
        "correct": not res["check_errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "work"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


if __name__ == "__main__":
    ARGS = _parse(sys.argv[1:])
    if ARGS.role == "setup":
        setup_child(ARGS)
    elif ARGS.role == "work":
        work_child(ARGS)
    else:
        sys.exit(main(ARGS))
