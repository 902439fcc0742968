"""Command-line front end.

Subcommands mirror the library surface:

* ``crit find`` / ``crit lift``: leading solutions and adic lifting of a
  potential loaded from JSON;
* ``trace check``: trace-vs-determinant comparison for a Hessian matrix;
* ``qh idempotents``: idempotents of the symmetric sphere algebra;
* ``spectrum enum``: exact action-spectrum enumeration in a window;
* ``scan weyl`` / ``scan nobulk``: the sweep tables.

Exit codes: 0 success, else the ``exit_code`` of the error raised, whose
``label`` leads the stderr line (``errors``); an input file that cannot be
opened, decoded or parsed as JSON is a configuration error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import cliffordtrace, harness
from .critlift import LiftConfig, hensel_lift, leading_solutions
from .errors import (
    ConfigError,
    DegenerateTraceError,
    NovlinkError,
    PrecisionError,
)
from .laurent import LaurentPotential, UnitaryPoint, _det
from .novikov import NovikovSeries, _json_array, _json_list, _text
from .spectrum import ModelOrbitSet, SpectrumConfig, enumerate_spectrum
from .symprodqh import symk_idempotents


def _load_json(path: str):
    """The JSON document in the file ``path``.  A file that cannot be
    decoded as UTF-8 or parsed as JSON, an integer literal past the
    interpreter's digit limit included, raises ``ConfigError`` naming the
    path; one that cannot be opened raises ``OSError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _cmd_crit_find(args) -> int:
    W = LaurentPotential.from_obj(_load_json(args.potential))
    points = leading_solutions(W)
    print(json.dumps({"points": [p.to_obj() for p in points]}, indent=2))
    return 0


def _cmd_crit_lift(args) -> int:
    W = LaurentPotential.from_obj(_load_json(args.potential))
    seed = UnitaryPoint.from_obj(_load_json(args.seed))
    cfg = LiftConfig(target_precision=args.prec)
    cert = hensel_lift(W, seed, cfg)
    try:
        det_valuation = str(cert.det_valuation())
    except PrecisionError:  # a determinant known only as O(T^p)
        det_valuation = None
    print(json.dumps({
        "point": cert.point.to_obj(),
        "hessian_det": cert.hessian_det.to_obj(),
        "det_valuation": det_valuation,
        "morse": cert.morse,
        "reason": cert.reason,
    }, indent=2))
    return 0


def _hessian_entries(obj):
    """The series rows of a ``trace check`` input: a list of lists, or an
    object whose ``entries`` is one; anything else raises ``ConfigError``."""
    rule = ("a Hessian must be a list of rows (lists of series) or an "
            "object whose \"entries\" is one")
    rows, _ = _json_list(obj, rule, "entries", required=("entries",))
    return [[NovikovSeries.from_obj(e) for e in _json_array(row, rule)]
            for row in rows]


def _cmd_trace_check(args) -> int:
    # One reading of the matrix serves the trace and the determinant.
    rows, blocks = cliffordtrace._form_rows(
        _hessian_entries(_load_json(args.hessian)))
    Z = cliffordtrace._trace(rows, blocks)
    det = _det(rows, blocks)
    print(f"Z = {Z}")
    print(f"det = {det}")
    try:
        val_z = cliffordtrace.defect_bound(Z)
    except DegenerateTraceError:
        print("val(Z) = +inf (degenerate)")
        print("leading terms match: no")
        raise
    print(f"val(Z) = {val_z}")
    match = cliffordtrace._leading_terms_match(Z, det)
    print(f"leading terms match: {'yes' if match else 'no'}")
    return 0


def _cmd_qh_idempotents(args) -> int:
    idems = symk_idempotents(args.k, args.omega)
    for j, e in enumerate(idems):
        v = e.valuation()
        print(f"e[{j}] val = {v}  val/k = {v / args.k}")
        for w, c in enumerate(e.coeffs):
            if not c.is_zero():
                print(f"    m{w}: {c}")
    return 0


def _cmd_spectrum_enum(args) -> int:
    orbits = ModelOrbitSet(args.values.split(","))
    cfg = SpectrumConfig(k=args.k, pi_generator=args.pi,
                         window=args.window.split(","))
    spec = enumerate_spectrum(orbits, cfg)
    print(json.dumps([_text(x) for x in spec]))
    return 0


def _cmd_scan_weyl(args) -> int:
    cfg = harness.ScanConfig.from_obj(_load_json(args.config))
    _emit(harness.weyl_scan(cfg), harness.WEYL_COLUMNS, cfg.output_format,
          args.out)
    return 0


def _cmd_scan_nobulk(args) -> int:
    _emit(harness.nobulk_scan((args.kmin, args.kmax), args.omega),
          harness.NOBULK_COLUMNS, args.format, args.out)
    return 0


def _emit(rows, columns, output_format: str, out):
    """Write the table (``harness.render_rows``) to ``out`` or stdout."""
    text = harness.render_rows(rows, columns, output_format)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novlink",
        description="Exact computations over the Novikov field: link "
                    "potentials, adic lifting, Clifford traces, symmetric "
                    "quantum algebras and action spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    crit = sub.add_parser("crit", help="critical points of potentials")
    crit_sub = crit.add_subparsers(dest="subcommand", required=True)
    find = crit_sub.add_parser("find", help="rational leading solutions")
    find.add_argument("--potential", required=True, metavar="W.json")
    find.set_defaults(func=_cmd_crit_find)
    lift = crit_sub.add_parser("lift", help="lift a seed to a critical point")
    lift.add_argument("--potential", required=True, metavar="W.json")
    lift.add_argument("--seed", required=True, metavar="z.json")
    lift.add_argument("--prec", required=True, metavar="p/q")
    lift.set_defaults(func=_cmd_crit_lift)

    trace = sub.add_parser("trace", help="Clifford trace checks")
    trace_sub = trace.add_subparsers(dest="subcommand", required=True)
    check = trace_sub.add_parser("check",
                                 help="compare trace against determinant")
    check.add_argument("--hessian", required=True, metavar="H.json")
    check.set_defaults(func=_cmd_trace_check)

    qh = sub.add_parser("qh", help="symmetric sphere quantum algebra")
    qh_sub = qh.add_subparsers(dest="subcommand", required=True)
    idem = qh_sub.add_parser("idempotents",
                             help="print the k+1 idempotents and valuations")
    idem.add_argument("--k", type=int, required=True)
    idem.add_argument("--omega", required=True, metavar="p/q")
    idem.set_defaults(func=_cmd_qh_idempotents)

    spec = sub.add_parser("spectrum", help="action spectrum tools")
    spec_sub = spec.add_subparsers(dest="subcommand", required=True)
    enum = spec_sub.add_parser("enum", help="enumerate a spectrum window")
    enum.add_argument("--values", required=True,
                      help="comma-separated orbit actions, e.g. 0,1/2")
    enum.add_argument("--k", type=int, required=True)
    enum.add_argument("--pi", required=True, metavar="p/q",
                      help="lattice generator")
    enum.add_argument("--window", required=True, metavar="lo,hi")
    enum.set_defaults(func=_cmd_spectrum_enum)
    # Let values like "-5,5" and "-1/2" pass as arguments, not options.
    enum._negative_number_matcher = re.compile(r"^-\d")

    scan = sub.add_parser("scan", help="sweep drivers")
    scan_sub = scan.add_subparsers(dest="subcommand", required=True)
    weyl = scan_sub.add_parser("weyl", help="chain-link valuation table")
    weyl.add_argument("--config", required=True, metavar="scan.json")
    weyl.add_argument("--out", default=None)
    weyl.set_defaults(func=_cmd_scan_weyl)
    nobulk = scan_sub.add_parser("nobulk",
                                 help="undeformed idempotent valuation table")
    nobulk.add_argument("--kmax", type=int, required=True)
    nobulk.add_argument("--kmin", type=int, default=1)
    nobulk.add_argument("--omega", required=True, metavar="p/q")
    nobulk.add_argument("--format", choices=harness.OUTPUT_FORMATS,
                        default="csv")
    nobulk.add_argument("--out", default=None)
    nobulk.set_defaults(func=_cmd_scan_nobulk)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call.

    Parsing leaves it unchanged, and building the tree costs about as much
    as a small command and leaves reference cycles for the collector.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NovlinkError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{ConfigError.label}: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
