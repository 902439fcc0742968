"""Scan driver tables, configuration schemas and the CLI front end."""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novlink import (
    cli,
    cliffordtrace,
    errors,
    harness,
    laurent,
    linkfam,
    symprodqh,
)
from novlink.cli import main
from novlink.cliffordtrace import TRACE_WORK_LIMIT
from novlink.critlift import LIFT_WORK_LIMIT, LiftConfig
from novlink.errors import (
    AreaError,
    ConfigError,
    DegenerateTraceError,
    PrecisionError,
)
from novlink.harness import (
    DISC_DIGIT_LIMIT,
    NOBULK_COLUMNS,
    WEYL_COLUMNS,
    WEYL_K_LIMIT,
    AreaSchedule,
    ScanConfig,
    nobulk_scan,
    render_rows,
    weyl_scan,
)
from novlink.laurent import LaurentPotential, UnitaryPoint, det_bareiss
from novlink.linkfam import (
    BulkParameter,
    CircleLinkS2,
    build_chain_potential,
    critical_data,
    truncation_obstruction,
)
from novlink.novikov import DIGIT_LIMIT, NovikovSeries
from novlink.spectrum import (
    ModelOrbitSet,
    SpectrumConfig,
    fekete_homogenize,
    rigidity_check,
)
from novlink.symprodqh import SYMK_K_LIMIT, SymQHElement, symk_idempotents


# Inputs and outputs of two CLI calls, written by the Fraction-tuple series
# arithmetic that preceded the integer form: ``crit lift`` of the k = 3 chain
# link (A = 1/8, B = 1/4, bulk 1) with three extra monomials of valuation
# B + 1/16, B + 1/8 and B + 3/16, from its all-plus seed to precision 3/2,
# and ``scan weyl`` for k = 1..6 on the power schedule (beta 1, power 2,
# shift 2).  ``weyl_k1_12.csv`` is the same scan for k = 1..12, the
# benchmark's size, written by the tuple-keyed trace that preceded the
# bitmask one, and ``weyl_k13_16.csv`` continues it to k = 16 on the same
# schedule, written while ``critical_data`` still ran ``hensel_lift``.
# ``weyl_k17_24.csv`` continues it to k = 24, written from the closed forms
# B = 1/(k+2)^2, A = B/2 and val_Z = defect_bound = k B, not by novlink.
# ``lift_k3_find.json`` is ``crit find`` on the same k = 3 potential,
# written when sympy solved every leading system whole.
# ``lift_k3_potential_prec.json`` is that potential with three coefficients
# known only modulo T^(25/14), T^(13/7) and T^(9/5): precision denominators
# off the 1/16 exponent lattice.  Its ``crit lift`` golden was written while
# the series precision was still a Fraction; as every one of those
# precisions lies above the working precision 7/4, it has the exact
# potential's bytes.  The README's other CLI examples have goldens too:
# ``trace check`` on the Hessian of the README's k = 3 chain link
# (``trace_k3_hessian.json``), ``qh idempotents``, ``spectrum enum`` and
# ``scan nobulk``; ``nobulk_k1_160_omega_3_2.csv`` runs that scan to
# SYMK_K_LIMIT, written while the scan still read each valuation off the
# idempotents' series.  ``trace_exact_hessian.json`` has exact two-term
# entries: Bareiss divides by an exact two-term pivot, and the quotient's
# exponents are sixths.  ``weyl_constant_k1_8.csv`` is the paper's failure
# column: discs of constant area 1/10, whose ``val_Z_over_k`` stays 1/10.
# ``trace_block_hessian.json`` is a 4 x 4 form of two interleaved
# components, {1, 3} and {2, 4}, with exact, finite-precision and O(T^p)
# entries; its golden was written while ``trace_Z`` still took an algebra.
# ``golden/commands.txt`` lists every call with its golden output.  Any
# change in these bytes is a change in results.
GOLDEN = Path(__file__).parent / "golden"


def _golden_commands():
    """``(argv, expected output file)`` per line of ``golden/commands.txt``:
    the output file's name, then the ``novlink`` arguments, whose
    ``.json`` files lie in ``golden/`` too."""
    lines = (GOLDEN / "commands.txt").read_text(encoding="utf-8").splitlines()
    return [(words[1:], words[0]) for words in map(str.split, lines)
            if words and not words[0].startswith("#")]


GOLDEN_COMMANDS = _golden_commands()
ONE = {"terms": [{"c": "1", "e": "0"}]}


def power_config(lo=2, hi=6, **kw):
    return ScanConfig(k_range=(lo, hi), schedule=AreaSchedule(**kw))


class TestSchedules:
    def test_power_schedule_disc_area(self):
        sched = AreaSchedule(kind="power", beta=F(1), power=2, shift=2)
        assert sched.disc_area(2) == F(1, 16)
        link = sched.link(5)
        assert link.B == F(1, 49)
        assert link.A == link.B / 2

    def test_constant_schedule(self):
        sched = AreaSchedule(kind="constant", beta=F(1, 10))
        for k in (1, 4, 9):
            assert sched.disc_area(k) == F(1, 10)

    def test_fixed_total_violation_names_k(self):
        sched = AreaSchedule(kind="power_fixed_total", beta=F(1), power=2,
                             shift=2, total_area=F(1))
        with pytest.raises(AreaError, match="k = 2"):
            sched.link(2)

    def test_fixed_total_consistent_case(self):
        # Discs just above the equal-area split stay eta-monotone.
        sched = AreaSchedule(kind="constant", beta=F(7, 20))
        link = sched.link(2)
        assert 0 < link.A < link.B

    def test_config_round_trip(self):
        obj = {"k_range": [1, 12],
               "schedule": {"type": "power", "beta": "1", "power": 2,
                            "shift": 2},
               "c0": "1", "output_format": "csv"}
        cfg = ScanConfig.from_obj(obj)
        assert cfg.k_range == (1, 12)
        assert cfg.schedule.disc_area(1) == F(1, 9)

    @pytest.mark.parametrize("kw, k_range", [
        ({"power": 10 ** 9}, (1, 1)),
        ({"power": -(10 ** 9)}, (1, 1)),
        ({"power": 2, "shift": 10 ** 3000}, (1, 1)),
        ({"power": 2, "shift": 0}, (1, 10 ** 600)),
        ({"power": 2, "kind": "power_fixed_total", "total_area": 1},
         (1, 10 ** 600)),
    ])
    def test_disc_area_past_the_digit_limit_refused_by_the_config(
            self, kw, k_range):
        with pytest.raises(ConfigError, match=f"DISC_DIGIT_LIMIT = "
                                              f"{DISC_DIGIT_LIMIT}$"):
            ScanConfig(k_range=k_range, schedule=AreaSchedule(**kw))

    @pytest.mark.parametrize("power", [-100, 1, 100])
    def test_power_up_to_100_is_accepted_through_the_k_limit(self, power):
        cfg = power_config(1, WEYL_K_LIMIT, power=power)
        B = cfg.schedule.disc_area(WEYL_K_LIMIT)
        assert B == F(WEYL_K_LIMIT + 2) ** -power
        # A constant disc area has no power to refuse.
        ScanConfig(k_range=(1, 1), schedule=AreaSchedule(
            kind="constant", power=10 ** 9))

    @pytest.mark.parametrize("kw", [{"power": 2.5}, {"power": True},
                                    {"shift": 1.5}, {"shift": True}])
    def test_non_integer_power_or_shift_rejected(self, kw):
        with pytest.raises(ConfigError, match="must be a JSON integer"):
            AreaSchedule(**kw)

    def test_non_integer_k_range_rejected(self):
        with pytest.raises(ConfigError, match="k_range entry"):
            ScanConfig(k_range=(F(3, 2), 2))
        with pytest.raises(ConfigError, match="k_range entry"):
            ScanConfig(k_range=(1.5, 2))
        for bad in [(1, 2, 3), (1,), 5]:
            with pytest.raises(ConfigError, match="k_range"):
                ScanConfig(k_range=bad)

    def test_vanishing_k_plus_shift_rejected(self):
        with pytest.raises(ConfigError, match=r"k = 2 .*shift = -2"):
            ScanConfig(k_range=(1, 3), schedule=AreaSchedule(shift=-2))
        # Outside the range, or with constant discs, nothing divides by 0.
        ScanConfig(k_range=(3, 4), schedule=AreaSchedule(shift=-2))
        ScanConfig(k_range=(1, 2),
                   schedule=AreaSchedule(kind="constant", shift=-1))

    def test_disc_area_refuses_vanishing_k_plus_shift(self):
        sched = AreaSchedule(shift=-1)
        with pytest.raises(ConfigError, match=r"k = 1 .*shift = -1"):
            sched.disc_area(1)
        with pytest.raises(ConfigError, match=r"k = 1 .*shift = -1"):
            sched.link(1)
        assert sched.disc_area(2) == 1
        assert AreaSchedule(kind="constant", shift=-1).disc_area(1) == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ScanConfig.from_obj({})
        with pytest.raises(ConfigError):
            ScanConfig.from_obj({"k_range": [3, 1]})
        with pytest.raises(ConfigError):
            AreaSchedule(kind="nope")
        with pytest.raises(ConfigError, match="c0 must be nonzero"):
            ScanConfig(k_range=(1, 2), c0=0)
        for bad in [{}, {"k_range": None}, {"k_range": "12"},
                    {"k_range": [1]}]:
            with pytest.raises(ConfigError, match=r"k_range must be a pair"):
                ScanConfig.from_obj(bad)
        with pytest.raises(ConfigError, match="must be an object"):
            ScanConfig.from_obj([1, 2])

    def test_omega_is_not_a_scan_config_key(self):
        # ``scan weyl`` has no omega; ``scan nobulk`` takes it as an option.
        with pytest.raises(ConfigError, match="unknown key 'omega'"):
            ScanConfig.from_obj({"k_range": [1, 12], "omega": "1"})

    def test_missing_fields_take_the_dataclass_defaults(self):
        assert ScanConfig.from_obj({"k_range": [1, 2]}) == ScanConfig((1, 2))
        assert AreaSchedule.from_obj({}) == AreaSchedule()
        with pytest.raises(ConfigError, match="k_range must be a pair"):
            ScanConfig()


class TestWeylScan:
    def test_val_column_is_k_times_B(self):
        rows = weyl_scan(power_config(1, 12))
        assert [r["k"] for r in rows] == list(range(1, 13))
        for r in rows:
            assert r["val_Z"] == r["k"] * r["B"]
            assert r["val_Z_over_k"] == r["B"]
            assert r["defect_bound"] == r["val_Z"]

    def test_decaying_schedule_decreases(self):
        rows = weyl_scan(power_config(2, 12))
        col = [r["val_Z_over_k"] for r in rows]
        assert all(a > b for a, b in zip(col, col[1:]))
        assert col[-1] == F(1, 196)

    def test_constant_schedule_does_not_decay(self):
        cfg = ScanConfig(k_range=(1, 6),
                         schedule=AreaSchedule(kind="constant",
                                               beta=F(1, 10)))
        rows = weyl_scan(cfg)
        assert all(r["val_Z_over_k"] == F(1, 10) for r in rows)

    def test_cross_check_against_fresh_lift(self):
        cfg = power_config(2, 6, kind="power", beta=F(1), power=1, shift=1)
        for row in weyl_scan(cfg):
            link = cfg.schedule.link(row["k"])
            cert = critical_data(link, BulkParameter(cfg.c0))
            assert cert.det_valuation() == row["val_Z"]

    @pytest.mark.parametrize("Z, error", [
        (NovikovSeries.zero(1), PrecisionError),
        (NovikovSeries.zero(), DegenerateTraceError),
    ])
    def test_unknown_or_zero_trace_is_not_a_valuation(self, monkeypatch, Z,
                                                      error):
        # Z = O(T) has no valuation to compare with the determinant's, and
        # Z = 0 is degenerate; neither is reported as a mismatch.
        monkeypatch.setattr(cliffordtrace, "_trace", lambda form, blocks: Z)
        with pytest.raises(error):
            weyl_scan(power_config(1, 2))

    def test_row_compares_leading_coefficients(self, monkeypatch):
        # Three times the determinant: its valuation, another leading
        # coefficient.  A comparison of valuations alone would pass it.
        monkeypatch.setattr(cliffordtrace, "_trace",
                            lambda form, blocks: 3 * det_bareiss(form))
        with pytest.raises(AreaError, match="differ at k = 1$"):
            weyl_scan(power_config(1, 2))

    def test_row_that_is_not_morse_names_k(self, monkeypatch):
        def not_morse(link, bulk):
            cert, blocks = linkfam._critical_data(link, bulk)
            return replace(cert, morse=False, reason="the reason"), blocks

        monkeypatch.setattr(harness, "_critical_data", not_morse)
        with pytest.raises(AreaError, match="critical point at k = 1 is not "
                                            "Morse: the reason$"):
            weyl_scan(power_config(1, 2))

    def test_trace_size_limit_refused_before_any_row(self, monkeypatch):
        def no_lift(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(harness, "_critical_data", no_lift)
        with pytest.raises(ConfigError, match=f"WEYL_K_LIMIT = "
                                              f"{WEYL_K_LIMIT}"):
            weyl_scan(power_config(1, WEYL_K_LIMIT + 1))

    @pytest.mark.parametrize("k", [17, 32, 64, WEYL_K_LIMIT])
    def test_rows_above_the_old_trace_limit(self, k):
        # The diagonal chain Hessian factors into k one-generator traces.
        start = time.perf_counter()
        rows = weyl_scan(power_config(k, k))
        assert time.perf_counter() - start < 1
        B = F(1, (k + 2) ** 2)
        assert rows == [{"k": k, "A": B / 2, "B": B, "val_Z": k * B,
                         "val_Z_over_k": B, "defect_bound": k * B}]

    def test_each_row_reads_its_hessian_once_and_rechecks_nothing(
            self, monkeypatch):
        # Op counts that hold on any machine: a row builds its potential
        # and point with the trusted constructors, so no exponent vector or
        # coordinate is checked again, and laurent._square reads its
        # certified Hessian once, for the determinant and the trace alike.
        calls = Counter()

        def counted(name, original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        modules = [m for name, m in sys.modules.items()
                   if name == "novlink" or name.startswith("novlink.")]
        for name in ("_square", "_int_vector"):
            original = getattr(laurent, name)
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name,
                                        counted(name, original))
        for cls in (LaurentPotential, UnitaryPoint):
            monkeypatch.setattr(cls, "__post_init__",
                                counted(cls.__name__, cls.__post_init__))
        rows = weyl_scan(power_config(1, 12))
        assert [row["k"] for row in rows] == list(range(1, 13))
        assert calls == Counter({"_square": 12})
        # The counters see the public paths.
        LaurentPotential(1, {(1,): 1})
        UnitaryPoint([1])
        det_bareiss([[1]])
        assert calls == Counter({"_square": 13, "_int_vector": 1,
                                 "LaurentPotential": 1, "UnitaryPoint": 1})

    def test_csv_determinism(self):
        cfg1 = power_config(2, 8)
        cfg2 = power_config(2, 8)
        text1 = render_rows(weyl_scan(cfg1), WEYL_COLUMNS, "csv")
        text2 = render_rows(weyl_scan(cfg2), WEYL_COLUMNS, "csv")
        assert text1 == text2
        assert text1.splitlines()[0] == "k,A,B,val_Z,val_Z_over_k,defect_bound"

    @pytest.mark.parametrize("output_format", harness.OUTPUT_FORMATS)
    def test_entry_past_the_print_limit_is_a_config_error(self,
                                                          output_format):
        # A 4 000-digit beta over a 1 000-digit (k + shift)^power.
        row = {"k": 1, "B": F(1, 10 ** 4999)}
        with pytest.raises(ConfigError, match="get_int_max_str_digits"):
            render_rows([row], ("k", "B"), output_format)


class TestNobulkScan:
    def test_reference_table(self):
        rows = nobulk_scan((1, 8), F(1))
        for r in rows:
            assert r["idempotent_count"] == r["k"] + 1
            assert r["val_e"] == -F(r["k"], 2)
            assert r["val_e_over_k"] == -F(1, 2)

    def test_omega_two(self):
        rows = nobulk_scan((3, 3), F(2))
        assert rows[0]["val_e"] == -3

    def test_empty_range(self):
        assert nobulk_scan((5, 4), F(1)) == []

    def test_lo_below_one_is_refused_only_in_a_nonempty_range(self):
        assert nobulk_scan((0, -1), 1) == []
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            nobulk_scan((0, 3), 1)

    @pytest.mark.parametrize("lo", [True, "1", 1.0])
    def test_non_integer_k_range_rejected(self, lo):
        with pytest.raises(ConfigError, match="k_range entry"):
            nobulk_scan((lo, 2), 1)

    @pytest.mark.parametrize("k_range", [(1, 2, 3), (1,), 5])
    def test_malformed_k_range_rejected(self, k_range):
        with pytest.raises(ConfigError, match="k_range"):
            nobulk_scan(k_range, 1)

    def test_size_limit(self):
        assert len(symk_idempotents(SYMK_K_LIMIT, F(1))) == SYMK_K_LIMIT + 1
        with pytest.raises(ConfigError, match=str(SYMK_K_LIMIT)):
            symk_idempotents(SYMK_K_LIMIT + 1, F(1))
        # Refused before the first row, not after computing the others.
        with pytest.raises(ConfigError, match=str(SYMK_K_LIMIT)):
            nobulk_scan((1, SYMK_K_LIMIT + 1), F(1))

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 24),
           omega=st.fractions(min_value=F(1, 12), max_value=F(6),
                              max_denominator=12))
    def test_rows_match_the_idempotents_series(self, k, omega):
        idems = symk_idempotents(k, omega)
        vals = {e.valuation() for e in idems}
        assert len(vals) == 1
        val_e = vals.pop()
        assert nobulk_scan((k, k), omega) == [{
            "k": k, "idempotent_count": len(idems), "val_e": val_e,
            "val_e_over_k": val_e / k}]

    def test_builds_no_series(self, monkeypatch):
        calls = []
        raw = NovikovSeries._raw.__func__

        def counting_raw(cls, *args):
            calls.append(args)
            return raw(cls, *args)

        monkeypatch.setattr(NovikovSeries, "_raw", classmethod(counting_raw))
        rows = nobulk_scan((1, 40), F(2, 3))
        assert len(rows) == 40 and calls == []
        symk_idempotents(2, F(2, 3))  # the counter does see series
        assert len(calls) == 9

    def test_builds_each_table_once(self):
        # The top k's table is checked first and makes the last row, so
        # the ascending rows do not evict it and build it again.
        symprodqh._krawtchouk.cache_clear()
        assert len(nobulk_scan((1, 32), F(1))) == 32
        assert symprodqh._krawtchouk.cache_info().misses == 32

    def test_unequal_columns_are_refused(self, monkeypatch):
        columns = symprodqh._idempotent_columns

        def one_top_zeroed(k, omega):
            omega, step, cols = columns(k, omega)
            if k == 3:
                cols[1] = cols[1][:-1] + (0,)
            return omega, step, cols

        monkeypatch.setattr(harness, "_idempotent_columns", one_top_zeroed)
        assert len(nobulk_scan((1, 2), F(1))) == 2
        with pytest.raises(ConfigError,
                           match="idempotent valuations differ at k = 3"):
            nobulk_scan((1, 4), F(1))

    @pytest.mark.parametrize("k_range, omega, match", [
        ((1, SYMK_K_LIMIT + 1), F(1), str(SYMK_K_LIMIT)),
        ((1, 8), F(0), "omega must be positive"),
        ((1, 8), F(-1, 2), "omega must be positive"),
        ((5, 4), F(-1), "omega must be positive"),
        ((5, 4), "abc", "omega"),
    ])
    def test_refused_before_any_row(self, monkeypatch, k_range, omega,
                                    match):
        seen = []
        columns = symprodqh._idempotent_columns

        def recording(k, omega):
            seen.append(k)
            return columns(k, omega)

        monkeypatch.setattr(harness, "_idempotent_columns", recording)
        with pytest.raises(ConfigError, match=match):
            nobulk_scan(k_range, omega)
        assert len(seen) == 1

    def test_json_rendering(self):
        rows = nobulk_scan((1, 2), F(1))
        out = json.loads(render_rows(rows, NOBULK_COLUMNS, "json"))
        assert out[0] == {"k": "1", "idempotent_count": "2",
                          "val_e": "-1/2", "val_e_over_k": "-1/2"}

    @pytest.mark.parametrize("output_format", ["xml", "CSV", None])
    def test_unknown_format_refused(self, output_format):
        rows = nobulk_scan((1, 2), F(1))
        match = "output_format must be csv or json"
        with pytest.raises(ConfigError, match=match):
            render_rows(rows, NOBULK_COLUMNS, output_format)
        with pytest.raises(ConfigError, match=match):
            ScanConfig((1, 2), output_format=output_format)


# Every public entry that takes a rational, with the bad value in that slot.
RATIONAL_ENTRIES = {
    "series precision": lambda x: NovikovSeries([(1, 0)], x),
    "monomial coefficient": lambda x: NovikovSeries.monomial(x, 0),
    "monomial exponent": lambda x: NovikovSeries.monomial(1, x),
    "truncate": lambda x: NovikovSeries.one().truncate(x),
    "assume_precision": lambda x: NovikovSeries.one().assume_precision(x),
    "invert target": lambda x: NovikovSeries.one().invert(x),
    "CircleLinkS2 A": lambda x: CircleLinkS2(2, x, 1),
    "CircleLinkS2 B": lambda x: CircleLinkS2(2, F(1, 8), x),
    "BulkParameter": lambda x: BulkParameter(x),
    "LiftConfig": lambda x: LiftConfig(x),
    "AreaSchedule beta": lambda x: AreaSchedule(beta=x),
    "AreaSchedule annulus_ratio": lambda x: AreaSchedule(annulus_ratio=x),
    "AreaSchedule total_area": lambda x: AreaSchedule(
        kind="power_fixed_total", total_area=x),
    "ScanConfig c0": lambda x: ScanConfig((1, 2), c0=x),
    "SymQHElement omega": lambda x: SymQHElement(1, x, (1, 0)),
    "symk_idempotents omega": lambda x: symk_idempotents(2, x),
    "nobulk_scan omega": lambda x: nobulk_scan((1, 2), x),
    "ModelOrbitSet": lambda x: ModelOrbitSet([0, x]),
    "SpectrumConfig pi_generator": lambda x: SpectrumConfig(2, x, (0, 1)),
    "SpectrumConfig window": lambda x: SpectrumConfig(2, 1, (0, x)),
    "fekete_homogenize": lambda x: fekete_homogenize([1, x]),
    "rigidity_check step_bound": lambda x: rigidity_check([0, 2], [0], x),
    "rigidity_check spectrum": lambda x: rigidity_check([0, x], [0], 1),
    "rigidity_check sample": lambda x: rigidity_check([0, 2], [x], 1),
    "truncation_obstruction cutoff": lambda x: truncation_obstruction(
        LaurentPotential(1, {(1,): 1, (-1,): 1}), x),
}


@pytest.mark.parametrize("bad", [True, 1.5, "abc", "1/0"])
@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRIES))
def test_every_rational_entry_refuses_non_rationals(entry, bad):
    with pytest.raises(ConfigError):
        RATIONAL_ENTRIES[entry](bad)


# Every JSON reader, with a valid object that carries one key it does not
# know.  A misspelt key must not fall back to a default: ``"precision"``
# for ``"prec"`` would make the series exact.
UNKNOWN_KEYS = {
    "series": (NovikovSeries.from_obj, {**ONE, "precision": "3"},
               "precision"),
    "series term": (NovikovSeries.from_obj,
                    [{"c": "1", "e": "0", "prec": "3"}], "prec"),
    "potential": (LaurentPotential.from_obj,
                  {"num_vars": 1, "terms": [], "vars": 1}, "vars"),
    "potential term": (LaurentPotential.from_obj,
                       [{"m": [1], "coeff": ONE, "c": "2"}], "c"),
    "point": (UnitaryPoint.from_obj, {"coords": [ONE], "prec": "3"},
              "prec"),
    "schedule": (AreaSchedule.from_obj, {"kind": "constant"}, "kind"),
    "scan config": (ScanConfig.from_obj,
                    {"k_range": [1, 2], "schedul": {"type": "constant"}},
                    "schedul"),
    "Hessian": (cli._hessian_entries, {"entries": [[ONE]], "rows": 1},
                "rows"),
}


@pytest.mark.parametrize("reader", sorted(UNKNOWN_KEYS))
def test_every_json_reader_refuses_an_unknown_key(reader):
    parse, obj, key = UNKNOWN_KEYS[reader]
    with pytest.raises(ConfigError, match=f"has an unknown key '{key}'"):
        parse(obj)


class TestCLI:
    def _write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def test_scan_weyl_csv(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "scan.json", {
            "k_range": [2, 4],
            "schedule": {"type": "power", "beta": "1", "power": 2,
                         "shift": 2},
        })
        assert main(["scan", "weyl", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "2,1/32,1/16,1/8,1/16,1/8"

    def test_scan_nobulk(self, capsys):
        assert main(["scan", "nobulk", "--kmax", "3", "--omega", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1,2,-1/2,-1/2"
        assert lines[3] == "3,4,-3/2,-1/2"

    @pytest.mark.parametrize("argv, expected", GOLDEN_COMMANDS)
    def test_output_matches_golden(self, argv, expected, capsys):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 0
        assert (capsys.readouterr().out.encode("utf-8")
                == (GOLDEN / expected).read_bytes())

    @pytest.mark.parametrize("argv, expected", [
        (argv, expected) for argv, expected in GOLDEN_COMMANDS
        if argv[:2] == ["trace", "check"]
        or argv[-1] == "weyl_k1_12_config.json"])
    def test_trace_and_weyl_goldens_build_no_algebra(self, monkeypatch, argv,
                                                     expected, capsys):
        # The kernel traces the form itself; the algebra is the tests'
        # reference model.
        def refuse(*args):
            raise AssertionError("a CliffordAlgebraModel was built")

        monkeypatch.setattr(cliffordtrace.CliffordAlgebraModel, "__init__",
                            refuse)
        self.test_output_matches_golden(argv, expected, capsys)

    @pytest.mark.parametrize("argv, expected", [
        (argv, expected) for argv, expected in GOLDEN_COMMANDS
        if argv[:2] == ["trace", "check"]])
    def test_trace_check_reads_its_matrix_once(self, monkeypatch, argv,
                                               expected, capsys):
        # laurent._square reads the outside matrix once, for the trace and
        # the determinant alike, as a Weyl row reads its Hessian.
        calls = []
        square = laurent._square

        def counted(*args):
            calls.append(args[1:])
            return square(*args)

        for module in (laurent, cliffordtrace, cli):
            if getattr(module, "_square", None) is square:
                monkeypatch.setattr(module, "_square", counted)
        self.test_output_matches_golden(argv, expected, capsys)
        assert calls == [("form", "form matrix")]

    def test_parser_is_built_once_and_reused(self, monkeypatch, capsys):
        commands = [
            ["crit", "lift",
             "--potential", str(GOLDEN / "lift_k3_potential.json"),
             "--seed", str(GOLDEN / "lift_k3_seed.json"), "--prec", "3/2"],
            ["qh", "idempotents", "--k", "3", "--omega", "1"],
            ["spectrum", "enum", "--values", "0,1", "--k", "2", "--pi", "100",
             "--window", "-5,5"],
            ["scan", "nobulk", "--kmax", "4", "--omega", "1", "--format",
             "json"],
        ]

        def run(argv):
            assert main(argv) == 0
            return capsys.readouterr().out.encode("utf-8")

        fresh = []
        for argv in commands:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        assert [run(argv) for argv in commands] == fresh
        # An argparse error exits 2 and leaves later calls as they were.
        with pytest.raises(SystemExit) as exc:
            main(["qh", "idempotents", "--k", "x", "--omega", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert [run(argv) for argv in commands] == fresh
        assert builds == [1]

    def test_crit_find_and_lift(self, tmp_path, capsys):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        W = build_chain_potential(link, BulkParameter(F(1)))
        wpath = self._write(tmp_path, "W.json", W.to_obj())
        assert main(["crit", "find", "--potential", wpath]) == 0
        found = json.loads(capsys.readouterr().out)
        assert len(found["points"]) == 4

        seed = self._write(tmp_path, "z.json", found["points"][-1])
        assert main(["crit", "lift", "--potential", wpath, "--seed", seed,
                     "--prec", "2"]) == 0
        lifted = json.loads(capsys.readouterr().out)
        assert lifted["morse"] is True
        assert lifted["det_valuation"] == "1/2"

    def test_crit_lift_seed_of_wrong_length_exits_2(self, tmp_path, capsys):
        seed = self._write(tmp_path, "z.json", {"coords": [ONE, ONE]})
        assert main(["crit", "lift",
                     "--potential", str(GOLDEN / "lift_k3_potential.json"),
                     "--seed", seed, "--prec", "3/2"]) == 2
        captured = capsys.readouterr()
        assert "point has 2 coordinates, potential has 3 variables" \
            in captured.err
        assert captured.out == ""

    def test_crit_lift_with_an_unknown_determinant(self, tmp_path, capsys):
        # At --prec 1/4 = B the k = 2 chain's determinant is O(T^(1/2)): the
        # lift succeeds, the point is not certified Morse, and the
        # determinant's valuation is unknown.
        W = build_chain_potential(CircleLinkS2(2, F(1, 8), F(1, 4)),
                                  BulkParameter(F(1)))
        wpath = self._write(tmp_path, "W.json", W.to_obj())
        seed = self._write(tmp_path, "z.json", {"coords": [ONE, ONE]})
        assert main(["crit", "lift", "--potential", wpath, "--seed", seed,
                     "--prec", "1/4"]) == 0
        lifted = json.loads(capsys.readouterr().out)
        assert lifted["morse"] is False
        assert lifted["det_valuation"] is None
        assert lifted["hessian_det"] == {"terms": [], "prec": "1/2"}

    def test_crit_find_unknown_gradient_layer_exits_2(self, tmp_path, capsys):
        # O(T^3) z1 + z2 + 1/z2: the z1 gradient component has no known
        # term, so its leading layer is unknown, not positive-dimensional.
        W = LaurentPotential(2, {(1, 0): NovikovSeries.zero(3), (0, 1): 1,
                                 (0, -1): 1})
        wpath = self._write(tmp_path, "W.json", W.to_obj())
        assert main(["crit", "find", "--potential", wpath]) == 2
        captured = capsys.readouterr()
        assert "no layer is known" in captured.err
        assert "not zero-dimensional" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("num_vars, terms, free", [
        # z1 + 1/z1 + z2 z3 + 1/(z2 z3): a curve z2 z3 = ±1.
        (3, [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, -1, -1]], "z2, z3"),
        # z1 + 1/z1 in two variables: z2 is in no monomial.
        (2, [[1, 0], [-1, 0]], "z2"),
    ])
    def test_crit_find_names_the_free_variables(self, tmp_path, capsys,
                                                num_vars, terms, free):
        wpath = self._write(tmp_path, "W.json", {
            "num_vars": num_vars,
            "terms": [{"m": m, "coeff": ONE} for m in terms]})
        assert main(["crit", "find", "--potential", wpath]) == 3
        captured = capsys.readouterr()
        assert captured.err == (f"obstruction: leading system not "
                                f"zero-dimensional in {free}\n")
        assert captured.out == ""

    def test_crit_find_irrational_branches_only(self, tmp_path, capsys):
        # z + 2/z: its critical points z^2 = 2 are irrational.
        W = LaurentPotential(1, {(1,): 1, (-1,): 2})
        wpath = self._write(tmp_path, "W.json", W.to_obj())
        assert main(["crit", "find", "--potential", wpath]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"points": []}
        assert captured.err == ""

    def test_crit_find_no_torus_root_beside_a_free_variable(self, tmp_path,
                                                            capsys):
        # z1 + 1/z1 + T (z1^2 z2^2 - z2^2 + 2 z2) / 2 + T^5 (z2 z3 - z3):
        # z1^2 = 1 leaves z1^2 z2 - z2 + 1 = 1, so no point, though z3 is
        # in no leading polynomial.
        def term(m, c, e):
            return {"m": m, "coeff": {"terms": [{"c": c, "e": e}]}}

        wpath = self._write(tmp_path, "W.json", {"num_vars": 3, "terms": [
            term([1, 0, 0], "1", "0"), term([-1, 0, 0], "1", "0"),
            term([2, 2, 0], "1/2", "1"), term([0, 2, 0], "-1/2", "1"),
            term([0, 1, 0], "1", "1"), term([0, 1, 1], "1", "5"),
            term([0, 0, 1], "-1", "5")]})
        assert main(["crit", "find", "--potential", wpath]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"points": []}
        assert captured.err == ""

    def test_crit_find_above_solution_limit_exits_2(self, tmp_path, capsys,
                                                     monkeypatch):
        from novlink import critlift
        from novlink.linkfam import build_chain_potential

        def refuse(*args):
            raise AssertionError("a block was solved")

        monkeypatch.setattr(critlift, "_solve_univariate", refuse)
        k = critlift.LEADING_SOLUTION_LIMIT.bit_length()
        W = build_chain_potential(CircleLinkS2(k, F(1, 8), F(1, 4)),
                                  BulkParameter(F(1)))
        wpath = self._write(tmp_path, "W.json", W.to_obj())
        assert main(["crit", "find", "--potential", wpath]) == 2
        err = capsys.readouterr().err
        assert f"up to {2 ** k} solutions" in err
        assert "LEADING_SOLUTION_LIMIT" in err

    def test_crit_find_block_not_in_radicals_exits_2(self, tmp_path,
                                                     capsys):
        # z1^6 + 6 z1 + 6 z1 z2 + 3 z2^2: its leading block reduces to
        # z1^5 - z1 + 1 = 0, which has no root in radicals.
        W = {"num_vars": 2, "terms": [
            {"m": m, "coeff": {"terms": [{"c": c, "e": "0"}]}}
            for m, c in (([6, 0], "1"), ([1, 0], "6"), ([1, 1], "6"),
                         ([0, 2], "3"))]}
        wpath = self._write(tmp_path, "W.json", W)
        assert main(["crit", "find", "--potential", wpath]) == 2
        captured = capsys.readouterr()
        assert "cannot all be written in radicals" in captured.err
        assert captured.out == ""

    def test_trace_check(self, tmp_path, capsys):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        cert = critical_data(link, BulkParameter(F(1)))
        hpath = self._write(tmp_path, "H.json", {
            "entries": [[e.to_obj() for e in row] for row in cert.hessian]})
        assert main(["trace", "check", "--hessian", hpath]) == 0
        out = capsys.readouterr().out
        assert "val(Z) = 1/2" in out
        assert "leading terms match: yes" in out

    def test_trace_check_unknown_trace_exits_2(self, tmp_path, capsys):
        hpath = self._write(tmp_path, "H.json",
                            [[{"terms": [], "prec": "2"}]])
        assert main(["trace", "check", "--hessian", hpath]) == 2
        captured = capsys.readouterr()
        assert "Z = O(T^2)" in captured.out
        assert "degenerate" not in captured.out + captured.err

    def test_trace_check_unknown_determinant_exits_2(self, tmp_path,
                                                     capsys):
        # Bareiss leaves this determinant O(T^(-2/3)), below val(Z) = 2/3:
        # its leading layer is unknown, so no mismatch is known.
        def series(terms, prec=None):
            obj = {"terms": [{"c": c, "e": e} for c, e in terms]}
            return obj if prec is None else {**obj, "prec": prec}

        a, b, c = (series([("5/2", "2")]), series([("2", "1/2")], "2"),
                   series([], "5/2"))
        d = series([("2/5", "-4"), ("-11/5", "-2")])
        e = series([("-3", "-2/3"), ("7/2", "11/4")], "107/20")
        hpath = self._write(tmp_path, "H.json",
                            [[a, b, c], [b, d, e], [c, e, series([], "7/2")]])
        assert main(["trace", "check", "--hessian", hpath]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "Z = -45/2*T^(2/3) + O(T^1)", "det = O(T^(-2/3))",
            "val(Z) = 2/3"]
        assert captured.err == ("error: no layer is known: the determinant "
                                "is O(T^(-2/3))\n")

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # json.load recurses once per nesting level.
        hpath = tmp_path / "H.json"
        hpath.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["trace", "check", "--hessian", str(hpath)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"config error: {hpath}: JSON nested too deeply\n"
        assert captured.out == ""

    @pytest.mark.parametrize("content", [
        b"\xff",
        b"[[",
        b'[[{"terms": [{"c": ' + b"7" * 5000 + b', "e": "0"}]}]]',
    ], ids=["not-utf-8", "not-json", "integer-past-the-print-limit"])
    def test_unreadable_input_file_names_its_path(self, tmp_path, capsys,
                                                  content):
        # json.load refuses an integer literal of more than 4 300 digits.
        hpath = tmp_path / "H.json"
        hpath.write_bytes(content)
        assert main(["trace", "check", "--hessian", str(hpath)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {hpath}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["qh", "idempotents", "--k", "1", "--omega", "1e5000"],
        ["scan", "nobulk", "--kmax", "2", "--omega", "1e5000"],
        ["qh", "idempotents", "--k", "1", "--omega", "1e100000000"],
    ])
    def test_option_past_the_digit_limit_exits_2(self, capsys, argv):
        # 1e5000 could not be printed, and Fraction takes seconds to build
        # 1e100000000.
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: omega '{argv[-1]}' has more "
                                f"than DIGIT_LIMIT = {DIGIT_LIMIT} digits\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command, obj, limit", [
        (["trace", "check", "--hessian"],
         [[{"terms": [{"c": "7" * 3000, "e": "0"}]}, []],
          [[], {"terms": [{"c": "7" * 3000, "e": "0"}]}]],
         "sys.get_int_max_str_digits() = "),
        *((["scan", "weyl", "--config"],
           {"k_range": [1, 1], "schedule": {"type": "power", "beta": "1",
                                            **schedule}},
           f"DISC_DIGIT_LIMIT = {DISC_DIGIT_LIMIT}")
          for schedule in ({"power": 10 ** 9, "shift": 2},
                           {"power": 2_000_000},
                           {"power": 2, "shift": 10 ** 3000})),
    ], ids=["trace-3000-digit-hessian", "weyl-power-1e9", "weyl-power-2e6",
            "weyl-shift-1e3000"])
    def test_value_too_large_to_print_exits_2(self, tmp_path, capsys,
                                              command, obj, limit):
        # Z has a 6 000-digit coefficient, and (k + shift)^power would have
        # about 5e8, 1e6 or 6 000 digits, built before the first row.
        path = self._write(tmp_path, "input.json", obj)
        start = time.perf_counter()
        assert main([*command, path]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert limit in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_spectrum_point_too_large_to_print_exits_2(self, capsys):
        # Two 2 200-digit denominators make a 4 400-digit sum.
        values = f"1/{10 ** 2199},1/{10 ** 2199 + 1}"
        assert main(["spectrum", "enum", "--values", values, "--k", "2",
                     "--pi", "1", "--window", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: a value has more than "
                                       "sys.get_int_max_str_digits() = ")
        assert captured.out == ""

    @pytest.mark.parametrize("entry", [
        {"terms": [[0] * 100_000]},
        {"terms": [{"c": [0] * 100_000, "e": "0"}]},
        {"terms": [{"c": "1" * 100_000, "e": "0"}]},
        functools.reduce(lambda x, _: [x], range(500), []),
    ], ids=["long-term", "long-list-coefficient", "long-string-coefficient",
            "deep-list"])
    def test_refusal_echoes_a_bounded_part_of_the_input(self, tmp_path,
                                                         capsys, entry):
        hpath = self._write(tmp_path, "H.json", [[entry]])
        assert main(["trace", "check", "--hessian", hpath]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert len(captured.err.encode("utf-8")) < 200
        assert captured.out == ""

    def test_trace_check_exact_zero_hessian_exits_3(self, tmp_path, capsys):
        hpath = self._write(tmp_path, "H.json", [[[]]])
        assert main(["trace", "check", "--hessian", hpath]) == 3
        out = capsys.readouterr().out
        for line in ("Z = 0", "det = 0", "val(Z) = +inf (degenerate)",
                     "leading terms match: no"):
            assert line in out.splitlines()

    def test_trace_check_over_size_limit_exits_2(self, tmp_path, capsys):
        # One tridiagonal component of 17 generators: 2^17 mask visits
        # alone pass the work limit.
        n = 17
        one = {"terms": [{"c": "1", "e": "0"}]}
        hpath = self._write(tmp_path, "H.json", [
            [one if abs(i - j) <= 1 else {"terms": []} for j in range(n)]
            for i in range(n)])
        assert main(["trace", "check", "--hessian", hpath]) == 2
        captured = capsys.readouterr()
        assert f"TRACE_WORK_LIMIT = {TRACE_WORK_LIMIT}" in captured.err
        assert captured.out == ""

    def test_trace_check_over_work_limit_exits_2(self, tmp_path, capsys):
        # Dense and of two-term entries: hours of work if it were started.
        n = 12
        entry = {"terms": [{"c": "1", "e": "0"}, {"c": "2", "e": "1/2"}]}
        hpath = self._write(tmp_path, "H.json", [[entry] * n] * n)
        start = time.perf_counter()
        assert main(["trace", "check", "--hessian", hpath]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert f"TRACE_WORK_LIMIT = {TRACE_WORK_LIMIT}" in captured.err
        assert captured.out == ""

    def test_scan_weyl_over_size_limit_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "scan.json",
                          {"k_range": [1, WEYL_K_LIMIT + 1]})
        assert main(["scan", "weyl", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert f"WEYL_K_LIMIT = {WEYL_K_LIMIT}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad", [
        [1, 2], {"entries": 5}, {"x": 1}, "abc", {"entries": [[], 1]}])
    def test_trace_check_malformed_hessian_exits_2(self, tmp_path, capsys,
                                                   bad):
        hpath = self._write(tmp_path, "H.json", bad)
        assert main(["trace", "check", "--hessian", hpath]) == 2
        captured = capsys.readouterr()
        assert "config error: a Hessian must be a list of rows" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad", [
        {"c": 0.5, "e": "0"},
        {"c": "1", "e": 0.5},
        {"c": True, "e": "0"},
        {"c": "1/0", "e": "0"},
    ])
    def test_malformed_series_number_exits_2(self, tmp_path, capsys, bad):
        hpath = self._write(tmp_path, "H.json", [[{"terms": [bad]}]])
        assert main(["trace", "check", "--hessian", hpath]) == 2
        W = {"num_vars": 1,
             "terms": [{"m": [1], "coeff": {"terms": [bad]}},
                       {"m": [-1], "coeff": {"terms": [{"c": "1",
                                                         "e": "0"}]}}]}
        wpath = self._write(tmp_path, "W.json", W)
        assert main(["crit", "find", "--potential", wpath]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [[1.5], [True], ["1"]])
    def test_non_integer_monomial_exponent_exits_2(self, tmp_path, capsys,
                                                   m):
        one = {"terms": [{"c": "1", "e": "0"}]}
        wpath = self._write(tmp_path, "W.json", {
            "num_vars": 1,
            "terms": [{"m": m, "coeff": one}, {"m": [-1], "coeff": one}]})
        assert main(["crit", "find", "--potential", wpath]) == 2
        assert "monomial exponents" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["find", "lift"])
    @pytest.mark.parametrize("key", ["m", "coeff", "c", "e"])
    def test_potential_term_missing_key_exits_2(self, tmp_path, capsys,
                                                command, key):
        term = {"m": [1], "coeff": {"terms": [{"c": "1", "e": "0"}]}}
        if key in ("c", "e"):
            del term["coeff"]["terms"][0][key]
        else:
            del term[key]
        wpath = self._write(tmp_path, "W.json", {
            "num_vars": 1, "terms": [term, {"m": [-1], "coeff": ONE}]})
        zpath = self._write(tmp_path, "z.json", {"coords": [ONE]})
        argv = ["crit", command, "--potential", wpath]
        if command == "lift":
            argv += ["--seed", zpath, "--prec", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: " in captured.err
        assert f'has no "{key}"' in captured.err
        assert captured.out == ""

    def test_qh_idempotents(self, capsys):
        assert main(["qh", "idempotents", "--k", "5", "--omega", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("val/k = -1/2") == 6

    def test_spectrum_enum(self, capsys):
        assert main(["spectrum", "enum", "--values", "0,1", "--k", "2",
                     "--pi", "100", "--window", "-5,5"]) == 0
        assert json.loads(capsys.readouterr().out) == ["0", "1", "2"]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["scan", "weyl", "--config",
                     str(tmp_path / "nope.json")]) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "bad.json", {"k_range": [4, 1]})
        assert main(["scan", "weyl", "--config", cfg]) == 2

    def test_obstruction_exits_3(self, tmp_path, capsys):
        # Seed that is not a leading-order critical point.
        W = {"num_vars": 1,
             "terms": [
                 {"m": [1], "coeff": {"terms": [{"c": "1", "e": "0"}],
                                      "prec": "inf"}},
                 {"m": [-1], "coeff": {"terms": [{"c": "4", "e": "0"}],
                                       "prec": "inf"}},
             ]}
        wpath = self._write(tmp_path, "W.json", W)
        zpath = self._write(tmp_path, "z.json", {
            "coords": [{"terms": [{"c": "1", "e": "0"}], "prec": "inf"}]})
        assert main(["crit", "lift", "--potential", wpath, "--seed", zpath,
                     "--prec", "2"]) == 3

    def test_fixed_total_schedule_abort_exits_3(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "scan.json", {
            "k_range": [2, 12],
            "schedule": {"type": "power_fixed_total", "beta": "1",
                         "power": 2, "shift": 2, "total_area": "1"},
        })
        assert main(["scan", "weyl", "--config", cfg]) == 3
        assert "k = 2" in capsys.readouterr().err

    @pytest.mark.parametrize("total, code", [("2/9", 0), ("1", 3),
                                             ("1/9", 3)])
    def test_fixed_total_schedule_at_k_1(self, tmp_path, capsys, total,
                                         code):
        # B_1 = 1/9 on this schedule; a lone link needs total_area = 2 B_1.
        cfg = self._write(tmp_path, "scan.json", {
            "k_range": [1, 1],
            "schedule": {"type": "power_fixed_total", "beta": "1",
                         "power": 2, "shift": 2, "total_area": total},
        })
        assert main(["scan", "weyl", "--config", cfg]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.splitlines() == [
                ",".join(WEYL_COLUMNS), "1,1/18,1/9,1/9,1/9,1/9"]
        else:
            assert "k = 1" in captured.err

    @pytest.mark.parametrize("argv, expected", [
        (["scan", "weyl", "--config", str(GOLDEN / "weyl_k1_6_config.json")],
         "weyl_k1_6.csv"),
        (["scan", "nobulk", "--kmax", "8", "--omega", "1"],
         "nobulk_k1_8.csv"),
    ])
    def test_scan_out_writes_the_golden_bytes(self, tmp_path, capsys, argv,
                                              expected):
        out = tmp_path / expected
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == (GOLDEN / expected).read_bytes()

    @pytest.mark.parametrize("command, obj, message", [
        (["trace", "check", "--hessian"], [[ONE, ONE]],
         "form matrix is not square"),
        (["trace", "check", "--hessian"], [[ONE, ONE], [[], ONE]],
         "form matrix is not symmetric"),
        (["scan", "weyl", "--config"],
         {"k_range": [1, 2], "schedule": {"type": "power_fixed_total"}},
         "power_fixed_total needs total_area"),
        (["scan", "weyl", "--config"],
         {"k_range": [1, 2], "schedule": {"annulus_ratio": 1}},
         "annulus_ratio must lie in (0, 1)"),
        (["scan", "weyl", "--config"],
         {"k_range": [1, 2], "schedule": {"beta": 0}},
         "beta must be positive"),
        (["scan", "weyl", "--config"], {"k_range": [1, 2], "c0": 0},
         "c0 must be nonzero"),
        (["crit", "find", "--potential"], {"num_vars": 0, "terms": []},
         "num_vars must be a positive integer"),
    ])
    def test_malformed_input_file_exits_2(self, tmp_path, capsys, command,
                                          obj, message):
        path = self._write(tmp_path, "input.json", obj)
        assert main(command + [path]) == 2
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("option, value, message", [
        ("--window", "1,2,3",
         "window must be a pair (lo, hi), got ['1', '2', '3']"),
        ("--pi", "0", "pi_generator must be positive"),
        ("--values", "0,,1", "values '' is not a rational number"),
        ("--values", ",", "values '' is not a rational number"),
    ])
    def test_spectrum_enum_malformed_option_exits_2(self, capsys, option,
                                                    value, message):
        argv = ["spectrum", "enum", "--values", "0,1", "--k", "2",
                "--pi", "100", "--window", "-5,5"]
        argv[argv.index(option) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "enum", "--values", "0,1", "--k", "2", "--pi", "1/0",
         "--window", "-5,5"],
        ["spectrum", "enum", "--values", "0,1/0", "--k", "2", "--pi", "100",
         "--window", "-5,5"],
        ["spectrum", "enum", "--values", "0,1", "--k", "2", "--pi", "100",
         "--window", "-5,5/0"],
        ["qh", "idempotents", "--k", "2", "--omega", "1/0"],
        ["scan", "nobulk", "--kmax", "3", "--omega", "2/0"],
        ["crit", "lift", "--potential", str(GOLDEN / "lift_k3_potential.json"),
         "--seed", str(GOLDEN / "lift_k3_seed.json"), "--prec", "1/0"],
    ])
    def test_zero_denominator_option_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert "is not a rational number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("schedule, top", [
        ({"beta": 0.5}, {}),
        ({"beta": True}, {}),
        ({"annulus_ratio": 0.5}, {}),
        ({"type": "power_fixed_total", "total_area": 1.5}, {}),
        ({"power": 2.5}, {}),
        ({"power": "2"}, {}),
        ({"shift": 1.0}, {}),
        ({"shift": True}, {}),
        ({}, {"k_range": [1.7, 2]}),
        ({}, {"k_range": [1, True]}),
        ({}, {"k_range": [1, 2, 3]}),
        ({}, {"c0": 0.5}),
        ([], {}),
        ({"shift": -2, "type": "power_fixed_total", "total_area": 1},
         {"k_range": [2, 3]}),
    ])
    def test_malformed_scan_number_exits_2(self, tmp_path, capsys,
                                           schedule, top):
        obj = {"k_range": [1, 2], "schedule": schedule}
        obj.update(top)
        cfg = self._write(tmp_path, "scan.json", obj)
        assert main(["scan", "weyl", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_vanishing_k_plus_shift_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "scan.json",
                          {"k_range": [1, 2], "schedule": {"shift": -1}})
        assert main(["scan", "weyl", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "k = 1" in captured.err and "shift = -1" in captured.err
        assert captured.out == ""

    def test_scan_config_rationals_parse(self):
        cfg = ScanConfig.from_obj({
            "k_range": [1, 3], "c0": "-2",
            "schedule": {"type": "power_fixed_total", "beta": "1/2",
                         "power": 1, "shift": 0, "annulus_ratio": "1/3",
                         "total_area": 1}})
        assert cfg.c0 == -2
        assert cfg.schedule.beta == F(1, 2)
        assert cfg.schedule.annulus_ratio == F(1, 3)
        assert cfg.schedule.total_area == 1

    @pytest.mark.parametrize("command, obj, key", [
        ("find", {"num_vars": 1, "terms": [], "vars": 1}, "vars"),
        ("find", [{"m": [1], "coeff": ONE, "sign": 1}], "sign"),
        ("find", [{"m": [1], "coeff": {**ONE, "precision": "3"}}],
         "precision"),
        ("lift", {"coords": [ONE], "prec": "3"}, "prec"),
        ("trace", {"entries": [[ONE]], "rows": 1}, "rows"),
        ("trace", [[{"terms": [{"c": "1", "e": "0", "p": "3"}]}]], "p"),
        ("weyl", {"k_range": [1, 2], "schedul": {"type": "constant"}},
         "schedul"),
        ("weyl", {"k_range": [1, 2], "schedule": {"typ": "constant"}},
         "typ"),
    ])
    def test_unknown_key_in_input_file_exits_2(self, tmp_path, capsys,
                                               command, obj, key):
        path = self._write(tmp_path, "input.json", obj)
        wpath = self._write(tmp_path, "W.json", [{"m": [1], "coeff": ONE}])
        argv = {
            "find": ["crit", "find", "--potential", path],
            "lift": ["crit", "lift", "--potential", wpath, "--seed", path,
                     "--prec", "2"],
            "trace": ["trace", "check", "--hessian", path],
            "weyl": ["scan", "weyl", "--config", path],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: " in captured.err
        assert f"has an unknown key '{key}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [[1], {"coords": 1}, "z", {}])
    def test_malformed_seed_point_exits_2(self, tmp_path, capsys, seed):
        one = {"terms": [{"c": "1", "e": "0"}]}
        wpath = self._write(tmp_path, "W.json", {
            "num_vars": 1,
            "terms": [{"m": [1], "coeff": one}, {"m": [-1], "coeff": one}]})
        zpath = self._write(tmp_path, "z.json", seed)
        assert main(["crit", "lift", "--potential", wpath, "--seed", zpath,
                     "--prec", "2"]) == 2
        assert "coords" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["qh", "idempotents", "--k", str(SYMK_K_LIMIT + 1), "--omega", "1"],
        ["scan", "nobulk", "--kmax", str(SYMK_K_LIMIT + 1), "--omega", "1"],
    ])
    def test_symmetric_power_over_size_limit_exits_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(SYMK_K_LIMIT) in err and str(SYMK_K_LIMIT + 1) in err

    def test_crit_lift_over_work_limit_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["crit", "lift",
                     "--potential", str(GOLDEN / "lift_k3_potential.json"),
                     "--seed", str(GOLDEN / "lift_k3_seed.json"),
                     "--prec", "100"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert f"LIFT_WORK_LIMIT = {LIFT_WORK_LIMIT}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["qh", "idempotents", "--k", "2", "--omega", "0"],
        ["scan", "nobulk", "--kmax", "3", "--omega", "-1"],
    ])
    def test_symmetric_power_nonpositive_omega_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "omega must be positive" in captured.err
        assert captured.out == ""

    def test_spectrum_enum_over_size_limit_exits_2(self, capsys):
        assert main(["spectrum", "enum", "--values", "0", "--k", "1",
                     "--pi", "1/1000000", "--window", "-1000,1000"]) == 2
        err = capsys.readouterr().err
        assert "2000000001" in err and "1000000" in err

    def test_spectrum_enum_count_too_long_to_print_exits_2(self, capsys):
        # C(10^9 + 19 999, 19 999) multisets: a point count of more digits
        # than Python prints, refused without a traceback.
        values = ",".join(map(str, range(1, 20001)))
        assert main(["spectrum", "enum", "--values", values, "--k",
                     str(10 ** 9), "--pi", "1", "--window", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: a value has more than "
                                       "sys.get_int_max_str_digits()")
        assert captured.out == ""

    @pytest.mark.parametrize("values, k, pi, steps", [
        ("1", 10 ** 9, "1", 10 ** 9),
        ("1,2", 10 ** 5, "1000000", 10 ** 5 * (10 ** 5 + 1)),
    ])
    def test_spectrum_enum_over_step_limit_exits_2_at_once(
            self, capsys, values, k, pi, steps):
        # Few points, but a period-budget program of k rounds.
        start = time.perf_counter()
        assert main(["spectrum", "enum", "--values", values, "--k", str(k),
                     "--pi", pi, "--window", "0,1"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: spectrum request may need {steps} steps to build "
            f"its sums, above SPECTRUM_POINT_LIMIT = 1000000\n")
        assert captured.out == ""


#: The exit code and stderr label ``main`` gives each error, as they were
#: when ``cli`` listed the classes by name.
EXIT_POLICY = {
    errors.NovlinkError: (2, "error"),
    errors.ConfigError: (2, "config error"),
    errors.PrecisionError: (2, "error"),
    errors.NotInvertibleError: (2, "error"),
    errors.InexactDivisionError: (2, "error"),
    errors.NonUnitaryError: (2, "error"),
    errors.AlgebraMismatchError: (2, "error"),
    errors.SingularMatrixError: (2, "error"),
    errors.SubadditivityError: (2, "error"),
    errors.Obstruction: (3, "obstruction"),
    errors.NotZeroDimensionalError: (3, "obstruction"),
    errors.NonMorseError: (3, "obstruction"),
    errors.ObstructedError: (3, "obstruction"),
    errors.DegenerateTraceError: (3, "obstruction"),
    errors.SpectrumError: (3, "obstruction"),
    errors.AreaError: (3, "obstruction"),
}


def library_errors(cls=errors.NovlinkError):
    yield cls
    for sub in cls.__subclasses__():
        yield from library_errors(sub)


@pytest.mark.parametrize("exc, code, label", [
    *((cls("the message"), *EXIT_POLICY.get(cls, (None, None)))
      for cls in library_errors()),
    (OSError("the message"), 2, "config error"),
], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None)
def test_each_error_exits_with_its_code_and_label(monkeypatch, capsys, exc,
                                                   code, label):
    # Every library error is in the table, so a new one must be given its
    # outcome here.
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "symk_idempotents", fail)
    assert main(["qh", "idempotents", "--k", "2", "--omega", "1"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{label}: {exc}\n"
    assert captured.out == ""


def test_a_plain_value_error_propagates(monkeypatch):
    # A ValueError is a bug in the library, not a malformed input.
    def fail(*args):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "symk_idempotents", fail)
    with pytest.raises(ValueError, match="a bug"):
        main(["qh", "idempotents", "--k", "2", "--omega", "1"])


@pytest.mark.parametrize("exc", [
    json.JSONDecodeError("the message", "{", 1),
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "the message"),
], ids=lambda x: type(x).__name__)
def test_a_decode_error_from_library_code_propagates(monkeypatch, exc):
    # _load_json turns an input file's decode errors into ConfigError, so
    # one raised by a library call is a bug, as a plain ValueError is.
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "symk_idempotents", fail)
    with pytest.raises(type(exc)):
        main(["qh", "idempotents", "--k", "2", "--omega", "1"])
