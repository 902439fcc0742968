"""Scan driver tables, configuration schemas and the CLI front end."""

from __future__ import annotations

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from novlink import harness
from novlink.cli import main
from novlink.cliffordtrace import TRACE_N_LIMIT
from novlink.errors import AreaError, ConfigError
from novlink.harness import (
    NOBULK_COLUMNS,
    WEYL_COLUMNS,
    AreaSchedule,
    ScanConfig,
    nobulk_scan,
    render_rows,
    weyl_scan,
)
from novlink.linkfam import BulkParameter, CircleLinkS2, critical_data
from novlink.symprodqh import SYMK_K_LIMIT, symk_idempotents


# Inputs and outputs of two CLI calls, written by the Fraction-tuple series
# arithmetic that preceded the integer form: ``crit lift`` of the k = 3 chain
# link (A = 1/8, B = 1/4, bulk 1) with three extra monomials of valuation
# B + 1/16, B + 1/8 and B + 3/16, from its all-plus seed to precision 3/2,
# and ``scan weyl`` for k = 1..6 on the power schedule (beta 1, power 2,
# shift 2).  ``weyl_k1_12.csv`` is the same scan for k = 1..12, the
# benchmark's size, written by the tuple-keyed trace that preceded the
# bitmask one.  ``lift_k3_find.json`` is ``crit find`` on the same k = 3
# potential, written when sympy solved every leading system whole.  The
# README's other CLI examples have goldens too: ``trace check`` on the
# Hessian of the README's k = 3 chain link (``trace_k3_hessian.json``),
# ``qh idempotents``, ``spectrum enum`` and ``scan nobulk``.  Any change in
# these bytes is a change in results.
GOLDEN = Path(__file__).parent / "golden"


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
               "c0": "1", "omega": "1", "output_format": "csv"}
        cfg = ScanConfig.from_obj(obj)
        assert cfg.k_range == (1, 12)
        assert cfg.schedule.disc_area(1) == F(1, 9)

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

    def test_trace_size_limit_refused_before_any_row(self, monkeypatch):
        def no_lift(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(harness, "critical_data", no_lift)
        with pytest.raises(ConfigError, match=f"TRACE_N_LIMIT = "
                                              f"{TRACE_N_LIMIT}"):
            weyl_scan(power_config(1, TRACE_N_LIMIT + 1))

    def test_csv_determinism(self):
        cfg1 = power_config(2, 8)
        cfg2 = power_config(2, 8)
        text1 = render_rows(weyl_scan(cfg1), WEYL_COLUMNS, "csv")
        text2 = render_rows(weyl_scan(cfg2), WEYL_COLUMNS, "csv")
        assert text1 == text2
        assert text1.splitlines()[0] == "k,A,B,val_Z,val_Z_over_k,defect_bound"


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

    def test_size_limit(self):
        assert len(symk_idempotents(SYMK_K_LIMIT, F(1))) == SYMK_K_LIMIT + 1
        with pytest.raises(ConfigError, match=str(SYMK_K_LIMIT)):
            symk_idempotents(SYMK_K_LIMIT + 1, F(1))
        # Refused before the first row, not after computing the others.
        with pytest.raises(ConfigError, match=str(SYMK_K_LIMIT)):
            nobulk_scan((1, SYMK_K_LIMIT + 1), F(1))

    def test_json_rendering(self):
        rows = nobulk_scan((1, 2), F(1))
        out = json.loads(render_rows(rows, NOBULK_COLUMNS, "json"))
        assert out[0] == {"k": "1", "idempotent_count": "2",
                          "val_e": "-1/2", "val_e_over_k": "-1/2"}


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

    @pytest.mark.parametrize("argv, expected", [
        (["crit", "lift", "--potential", "lift_k3_potential.json",
          "--seed", "lift_k3_seed.json", "--prec", "3/2"],
         "lift_k3_prec_3_2.json"),
        (["scan", "weyl", "--config", "weyl_k1_6_config.json"],
         "weyl_k1_6.csv"),
        (["scan", "weyl", "--config", "weyl_k1_12_config.json"],
         "weyl_k1_12.csv"),
        (["crit", "find", "--potential", "lift_k3_potential.json"],
         "lift_k3_find.json"),
        (["trace", "check", "--hessian", "trace_k3_hessian.json"],
         "trace_k3_check.txt"),
        (["qh", "idempotents", "--k", "5", "--omega", "1"],
         "qh_idempotents_k5.txt"),
        (["spectrum", "enum", "--values", "0,1", "--k", "2", "--pi", "100",
          "--window", "-5,5"], "spectrum_enum_k2.json"),
        (["scan", "nobulk", "--kmax", "8", "--omega", "1"], "nobulk_k1_8.csv"),
    ])
    def test_output_matches_golden(self, argv, expected, capsys):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 0
        assert (capsys.readouterr().out.encode("utf-8")
                == (GOLDEN / expected).read_bytes())

    def test_crit_find_and_lift(self, tmp_path, capsys):
        link = CircleLinkS2(2, F(1, 8), F(1, 4))
        from novlink.linkfam import build_chain_potential
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

    def test_trace_check_over_size_limit_exits_2(self, tmp_path, capsys):
        n = TRACE_N_LIMIT + 1
        one = {"terms": [{"c": "1", "e": "0"}]}
        hpath = self._write(tmp_path, "H.json", [
            [one if i == j else [] for j in range(n)] for i in range(n)])
        assert main(["trace", "check", "--hessian", hpath]) == 2
        captured = capsys.readouterr()
        assert f"TRACE_N_LIMIT = {TRACE_N_LIMIT}" in captured.err
        assert captured.out == ""

    def test_scan_weyl_over_size_limit_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "scan.json",
                          {"k_range": [1, TRACE_N_LIMIT + 1]})
        assert main(["scan", "weyl", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert f"TRACE_N_LIMIT = {TRACE_N_LIMIT}" in captured.err
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
