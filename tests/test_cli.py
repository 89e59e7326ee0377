import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import cli, orbits
from wcatalan.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_RESOURCE, main
from wcatalan.morse import Mod3rPeriodCheck, PadicConflict, PadicFit
from wcatalan.periodicity import PeriodReport
from wcatalan.weights import ConditionReport, ConditionWitness

from test_envelopes import CASES, case


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCompute:
    def test_documented_example(self, capsys):
        env = run_json(capsys, "compute", "--weight", "preset:ones", "--n", "3")
        assert env["command"] == "compute"
        assert env["result"] == 5
        assert set(env) == {"command", "parameters", "result", "elapsed_ms"}

    def test_modular(self, capsys):
        env = run_json(
            capsys, "compute", "--weight", "preset:morse", "--n", "3", "--mod", "7"
        )
        assert env["result"] == 3

    def test_q_ary(self, capsys):
        env = run_json(capsys, "compute", "--weight", "preset:ones", "--n", "2", "--q", "3")
        assert env["result"] == 3

    def test_deterministic_payload(self, capsys):
        first = run_json(capsys, "compute", "--weight", "poly:1,4,4", "--n", "6")
        second = run_json(capsys, "compute", "--weight", "poly:1,4,4", "--n", "6")
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second


class TestPeriod:
    def test_documented_example(self, capsys):
        env = run_json(capsys, "period", "--weight", "preset:morse", "--mod", "7")
        assert env["result"]["period"] == 12
        assert env["result"]["preperiod"] == 0
        assert env["result"]["certified"] is True
        assert env["result"]["window"] == 5000

    def test_mod_eleven(self, capsys):
        env = run_json(
            capsys, "period", "--weight", "preset:morse", "--mod", "11",
            "--max-terms", "1000",
        )
        assert env["result"]["period"] == 55


class TestPQ:
    def test_documented_example(self, capsys):
        env = run_json(
            capsys, "pq", "--weight", "preset:morse", "--truncate", "3", "--mod", "7"
        )
        assert env["result"]["P"] == [1, 1]
        assert env["result"]["Q"] == [1, 0, 4]

    def test_exact(self, capsys):
        env = run_json(capsys, "pq", "--weight", "preset:morse", "--truncate", "2")
        assert env["result"]["P"] == [1, -34]
        assert env["result"]["Q"] == [1, -35, 25]


class TestCheck:
    def test_holds(self, capsys):
        env = run_json(capsys, "check", "--weight", "preset:morse", "--theorem", "main")
        assert env["result"]["holds"] is True

    def test_failure_is_reported_not_fatal(self, capsys):
        env = run_json(capsys, "check", "--weight", "poly:1,2", "--theorem", "main")
        assert env["result"]["holds"] is False
        assert env["result"]["clauses"]["4-divides-diff-1"] is False

    def test_qmain_spelling(self, capsys):
        env = run_json(capsys, "check", "--weight", "poly:1,9", "--theorem", "qmain:3")
        assert env["result"]["holds"] is True


class TestOrbits:
    def test_sizes(self, capsys):
        env = run_json(capsys, "orbits", "--n", "3")
        rows = {r["shape"]: r["size"] for r in env["result"]}
        assert rows == {"((()))": 4, "(()())": 1}

    def test_minimal_with_reduce(self, capsys):
        env = run_json(capsys, "orbits", "--n", "14", "--minimal", "--reduce")
        assert len(env["result"]) == 15
        assert all(r["removed"] == 8 for r in env["result"])

    def test_cap_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "orbits", "--n", "25")
        assert code == 4
        assert "capped" in err

    def test_cap_override(self, capsys):
        env = run_json(capsys, "orbits", "--n", "17", "--max-orbit-n", "17")
        assert len(env["result"]) == 56011

    def test_enumeration_builds_no_shape(self, capsys, monkeypatch):
        # the rows go from the enumerator's columns to the writer; only
        # --reduce, which reduces each shape, builds them
        built = []
        new = orbits.OrbitShape.__new__

        def counted(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(orbits.OrbitShape, "__new__", counted)
        env = run_json(capsys, "orbits", "--n", "10")
        assert len(env["result"]) == 207 and built == []
        command = "orbits --n 7 --reduce"
        assert case(command) == next(c for c in CASES if c[0] == command)
        assert built

    def test_minimal_builds_no_shape(self, capsys, monkeypatch):
        # the construction's parens, reduced and removed columns go straight
        # to the writer: no shape, and no `reduce_orbit` or `orbit_size` call
        built = []
        new = orbits.OrbitShape.__new__

        def counted(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("called on a minimal row")

        monkeypatch.setattr(orbits.OrbitShape, "__new__", counted)
        monkeypatch.setattr(orbits, "reduce_orbit", refused)
        monkeypatch.setattr(orbits, "orbit_size", refused)
        env = run_json(capsys, "orbits", "--n", "46", "--minimal", "--reduce")
        assert len(env["result"]) == 105 and built == []
        # 47 = 2^5 + 2^3 + 2^2 + 2^1 + 2^0: size 2^4, removed 30 + 6 + 2 + 0
        assert {(r["size"], r["removed"]) for r in env["result"]} == {(16, 38)}

    def test_minimal_cap_refused_before_any_key(self):
        # s = 8 has 2,027,025 orbits of 510 vertices; s = 7 took 19.7 s and
        # 259 MB before the construction gave the reduction, so s = 8 would
        # take minutes and gigabytes
        proc = run_module("orbits", "--n", "510", "--minimal", timeout=10)
        assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
        assert proc.stderr == (
            "error: minimal orbits capped at 135135 orbits (n = 510 has 2027025, s = 8)\n"
        )

    @pytest.mark.parametrize("q, cap", [(2, 16), (3, 14), (4, 13), (8, 13)])
    def test_cap_depends_on_q(self, capsys, q, cap):
        # at q = 3 and 8 the old flat cap of 16 let 124,906 and 234,746 rows through
        code, out, err = run_cli(capsys, "orbits", "--q", str(q), "--n", str(cap + 1))
        assert code == 4 and out == ""
        assert f"capped at {cap} vertices (requested {cap + 1})" in err
        env = run_json(
            capsys, "orbits", "--q", str(q), "--n", str(cap + 1), "--max-orbit-n", str(cap + 1)
        )
        assert all(r["vertices"] == cap + 1 for r in env["result"])

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", [-1, 0, 1])
    def test_branching_below_two(self, capsys, q, n):
        # at q = 0 and n >= 2 this used to print "result": [] and exit 0
        code, out, err = run_cli(capsys, "orbits", "--q", str(q), "--n", str(n))
        assert (code, out) == (3, "")
        assert err == f"error: branching must be at least 2, got {q}\n"


class TestEpsilon:
    def test_all_methods_agree(self, capsys):
        env = run_json(
            capsys, "epsilon", "--weight", "preset:morse", "--shape", "(())",
            "--m", "2", "--method", "all",
        )
        assert env["result"]["agree"] is True
        assert env["result"]["direct"] == env["result"]["recursive"]
        assert env["result"]["coin"] == env["result"]["direct"]

    def test_single_method(self, capsys):
        env = run_json(
            capsys, "epsilon", "--weight", "preset:morse", "--shape", "()",
            "--m", "3", "--method", "direct",
        )
        assert env["result"]["direct"] == [1, 0, 0, 0]

    def test_coin_cap_skipped_under_all(self, capsys):
        env = run_json(
            capsys, "epsilon", "--weight", "preset:morse",
            "--shape", "(()())" * 0 + "((()())(()()))", "--m", "2", "--method", "all",
        )
        assert env["result"]["coin"] is None  # 7 vertices exceeds the coin cap
        assert env["result"]["agree"] is True

    @pytest.mark.parametrize("method", ["direct", "recursive", "all"])
    def test_table_weight_certified_to_the_orders_read(self, capsys, method):
        # depth 3 and m = 1: recursive reads carries to order 4, which 8 values
        # certify; the 7 vertices used to demand 11 values
        env = run_json(
            capsys, "epsilon", "--weight", "table:1,9,25,49,81,121,169,225",
            "--shape", "((()())(()()))", "--m", "1", "--method", method,
        )
        result = env["result"]
        for name in ("direct", "recursive"):
            if method in (name, "all"):
                assert result[name] == [1, 0]
        if method == "all":
            assert result["coin"] is None
            assert result["agree"] is True

    @pytest.mark.parametrize("weight", ["table:1,9,25,49,81,121,169,225", "poly:1,0,4"])
    def test_coin_caps_before_the_weight(self, capsys, weight):
        # with the 8-value table this exited 3 asking for 9 values, the
        # orders the coin oracle would read if it were not capped
        code, out, err = run_cli(
            capsys, "epsilon", "--weight", weight, "--shape", "((()())(()()))",
            "--m", "1", "--method", "coin",
        )
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == (
            "error: coin oracle capped at 6 vertices and order 4"
            " (requested 7 vertices, order 1)\n"
        )
        # the binary check comes first too, and the empty shape passes every cap
        code, out, err = run_cli(
            capsys, "epsilon", "--q", "3", "--weight", "table:1", "--shape", "(()())",
            "--m", "1", "--method", "coin",
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: the coin-configuration oracle is defined for binary orbits only\n"
        env = run_json(
            capsys, "epsilon", "--weight", "preset:morse", "--shape", "", "--m", "6",
            "--method", "coin",
        )
        assert env["result"]["coin"] == [1, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("method", ["direct", "recursive", "all"])
    def test_depth_cap(self, capsys, method):
        cap = orbits.EPSILON_CAP
        at_cap = "(" * cap + ")" * cap
        env = run_json(
            capsys, "epsilon", "--weight", "preset:morse", "--shape", at_cap,
            "--m", "1", "--method", method,
        )
        assert env["result"]["direct" if method == "all" else method] == [1, 0]
        # depth 250 used to end in a RecursionError traceback under exit 1
        for depth in (cap + 1, 250):
            deep = "(" * depth + ")" * depth
            code, out, err = run_cli(
                capsys, "epsilon", "--weight", "preset:morse", "--shape", deep,
                "--m", "1", "--method", method,
            )
            assert (code, out) == (4, "")
            assert err == (
                f"error: carry oracles capped at shape depth {cap} (requested {depth})\n"
            )

    @pytest.mark.parametrize("q, weight, cap", [(3, "poly:1,0,9", 17), (4, "poly:1,0,16", 11)])
    def test_depth_cap_depends_on_q(self, capsys, q, weight, cap):
        assert orbits.epsilon_cap(q) == cap
        at_cap = "(" * cap + ")" * cap
        env = run_json(
            capsys, "epsilon", "--q", str(q), "--weight", weight, "--shape", at_cap,
            "--m", "3", "--method", "all",
        )
        assert env["result"]["agree"] is True
        assert env["result"]["direct"] == env["result"]["recursive"]
        # at depth 32, the binary cap, q = 3 took 2.4 s and q = 4 took 17.5 s
        for depth in (cap + 1, orbits.EPSILON_CAP):
            deep = "(" * depth + ")" * depth
            code, out, err = run_cli(
                capsys, "epsilon", "--q", str(q), "--weight", weight, "--shape", deep,
                "--m", "3", "--method", "recursive",
            )
            assert (code, out) == (4, "")
            assert err == (
                f"error: carry oracles capped at shape depth {cap} (requested {depth})\n"
            )

    @pytest.mark.parametrize("method", ["direct", "recursive", "coin", "all"])
    def test_order_cap(self, capsys, method):
        cap = orbits.EPSILON_CAP
        if method != "coin":  # the coin oracle has its own, lower order cap
            env = run_json(
                capsys, "epsilon", "--weight", "preset:morse", "--shape", "()",
                "--m", str(cap), "--method", method,
            )
            assert env["result"]["direct" if method == "all" else method] == [1] + [0] * cap
        # refused before the shape is parsed or any oracle runs
        for m, shape in ((cap + 1, "(())"), (10**9, "(")):
            code, out, err = run_cli(
                capsys, "epsilon", "--weight", "preset:morse", "--shape", shape,
                "--m", str(m), "--method", method,
            )
            assert (code, out) == (4, "")
            assert err == f"error: carry oracles capped at order {cap} (requested {m})\n"

    @pytest.mark.parametrize("q, weight, cap", [(3, "poly:1,0,9", 17), (4, "poly:1,0,16", 11)])
    def test_order_cap_depends_on_q(self, capsys, q, weight, cap):
        assert orbits.epsilon_cap(q) == cap
        assert orbits.epsilon_cap(2) == orbits.EPSILON_CAP
        env = run_json(
            capsys, "epsilon", "--q", str(q), "--weight", weight, "--shape", "(()())",
            "--m", str(cap), "--method", "all",
        )
        assert env["result"]["agree"] is True
        assert len(env["result"]["direct"]) == cap + 1
        # at m = 32, the binary cap, a q = 3 caterpillar of depth 17 took 9.4 s
        for m in (cap + 1, orbits.EPSILON_CAP):
            code, out, err = run_cli(
                capsys, "epsilon", "--q", str(q), "--weight", weight, "--shape", "()",
                "--m", str(m), "--method", "recursive",
            )
            assert (code, out) == (4, "")
            assert err == f"error: carry oracles capped at order {cap} (requested {m})\n"

    @pytest.mark.parametrize("method", ["direct", "recursive", "coin", "all"])
    def test_negative_order_is_domain_error(self, capsys, method):
        # `coin` used to exit 0 with "coin": []
        code, out, err = run_cli(
            capsys, "epsilon", "--weight", "preset:morse", "--shape", "(())",
            "--m", "-1", "--method", method,
        )
        assert (code, out, err) == (3, "", "error: max order must be nonnegative\n")


class TestValuation:
    def test_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "valuation", "--weight", "preset:morse", "--p", "2",
            "--expr", "cb", "--range", "1..6", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value_bits,valuation"
        assert len(lines) == 7

    def test_json(self, capsys):
        env = run_json(
            capsys, "valuation", "--weight", "preset:morse", "--p", "5",
            "--expr", "cb", "--range", "4..8",
        )
        rows = {r["n"]: r["valuation"] for r in env["result"]["rows"]}
        assert rows[4] == 2

    @pytest.mark.parametrize(
        "argv, mode",
        [
            (["valuation", "--weight", "preset:morse", "--p", "2", "--expr", "cb-c",
              "--range", "0..12"], "exact"),
            (["valuation", "--weight", "poly:3,2,1", "--p", "3", "--range", "37..721"],
             "residue"),
            (["morse", "profile", "--expr", "cb", "--p", "5", "--range", "3..40"], "exact"),
            (["morse", "profile", "--expr", "cb", "--p", "5", "--range", "3..330"], "residue"),
        ],
    )
    def test_rows_reach_the_writer_as_one_table(self, capsys, monkeypatch, argv, mode):
        # as orbit rows do (TestOrbits): the profile's columns go to the
        # writer, with no dict per row on the way
        tables, write_json, write_rows = [], cli._write_json, cli._write_rows

        def checked_json(obj, *args):
            assert not (isinstance(obj, list) and any(isinstance(x, dict) for x in obj))
            write_json(obj, *args)

        def recorded_rows(table, *args):
            tables.append(table)
            write_rows(table, *args)

        monkeypatch.setattr(cli, "_write_json", checked_json)
        monkeypatch.setattr(cli, "_write_rows", recorded_rows)
        lo, hi = map(int, argv[-1].split(".."))
        env = run_json(capsys, *argv)
        assert env["result"]["mode"] == mode
        assert [r["n"] for r in env["result"]["rows"]] == list(range(lo, hi + 1))
        [table] = tables
        assert table.count == hi + 1 - lo
        assert list(table.columns) == ["n", "valuation", "value_bits"]
        assert (table.columns["value_bits"] is None) == (mode == "residue")


class TestMorseSubcommands:
    def test_pow3(self, capsys):
        env = run_json(capsys, "morse", "period", "--pow3", "3", "--max-terms", "300")
        assert env["result"]["divides"] is True
        assert env["result"]["bound"] == 2

    def test_period_mod(self, capsys):
        env = run_json(capsys, "morse", "period", "--mod", "7", "--max-terms", "500")
        assert env["result"]["period"] == 12

    def test_profile_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "morse", "profile", "--expr", "cb-1", "--p", "3",
            "--range", "2..6", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("2,")

    def test_fit_alpha(self, capsys):
        env = run_json(
            capsys, "morse", "fit-alpha", "--which", "2adic", "--n-max", "256",
            "--depth", "5",
        )
        assert env["result"]["residue"] % 32 == 23

    def test_report(self, capsys):
        env = run_json(
            capsys, "morse", "report", "--which", "5adic", "--n-max", "300",
            "--depth", "2",
        )
        assert env["result"]["even_all_2"] is True


# One command per result type, with the path in its envelope's result of
# each object that a result record renders, nested ones included.
_RENDERED = [
    (["period", "--weight", "preset:morse", "--mod", "7", "--max-terms", "500"],
     [((), PeriodReport)]),
    (["morse", "period", "--pow3", "5"],
     [((), Mod3rPeriodCheck), (("report",), PeriodReport)]),
    (["check", "--weight", "table:1,0,0,0,0,0,0,0,0,0,0,0", "--theorem", "ps"],
     [((), ConditionReport), (("witnesses", 0), ConditionWitness),
      (("witnesses", 7), ConditionWitness)]),
    (["morse", "fit-alpha", "--which", "2adic-general:2", "--n-max", "64", "--depth", "6"],
     [((), PadicFit), (("conflicts", 0), PadicConflict)]),
    (["morse", "report", "--which", "5adic", "--n-max", "200", "--depth", "3"],
     [(("fit",), PadicFit)]),
]


@pytest.mark.parametrize("argv, rendered", _RENDERED, ids=[" ".join(a) for a, _ in _RENDERED])
def test_a_result_renders_its_fields_in_declaration_order(capsys, argv, rendered):
    result = run_json(capsys, *argv)["result"]
    for path, kind in rendered:
        obj = result
        for step in path:
            obj = obj[step]
        assert list(obj) == list(kind._fields), (path, kind)


class TestExitCodes:
    def test_weight_spec_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--weight", "bogus", "--n", "2")
        assert code == 2
        assert "preset:NAME" in err  # grammar reminder

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["valuation", "--weight", "preset:morse", "--p", "2", "--range", "5..3"],
             "range '5..3' is empty"),
            (["morse", "profile", "--expr", "cb", "--p", "2", "--range", "x..3"],
             "range 'x..3' has non-integer endpoints"),
            (["check", "--weight", "table:1,3,5,7,9,11", "--theorem", "ps", "--window", "3..1"],
             "range '3..1' is empty"),
            (["morse", "period"], "morse period needs --mod M or --pow3 R"),
        ],
    )
    def test_usage_error_prints_no_weight_grammar(self, capsys, argv, message):
        # these printed the weight grammar under a range or option error
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message, worker",
        [
            # exited 0 with the mod-27 report, the 7 dropped without a word
            (["morse", "period", "--mod", "7", "--pow3", "3"],
             "morse period takes --mod M or --pow3 R, not both",
             "wcatalan.morse.mod3r_period_check"),
            # exited 0 with the 16 minimal orbits, at a cap of 3 and of -5 alike
            (["orbits", "--n", "30", "--minimal", "--max-orbit-n", "3"],
             "--max-orbit-n caps the enumeration; --minimal has its own cap",
             "wcatalan.orbits.minimal_orbits"),
            (["orbits", "--n", "30", "--minimal", "--max-orbit-n", "-5"],
             "--max-orbit-n caps the enumeration; --minimal has its own cap",
             "wcatalan.orbits.minimal_orbits"),
        ],
        ids=["mod-and-pow3", "minimal-and-cap-3", "minimal-and-cap-minus-5"],
    )
    def test_an_ignored_option_is_refused_before_any_work(
        self, capsys, monkeypatch, argv, message, worker
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("work done for a refused option pair")

        monkeypatch.setattr(worker, refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "valuation", "--weight", "preset:morse", "--p", "4",
            "--expr", "cb", "--range", "1..4",
        )
        assert code == 3
        assert "prime" in err

    def test_parse_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "3"])  # missing --weight
        assert exc.value.code == 2

    def test_table_too_short_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--weight", "table:1,9", "--n", "5")
        assert code == 3

    @pytest.mark.parametrize("q", ["2", "3"])
    @pytest.mark.parametrize("mod", ["0", "1", "-5"])
    def test_modulus_below_two_is_domain_error(self, capsys, q, mod):
        code, _, err = run_cli(
            capsys, "compute", "--weight", "preset:ones", "--n", "3", "--q", q, "--mod", mod
        )
        assert code == 3
        assert "modulus must be at least 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pq", "--weight", "preset:morse", "--truncate", "3000000", "--mod", "1"],
            ["compute", "--weight", "preset:morse", "--n", "3000000", "--mod", "1"],
            ["compute", "--weight", "preset:morse", "--n", "3000000", "--q", "3", "--mod", "1"],
            ["period", "--weight", "preset:morse", "--mod", "1"],
        ],
    )
    def test_modulus_is_checked_before_any_work(self, capsys, argv):
        # 3,000,000 Morse weights alone take over a second to evaluate
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - started
        assert (code, out, err) == (3, "", "error: modulus must be at least 2, got 1\n")
        assert elapsed < 0.5

    def test_zero_max_terms_is_domain_error(self, capsys):
        # as for `period` and `morse period --pow3` (tests/test_envelopes.py)
        code, out, err = run_cli(capsys, "morse", "period", "--mod", "7", "--max-terms", "0")
        assert (code, out, err) == (3, "", "error: need at least one term\n")

    def test_state_width_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["period", "--weight", "preset:morse", "--mod", "7", "--state-width", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --state-width 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["morse", "period", "--pow3", "64"],
            ["period", "--weight", "preset:morse", "--mod", "7", "--max-terms", "5000000"],
        ],
    )
    def test_period_window_cap(self, capsys, argv):
        # --pow3 64 asks for 22 * 2 * 3^61 terms and used to run unbounded
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: period window capped at 4194304 terms")
        assert err.count("\n") == 1


def module_env() -> dict:
    """The environment in which `python -m wcatalan` imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def run_module(*argv, timeout):
    """`python -m wcatalan argv` in a child process, killed after `timeout` s."""
    return subprocess.run(
        [sys.executable, "-m", "wcatalan", *argv],
        capture_output=True, text=True, env=module_env(), timeout=timeout,
    )


class TestClosedStdout:
    def test_closed_pipe_exits_141_without_a_traceback(self):
        # the write into a closed pipe raised BrokenPipeError, so the run
        # ended in a traceback and exit 1, the oracle-disagreement code
        proc = subprocess.Popen(
            [sys.executable, "-m", "wcatalan", "orbits", "--n", "14"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
        )
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestLargePrimes:
    # the least strong pseudoprime to the 13 prime bases 2..41
    PSI_13 = 3317044064679887385961981

    @pytest.mark.parametrize(
        "argv",
        [
            ["valuation", "--weight", "poly:1,1", "--p", str(2**61 - 1), "--range", "1..10"],
            ["check", "--weight", "poly:1", "--theorem", "qmain:1000000007"],
        ],
    )
    def test_answered_within_a_short_limit(self, argv):
        # by trial division up to p and sqrt(p) these ran past 60 s and 20 s
        proc = run_module(*argv, timeout=10)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["valuation", "--weight", "poly:1,1", "--p", str(PSI_13), "--range", "1..10"],
            ["check", "--weight", "poly:1", "--theorem", f"qmain:{PSI_13}"],
        ],
    )
    def test_refused_from_psi_13_on(self, argv):
        proc = run_module(*argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
        assert proc.stderr == (
            f"error: primality is decided below {self.PSI_13} only, got {self.PSI_13}\n"
        )


class TestModuleEntryPoint:
    def test_python_dash_m_prints_the_in_process_envelope(self, capsys):
        argv = ["period", "--weight", "preset:morse", "--mod", "7", "--max-terms", "500"]
        proc = run_module(*argv, timeout=60)
        code, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, code) == (0, 0), proc.stderr

        def timeless(text):
            return [line for line in text.splitlines() if '"elapsed_ms"' not in line]

        assert timeless(proc.stdout) == timeless(out)
        assert json.loads(proc.stdout)["result"]["period"] == 12


class TestZeroRows:
    def test_residue_mode_agrees_with_exact_mode_on_exact_zeros(self, capsys):
        argv = ["valuation", "--weight", "poly:0", "--p", "2", "--range"]
        wide = run_json(capsys, *argv, "1..400")["result"]
        exact = run_json(capsys, *argv, "1..300")["result"]
        assert (wide["mode"], exact["mode"]) == ("residue", "exact")
        assert [r["valuation"] for r in wide["rows"][:300]] == [
            r["valuation"] for r in exact["rows"]
        ] == [None] * 300


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
class TestCollectorPause:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["compute", "--weight", "preset:ones", "--n", "3"], 0),
            (["compute", "--weight", "bogus", "--n", "2"], 2),
            (["compute", "--weight", "table:1,9", "--n", "5"], 3),
            (["orbits", "--n", "17"], 4),
        ],
    )
    def test_restored_on_every_exit_code(self, capsys, enabled, argv, expected):
        with collector(enabled):
            assert run_cli(capsys, *argv)[0] == expected
            assert gc.isenabled() is enabled

    def test_restored_when_an_exception_escapes(self, capsys, enabled):
        # L_760 has over 4300 digits: the envelope writer's int-to-str
        # conversion raises ValueError, which no handler in `main` catches
        with collector(enabled):
            with pytest.raises(ValueError):
                main(["compute", "--weight", "preset:morse", "--n", "760"])
            assert gc.isenabled() is enabled

    def test_paused_while_the_command_runs(self, capsys, monkeypatch, enabled):
        seen = []
        enumerate_orbits = orbits.enumerate_orbits

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return enumerate_orbits(*args, **kwargs)

        monkeypatch.setattr(orbits, "enumerate_orbits", spy)
        with collector(enabled):
            run_json(capsys, "orbits", "--n", "5")
        assert seen == [False]


def exit_code(capsys, argv):
    """`main`'s exit code, counting argparse's SystemExit as a return."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


@pytest.fixture
def builds(monkeypatch):
    """Count the parsers built through `cli.build_parser`, from an empty slot."""
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    return built


class TestParserReuse:
    def test_one_build_serves_every_exit_code(self, capsys, builds):
        calls = [
            (["compute", "--weight", "preset:ones", "--n", "3"], EXIT_OK),
            (["compute", "--weight", "bogus", "--n", "2"], EXIT_PARSE),
            (["compute", "--n", "3"], EXIT_PARSE),  # argparse: --weight missing
            (["compute", "--weight", "table:1,9", "--n", "5"], EXIT_DOMAIN),
            (["orbits", "--n", "17"], EXIT_RESOURCE),
        ]
        codes = [exit_code(capsys, argv) for _ in range(4) for argv, _ in calls]
        assert codes == [code for argv, code in calls] * 4
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser_every_call(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import wcatalan.cli\n"
            "print(wcatalan.cli._PARSER)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "None\n"), proc.stderr

    def test_reuse_carries_no_state(self, capsys, builds):
        first = ["compute", "--weight", "poly:1,4,4", "--n", "6"]
        before = run_json(capsys, *first)
        assert exit_code(capsys, ["compute", "--weight", "poly:1", "--n", "x"]) == EXIT_PARSE
        helps = []
        for _ in range(2):
            for argv in (["--help"], ["orbits", "--help"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 0
                helps.append(capsys.readouterr().out)
        assert helps[:2] == helps[2:]
        assert "--max-orbit-n" in helps[1]
        assert exit_code(capsys, ["compute", "--weight", "table:1,9", "--n", "5"]) == EXIT_DOMAIN
        run_json(capsys, "compute", "--weight", "preset:morse", "--n", "5", "--q", "3",
                 "--mod", "7")
        assert run_cli(capsys, "valuation", "--weight", "preset:morse", "--p", "2",
                       "--range", "1..8", "--format", "csv")[0] == EXIT_OK
        run_json(capsys, "orbits", "--n", "14", "--minimal", "--reduce")
        run_json(capsys, "period", "--weight", "preset:morse", "--mod", "7",
                 "--max-terms", "64")
        after = run_json(capsys, *first)
        before.pop("elapsed_ms")
        after.pop("elapsed_ms")
        assert after == before
        assert len(builds) == 1
        shared, fresh = cli._PARSER[1], cli.build_parser()
        for argv in (
            first,
            ["valuation", "--weight", "preset:morse", "--p", "2", "--range", "1..8"],
            ["orbits", "--n", "14"],
            ["period", "--weight", "preset:morse", "--mod", "7"],
        ):
            assert shared.parse_args(argv) == fresh.parse_args(argv)

    def test_a_swapped_builder_is_built_once_and_keeps_its_parse_wrapper(
        self, capsys, monkeypatch
    ):
        # the traced benchmark run swaps `cli.build_parser` for a builder that
        # also wraps `parse_args` on the parser it returns, then puts it back
        build, parses = cli.build_parser, []

        def traced():
            parser = build()
            plain = parser.parse_args

            def parse_args(*args, **kwargs):
                parses.append(1)
                return plain(*args, **kwargs)

            parser.parse_args = parse_args
            return parser

        monkeypatch.setattr(cli, "build_parser", traced)
        for n in range(1, 4):
            run_json(capsys, "compute", "--weight", "preset:ones", "--n", "3")
            assert len(parses) == n
        assert cli._PARSER[0] is traced
        monkeypatch.undo()
        run_json(capsys, "compute", "--weight", "preset:ones", "--n", "3")
        assert len(parses) == 3
        builder, parser = cli._PARSER
        assert builder is build
        assert parser.parse_args.__func__ is argparse.ArgumentParser.parse_args


def _ints(lo, hi, *extra):
    """Decimal strings of lo..hi or of one of the extra values."""
    values = st.integers(lo, hi)
    return (st.one_of(values, st.sampled_from(extra)) if extra else values).map(str)


_JUNK = st.text(alphabet="0123456789-+,:.()abcpx", max_size=6)
_WEIGHT = st.one_of(
    st.sampled_from(
        ["ones", "matchings", "alt-even", "alt-odd", "morse", "nope",
         "morse-power:2", "morse-power:0", "morse-power:x"]
    ).map("preset:".__add__),
    st.lists(st.integers(-4, 4), max_size=4).map(lambda cs: "poly:" + ",".join(map(str, cs))),
    st.lists(st.integers(-9, 9), max_size=8).map(lambda vs: "table:" + ",".join(map(str, vs))),
    _JUNK,
)
_RANGE = st.one_of(
    st.tuples(st.integers(-3, 40), st.integers(-3, 40)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    _JUNK,
)
_THEOREM = st.one_of(
    st.sampled_from(["ps", "main", "conj", "qmain", "qmain:2", "qmain:3", "qmain:5", "qmain:x"]),
    _JUNK,
)
_WHICH = st.one_of(
    st.sampled_from(
        ["2adic", "5adic", "3adic", "2adic-general:0", "2adic-general:3", "2adic-general:x"]
    ),
    _JUNK,
)
_SHAPE = st.one_of(st.text("()", max_size=12), _JUNK)
_EXPR = st.sampled_from(["cb", "cb-c", "cb-1", "cb-2"])
_FORMAT = st.sampled_from(["json", "csv", "xml"])
_MOD = _ints(-2, 60, 2**61 - 1, 2**64)
_SWITCH = None  # a flag that takes no value
# Sizes are capped so that one argv runs in milliseconds.  The few large
# values besides the wide moduli are ones the CLI must refuse at once (exit 4).
_COMMANDS = [
    (["compute"], [("--weight", _WEIGHT), ("--n", _ints(-2, 24)), ("--q", _ints(-1, 4)),
                   ("--mod", _MOD)]),
    (["valuation"], [("--weight", _WEIGHT), ("--p", _ints(-2, 12)), ("--expr", _EXPR),
                     ("--range", _RANGE), ("--format", _FORMAT)]),
    (["check"], [("--weight", _WEIGHT), ("--theorem", _THEOREM), ("--window", _RANGE)]),
    (["orbits"], [("--n", _ints(-2, 10, 17)), ("--q", _ints(0, 4)), ("--minimal", _SWITCH),
                  ("--reduce", _SWITCH), ("--max-orbit-n", _ints(-1, 10))]),
    (["epsilon"], [("--weight", _WEIGHT), ("--shape", _SHAPE), ("--m", _ints(-2, 6, 33)),
                   ("--q", _ints(0, 4)),
                   ("--method", st.sampled_from(["direct", "recursive", "coin", "all", "none"]))]),
    (["period"], [("--weight", _WEIGHT), ("--mod", _MOD),
                  ("--max-terms", _ints(-2, 300, 5000000))]),
    (["pq"], [("--weight", _WEIGHT), ("--truncate", _ints(-2, 24)), ("--mod", _MOD)]),
    (["morse", "period"], [("--mod", _MOD), ("--pow3", _ints(-2, 7, 64)),
                           ("--max-terms", _ints(-2, 300))]),
    (["morse", "profile"], [("--expr", _EXPR), ("--p", _ints(-2, 12)), ("--range", _RANGE),
                            ("--format", _FORMAT)]),
    (["morse", "fit-alpha"], [("--which", _WHICH), ("--n-max", _ints(-2, 64)),
                              ("--depth", _ints(-1, 4))]),
    (["morse", "report"], [("--which", _WHICH), ("--n-max", _ints(-2, 64)),
                           ("--depth", _ints(-1, 4))]),
]


@st.composite
def argvs(draw):
    """A subcommand with each of its flags present 9 times in 10."""
    words, flags = draw(st.sampled_from(_COMMANDS))
    argv = list(words)
    for flag, values in flags:
        if draw(st.integers(0, 9)):
            argv.append(flag)
            if values is not _SWITCH:
                argv.append(draw(values))
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_RESOURCE), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert gc.isenabled()
