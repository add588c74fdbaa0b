"""Command-line interface: parsing, output formats, exit codes."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from upqgrowth import asymptotics, cli, growth, sarnakxue, shapes
from upqgrowth.sarnakxue import Certificate

REP_JSON = {
    "places": [
        {
            "signature": [6, 1],
            "bipartition": [[2, 1], [1, 0], [1, 0], [1, 0], [1, 0]],
            "infchar": ["3", "2", "1", "0", "-1", "-2", "-3"],
        }
    ]
}


ROOT = Path(__file__).resolve().parent.parent

# a child `python -m upqgrowth.cli` imports the package under test
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
}


@pytest.fixture
def rep_file(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(REP_JSON))
    return str(path)


# --- parsers -------------------------------------------------------------------


def test_parse_partition():
    assert cli.parse_partition("(2,2)") == (2, 2)
    assert cli.parse_partition("2,2") == (2, 2)
    assert cli.parse_partition("1,3,2") == (3, 2, 1)
    for bad in ("", "()", "(a)", "0,1"):
        with pytest.raises(cli.ParseError):
            cli.parse_partition(bad)


def test_parse_partition_list():
    assert cli.parse_partition_list("(2,2);(2,2,1)") == [(2, 2), (2, 2, 1)]
    assert cli.parse_partition_list("3; ;2,1") == [(3,), (2, 1)]


def test_parse_ideal():
    assert cli.parse_ideal("2,3^2") == ((2, 1), (3, 2))
    assert cli.parse_ideal("5^3") == ((5, 3),)
    with pytest.raises(cli.ParseError):
        cli.parse_ideal("junk")
    with pytest.raises(cli.ParseError):
        cli.parse_ideal("")
    with pytest.raises(cli.ParseError, match=r"bad prime power '2\^'"):
        cli.parse_ideal("3,2^")


def test_parse_indices():
    assert cli.parse_indices("2,1,-1") == (2, 1, -1)
    with pytest.raises(cli.ParseError):
        cli.parse_indices("x")


def test_format_decimal2():
    assert cli.format_decimal2(Fraction(15, 2)) == "7.50"
    assert cli.format_decimal2(Fraction(70, 3)) == "23.33"
    assert cli.format_decimal2(Fraction(16)) == "16.00"
    # ties round to even cents
    assert cli.format_decimal2(Fraction(1, 8)) == "0.12"
    assert cli.format_decimal2(Fraction(3, 8)) == "0.38"
    assert cli.format_decimal2(Fraction(-15, 2)) == "-7.50"


# --- sx-table ------------------------------------------------------------------


def test_sx_table_default(capsys):
    assert cli.run(["sx-table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "Q,provable,conjectural,sx_goal,trivial,"
        "provable_eps,provable_italic,conjectural_italic,exceeds_goal"
    )
    assert len(lines) == 17
    assert lines[1] == "2 2,8,6,7.50,15,0,0,0,1"
    assert lines[3] == "2 2 2,21,17,23.33,35,2,0,0,0"


def test_sx_table_selected_parts(capsys):
    assert cli.run(["sx-table", "--parts", "(2,2)"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2 2,8,6,")


def test_sx_table_json(capsys):
    assert cli.run(["sx-table", "--parts", "(2,2);(3,3)", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["q"] for row in data["rows"]] == [[2, 2], [3, 3]]
    assert data["rows"][0]["provable"] == {"main": "8", "eps": 0}
    assert data["rows"][0]["sx_goal"] == "15/2"


def test_sx_table_bad_parts():
    assert cli.run(["sx-table", "--parts", "nope"]) == 2


@pytest.mark.parametrize("parts", [";", " ; ;", ""])
@pytest.mark.parametrize("as_json", [False, True])
def test_sx_table_needs_a_partition(parts, as_json, capsys):
    argv = ["sx-table", "--parts", parts] + ["--json"] * as_json
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no partition in --parts\n"
    with pytest.raises(cli.ParseError):
        cli.parse_partition_list(parts)


@pytest.mark.parametrize("parts, n", [("4000000", 4000000), ("(2,2);(1201)", 1201)])
def test_sx_table_row_size_limit(parts, n, capsys):
    # the slowest rows of an N, a core of distinct small parts padded with
    # ones, take time like N^2 log N, and a part of 10^9 would need tens of
    # GB, so a row above SX_N_MAX is refused before any row is computed
    assert n > cli.SX_N_MAX == 1200
    assert cli.run(["sx-table", "--parts", parts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --parts rows must have N at most {cli.SX_N_MAX}, "
        f"got a row with N = {n}\n"
    )


def test_sx_table_row_at_the_limit(capsys):
    # a core of distinct small parts padded with ones is the slowest row of
    # its N: the merge knapsack runs each size the row holds up to its ones
    ones = ",".join(["1"] * cli.SX_N_MAX)
    core = list(range(15, 1, -1))
    padded = ",".join(map(str, core + [1] * (cli.SX_N_MAX - sum(core))))
    argv = ["sx-table", "--parts", f"({cli.SX_N_MAX});({ones});({padded})"]
    assert cli.run(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    trivial = cli.SX_N_MAX**2 - 1
    assert [row.split(",")[4] for row in rows] == [str(trivial)] * 3


# --- delta-max and leading-term --------------------------------------------------


def test_internal_error_exits_3(rep_file, monkeypatch, capsys):
    def broken(rep):
        raise AssertionError("shape does not rebuild the character")

    monkeypatch.setattr(shapes, "delta_max", broken)
    assert cli.run(["delta-max", "--rep", rep_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: shape does not rebuild the character\n"
    )


def test_delta_max(rep_file, capsys):
    assert cli.run(["delta-max", "--rep", rep_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bound"] == {"main": "29", "eps": 0}
    assert data["q_argmax"] == [3, 1, 1, 1, 1]
    assert data["candidates"] == [
        [4, 3],
        [3, 3, 1],
        [3, 2, 2],
        [3, 2, 1, 1],
        [3, 1, 1, 1, 1],
    ]
    assert data["shapes"] == [
        {
            "blocks": [
                [1, 3, [["2"]], 1],
                [4, 1, [["0", "-1", "-2", "-3"]], 1],
            ]
        }
    ]


def test_delta_max_computes_once(tmp_path, monkeypatch, capsys):
    # two places, two common candidates: (3,2,2) and (3,2,1,1)
    lam = ["3", "2", "1", "0", "-1", "-2", "-3"]
    first = {
        "signature": [6, 1],
        "bipartition": [[1, 1]] + [[1, 0]] * 5,
        "infchar": lam,
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"places": [first] + REP_JSON["places"]}))
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(shapes, "local_run_data")
    counted(shapes, "sl2_candidates")
    counted(growth, "partition_bound")
    counted(growth, "_score")
    counted(growth, "rep_bound")
    assert cli.run(["delta-max", "--rep", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["candidates"]) == 2
    # one packed score per candidate; partition_bound is counted and not called
    assert calls == {"local_run_data": 2, "_score": 2}


def test_delta_max_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(REP_JSON)))
    assert cli.run(["delta-max", "--rep", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q_argmax"] == [3, 1, 1, 1, 1]


def test_delta_max_deterministic(rep_file, capsys):
    cli.run(["delta-max", "--rep", rep_file])
    first = capsys.readouterr().out
    cli.run(["delta-max", "--rep", rep_file])
    assert capsys.readouterr().out == first


def test_delta_max_missing_file(tmp_path, capsys):
    assert cli.run(["delta-max", "--rep", str(tmp_path / "no.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_delta_max_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.run(["delta-max", "--rep", str(path)]) == 2


@pytest.mark.parametrize(
    "signature, bipartition, infchar",
    [
        ([2, 1], [[1, 1], [1, 0]], ["1", "0"]),  # rank 3, 2 values
        ([1, 1], [[1, 1]], ["1", "0", "-1"]),  # rank 2, 3 values
    ],
)
def test_character_of_wrong_rank(signature, bipartition, infchar):
    rep = {"signature": signature, "bipartition": bipartition, "infchar": infchar}
    code, out, err = _run(["delta-max", "--rep", "-"], json.dumps(rep))
    assert (code, out) == (2, "")
    assert err == (
        "error: bad representation data: "
        "character rank does not match signature\n"
    )


def test_leading_term(rep_file, capsys):
    assert cli.run(["leading-term", "--rep", rep_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "L": [4, 1, -1],
        "coeff": "1/6",
        "exponent": {"main": "29", "eps": 0},
        "symbols": ["VOL_RATIO(U(4)xU(1)^1)"],
        "zero": False,
    }


def test_leading_term_example1(rep_file, capsys):
    assert (
        cli.run(
            ["leading-term", "--rep", rep_file, "--convention", "example1"]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["coeff"] == "1/7"


def test_leading_term_convention_has_one_spelling(rep_file, capsys):
    argv = ["leading-term", "--rep", rep_file, "--packet-convention", "example1"]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --packet-convention" in err


# --- coh-bounds ------------------------------------------------------------------


def test_coh_bounds(capsys):
    assert cli.run(["coh-bounds", "--length", "3", "--rank", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["r,lowest_degree", "0,0", "1,4", "2,8", "3,10"]


def test_coh_bounds_single_signature(capsys):
    assert (
        cli.run(
            [
                "coh-bounds",
                "--length",
                "3",
                "--rank",
                "7",
                "--half-signature",
                "1",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["r,lowest_degree", "1,4"]


def test_coh_bounds_json(capsys):
    assert (
        cli.run(["coh-bounds", "--length", "5", "--rank", "6", "--json"]) == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][1] == {"r": 1, "degree": 1}


def test_coh_bounds_even_length(capsys):
    assert cli.run(["coh-bounds", "--length", "4", "--rank", "7"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--length", "3", "--rank", "-5"], "block length exceeds rank"),
        (["--length", "3", "--rank", "-5", "--json"], "block length exceeds rank"),
        (["--length", "2", "--rank", "-5"], "block length must be odd and > 1"),
    ],
)
def test_coh_bounds_negative_rank(argv, message, capsys):
    assert cli.run(["coh-bounds"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_coh_bounds_rank_limit(capsys):
    # the full table stops at COH_RANK_MAX; one --half-signature row has no
    # rank limit
    limit = cli.COH_RANK_MAX
    assert cli.run(["coh-bounds", "--length", "3", "--rank", str(limit)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == limit // 2 + 2
    for rank, rows in ((limit + 1, limit // 2 + 1), (10**9, 5 * 10**8 + 1)):
        for fmt in ([], ["--json"]):
            argv = ["coh-bounds", "--length", "3", "--rank", str(rank)] + fmt
            assert cli.run(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                f"error: --rank must be at most {limit} without "
                f"--half-signature, got {rank}: the table would print "
                f"{rows} rows\n"
            )
    argv = ["coh-bounds", "--length", "3", "--rank", str(10**9)]
    assert cli.run(argv + ["--half-signature", "2"]) == 0
    assert capsys.readouterr().out == "r,lowest_degree\n2,1999999994\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
def test_coh_bounds_refuses_degrees_too_long_to_print(fmt, capsys):
    # at length 3 and r = 1 the degree is rank - 3: a degree of DIGITS_MAX
    # digits prints, one digit more is refused before any output
    assert cli.DIGITS_MAX == 4000
    argv = ["coh-bounds", "--length", "3", "--half-signature", "1", *fmt]
    assert cli.run(argv + ["--rank", str(10**4000 + 2)]) == 0
    assert str(10**4000 - 1) in capsys.readouterr().out
    refusal = (
        "error: --rank and --half-signature must give a degree of at most "
        "4000 digits, got a longer one\n"
    )
    for rank, r in ((10**4000 + 3, "1"), ("9" * 4000, "4" * 4000)):
        argv = ["coh-bounds", "--length", "3", "--rank", str(rank)]
        assert cli.run(argv + ["--half-signature", r, *fmt]) == 2
        assert capsys.readouterr() == ("", refusal)


# --- verify ----------------------------------------------------------------------


def test_verify_table(capsys):
    assert cli.run(["verify", "--target", "table"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "ok table: 16 cases (16 reference rows)"


def test_verify_small_sweeps(capsys):
    assert cli.run(["verify", "--target", "qd", "--nmax", "15"]) == 0
    assert cli.run(["verify", "--target", "density", "--nmax", "15"]) == 0
    assert cli.run(["verify", "--target", "maxsl2", "--nmax", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 3


def test_verify_json(capsys):
    assert (
        cli.run(["verify", "--target", "table", "--json"]) == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["certificates"][0]["target"] == "table"
    assert data["certificates"][0]["violations"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--nmax", "-5"],
        ["--target", "qd", "--nmax", "1"],
        ["--nmax", "2"],
        ["--target", "density", "--nmax", "2"],
    ],
)
def test_verify_rejects_small_nmax(argv, capsys):
    assert cli.run(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--nmax must be at least" in captured.err


@pytest.mark.parametrize(
    "target, least",
    [("all", 3), ("density", 3), ("qd", 2), ("maxsl2", 2), ("table", 2)],
)
def test_verify_small_nmax_names_the_minimum(target, least, capsys):
    argv = ["verify", "--target", target, "--nmax", str(least - 1)]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --nmax must be at least {least}, got {least - 1}\n"
    )


@pytest.mark.parametrize(
    "target, line",
    [
        ("qd", "ok qd: 1 cases (2 <= d <= N <= 2)"),
        ("density", "ok density: 1 cases (2 <= d < N <= 3)"),
    ],
)
def test_verify_smallest_nmax_checks_one_case(target, line, capsys):
    nmax = cli.SWEEPS[target][2]
    assert cli.run(["verify", "--target", target, "--nmax", str(nmax)]) == 0
    assert capsys.readouterr().out.splitlines() == [line]


@pytest.mark.parametrize(
    "target, nmax, line",
    [
        (
            "qd",
            201,
            "--nmax must be at most 200 for qd, got 201: "
            "the qd sweep would check 20100 cases",
        ),
        (
            "density",
            1601,
            "--nmax must be at most 1600 for density, got 1601: "
            "the density sweep would check 1279200 cases",
        ),
        (
            "all",
            2000,
            "--nmax must be at most 200 for qd, got 2000: "
            "the qd sweep would check 1999000 cases",
        ),
    ],
)
def test_verify_refuses_large_nmax(target, nmax, line, capsys):
    argv = ["verify", "--target", target, "--nmax", str(nmax)]
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("target", [t for t, sweep in cli.SWEEPS.items() if sweep[1]])
def test_sweep_cases_count_the_certificate(target):
    sweep, count, _, most = cli.SWEEPS[target]
    assert most >= {"qd": 60, "density": 110, "maxsl2": 100}[target]
    for nmax in [*range(2, 61), most]:
        cases = sweep(nmax).checked_count
        assert count(nmax) == cases, nmax
    # the counts quoted at the refusal boundary
    assert cases == {
        "qd": 19_900,
        "density": 1_277_601,
        "maxsl2": 5_481_836_750_020_246_172_039_138,
    }[target]


@pytest.mark.parametrize(
    "nmax, notes",
    [(3, []), (4, ["refined recheck fails only at (N,d) = (4,2)"])],
)
def test_density_note_needs_the_case_it_names(nmax, notes, capsys):
    argv = ["verify", "--target", "density", "--nmax", str(nmax), "--json"]
    assert cli.run(argv) == 0
    (cert,) = json.loads(capsys.readouterr().out)["certificates"]
    assert cert["notes"] == notes


def test_verify_maxsl2_refuses_above_its_limit(capsys):
    # past its limit maxsl2 is refused with the count it would check; below
    # it, the sweep runs to --nmax with no note
    limit = cli.SWEEPS["maxsl2"][3]
    argv = ["verify", "--target", "maxsl2", "--nmax", str(limit + 1)]
    for extra in ([], ["--json"]):
        assert cli.run(argv + extra) == 2
        assert capsys.readouterr() == (
            "",
            f"error: --nmax must be at most {limit} for maxsl2, got "
            f"{limit + 1}: the maxsl2 sweep would check "
            f"{sarnakxue.maxsl2_count(limit + 1)} cases\n",
        )
    assert cli.run(["verify", "--target", "maxsl2", "--nmax", "49", "--json"]) == 0
    (cert,) = json.loads(capsys.readouterr().out)["certificates"]
    assert cert["range"] == "distinct cores, N <= 49"
    assert (cert["checked_count"], cert["notes"]) == (118_556, [])


@pytest.mark.parametrize("nmax", ["limit + 1", "10^22", "3000 digits"])
@pytest.mark.parametrize("target", ["qd", "density", "maxsl2", "all"])
def test_verify_refusal_is_bounded_and_names_the_limit(target, nmax, capsys):
    # no count is computed or printed past cli.COUNT_N_MAX, so a huge --nmax
    # is refused at once, and with the limit, not an overflow or a traceback
    limits = {t: most for t, (*_, most) in cli.SWEEPS.items() if most}
    limit = min(limits.values()) if target == "all" else limits[target]
    value = {"limit + 1": limit + 1, "10^22": 10**22, "3000 digits": 10**2999}
    argv = ["verify", "--target", target, "--nmax", str(value[nmax])]
    start = time.perf_counter()
    assert cli.run(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --nmax must be at most {limit} for ")


def test_verify_maxsl2_decides_at_its_limit(monkeypatch, capsys):
    # the shipped tables pass the dominating knapsack at the limit, so no
    # core is walked
    def refuse(tables, n_max):
        raise AssertionError("maxsl2 walked its cores")

    monkeypatch.setattr(sarnakxue, "_maxsl2_walk", refuse)
    limit = cli.SWEEPS["maxsl2"][3]
    assert limit >= 100
    assert cli.run(["verify", "--target", "maxsl2", "--nmax", str(limit)]) == 0
    assert capsys.readouterr().out == (
        f"ok maxsl2: {sarnakxue.maxsl2_count(limit)} cases "
        f"(distinct cores, N <= {limit})\n"
    )


def test_verify_maxsl2_runs_to_24(capsys):
    assert cli.run(["verify", "--target", "maxsl2", "--nmax", "24"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok maxsl2: 2363 cases (distinct cores, N <= 24)"
    ]


def test_verify_maxsl2_uncapped_prints_one_line(capsys):
    assert cli.run(["verify", "--target", "maxsl2", "--nmax", "14"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok maxsl2: 272 cases (distinct cores, N <= 14)"
    ]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("nmax", ["2", "60", "200"])
def test_verify_qd_prints_what_the_walk_printed(nmax, json_flag, monkeypatch):
    # the family lemmas change no byte of the output, the exit code or stderr
    argv = ["verify", "--target", "qd", "--nmax", nmax, *json_flag]
    got = _run(argv)
    monkeypatch.setattr(sarnakxue, "verify_qd_bound", oracles.qd_walk)
    assert _run(argv) == got
    assert got[0] == 0


def test_verify_targets_are_the_sweeps(capsys):
    # --target's choices are read from SWEEPS, by the plain reader and by
    # argparse alike
    targets = ("all", *cli.SWEEPS)
    (option,) = (o for o in cli.COMMANDS["verify"][2] if o.name == "--target")
    assert option.kind == targets
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    (action,) = (a for a in sub.choices["verify"]._actions if a.dest == "target")
    assert tuple(action.choices) == targets
    for target in targets:
        argv = ["verify", "--target", target]
        assert cli.read_plain(argv).target == target
        assert cli.build_parser().parse_args(argv).target == target
    assert cli.read_plain(["verify", "--target", "sweep"]) is None
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "--target", "sweep"])
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


def test_verify_reports_violations(monkeypatch, capsys):
    fake = Certificate(
        target="table",
        sweep="1 reference rows",
        checked_count=1,
        violations=("row (9,): made up",),
    )
    monkeypatch.setattr(cli.sarnakxue, "verify_table1", lambda: fake)
    assert cli.run(["verify", "--target", "table"]) == 1
    out = capsys.readouterr().out
    assert "FAIL table: 1 violations in 1 cases" in out
    assert "row (9,): made up" in out


def test_late_failure_writes_nothing(monkeypatch, capsys):
    # run prints a command's text once the command has returned, so a row
    # that fails after the header and a first row leaves neither on stdout
    calls = []
    real = cli.format_decimal2

    def fail_second(x):
        calls.append(x)
        if len(calls) == 2:
            raise ValueError("made up")
        return real(x)

    monkeypatch.setattr(cli, "format_decimal2", fail_second)
    assert cli.run(["sx-table", "--parts", "(2,2);(2,2,1)"]) == 2
    assert capsys.readouterr() == ("", "error: made up\n")
    assert len(calls) == 2


# --- euler -----------------------------------------------------------------------


def test_euler_gamma(capsys):
    assert cli.run(["euler", "--ideal", "2,3", "--indices", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2/9"


def test_euler_congruence(capsys):
    assert cli.run(["euler", "--ideal", "3", "--congruence", "2"]) == 0
    assert capsys.readouterr().out.strip() == "48"


def test_euler_prime_power(capsys):
    assert cli.run(["euler", "--ideal", "2^3", "--congruence", "1"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_euler_argument_errors(capsys):
    assert cli.run(["euler", "--ideal", "2,3"]) == 2
    assert (
        cli.run(
            ["euler", "--ideal", "2", "--indices", "1", "--congruence", "1"]
        )
        == 2
    )
    assert cli.run(["euler", "--ideal", "junk", "--congruence", "1"]) == 2
    err = capsys.readouterr().err
    assert "bad prime power 'junk'" in err
    # an empty exponent is refused, not read as 1 (3^1 would print 48)
    assert cli.run(["euler", "--ideal", "3^", "--congruence", "2"]) == 2
    assert capsys.readouterr() == ("", "error: bad prime power '3^'\n")


@pytest.mark.parametrize("ideal, q", [("6", 6), ("2,3^2,10^3", 10), ("2021", 2021)])
def test_euler_refuses_a_residue_size_that_is_no_prime_power(ideal, q, capsys):
    # before, --ideal 6 printed 1050, the order of a group over no field
    for option in ("--congruence", "--indices"):
        assert cli.run(["euler", option, "2", "--ideal", ideal]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: residue size {q} is not a prime power: no field has "
            f"{q} elements\n",
        )


@pytest.mark.parametrize(
    "ideal, value",
    [
        ("4", "180"),
        ("9", "5760"),
        ("2,2", "36"),
        ("43^2", "11410207311888"),
        ("1849", "11681875497600"),  # 43^2 as a residue size
    ],
)
def test_euler_takes_prime_power_residue_sizes(ideal, value, capsys):
    assert cli.run(["euler", "--congruence", "2", "--ideal", ideal]) == 0
    assert capsys.readouterr().out.strip() == value


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["--indices", "200", "--ideal", "2,3"],
            "--indices must give at most 4000 digits for --ideal 2,3, got 200: "
            "the value would have up to 15702 digits",
        ),
        (
            ["--congruence", "60", "--ideal", "13^3,11^3"],
            "--congruence must give at most 4000 digits for --ideal 13^3,11^3, "
            "got 60: the value would have up to 27227 digits",
        ),
    ],
)
def test_euler_refuses_long_values(argv, line, capsys):
    assert cli.run(["euler", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv, ns, n",
    [
        (["--indices", "100", "--ideal", "2,3"], (100,), 0),
        (["--congruence", "22", "--ideal", "13^3,11^3"], (22,), 22),
    ],
)
def test_euler_prints_up_to_the_cap(argv, ns, n, capsys):
    digits = asymptotics.euler_digits(ns, cli.parse_ideal(argv[-1]), n)
    assert 3600 < digits <= cli.DIGITS_MAX
    assert cli.run(["euler", *argv]) == 0
    value = capsys.readouterr().out.strip()
    assert max(len(part.lstrip("-")) for part in value.split("/")) <= digits


@pytest.mark.parametrize("option", ["--indices", "--congruence"])
def test_euler_refuses_huge_exponents(option, capsys):
    # the estimate stays in ints, so a 400-digit exponent is no float overflow
    huge = "1" + "0" * 400
    assert cli.run(["euler", option, huge, "--ideal", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} must give at most 4000 digits")


def test_euler_small_congruence_keeps_its_error(capsys):
    for n in ("0", "-100"):
        assert cli.run(["euler", "--congruence", n, "--ideal", "3"]) == 2
        assert capsys.readouterr().err == "error: need n >= 1\n"


# --- JSON output -----------------------------------------------------------------

DATA = ROOT / "tests" / "data"


def test_json_gives_what_json_dumps_gives():
    # sorted keys, a 2-space indent and ASCII escapes for quotes,
    # backslashes, control and non-ASCII characters, which no frozen output
    # holds; a tuple gives an array
    obj = {"a": [[], {}, ()], "": {"b": [{}, [[]]]}, "\u00e9\"\\\n": ["\x00\u2028"]}
    assert cli._json(obj) == "\n".join(
        [
            "{",
            '  "": {',
            '    "b": [',
            "      {},",
            "      [",
            "        []",
            "      ]",
            "    ]",
            "  },",
            '  "a": [',
            "    [],",
            "    {},",
            "    []",
            "  ],",
            '  "\\u00e9\\"\\\\\\n": [',
            '    "\\u0000\\u2028"',
            "  ]",
            "}",
        ]
    )


@pytest.mark.parametrize(
    "argv, frozen",
    [
        (["sx-table", "--json"], "sx_table.json"),
        (["verify", "--json", "--nmax", "12"], "verify12.json"),
        (
            ["coh-bounds", "--length", "3", "--rank", "12", "--json"],
            "coh_bounds_3_12.json",
        ),
        (
            ["leading-term", "--rep", str(DATA / "odd_block_rep.json")],
            "odd_block_leading_term.json",
        ),
        # the README tour's two places: 11 shapes, two candidates, centres in
        # Z and Z + 1/2, and eta of both signs
        (
            ["delta-max", "--rep", str(DATA / "readme_tour_rep.json")],
            "readme_delta_max.json",
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_json_output_frozen(argv, frozen, capsys):
    # the bytes that json.dumps(obj, sort_keys=True, indent=2) printed
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (DATA / frozen).read_text()


# runs the CLI with every run's first chunk moved up by one, in doubled values
_SHIFTED_CHUNK_CLI = """
import sys
from upqgrowth import cli, shapes

chunkings = shapes._chunkings

def shifted(run2, sub):
    for (c, c2), *rest in chunkings(run2, sub):
        yield ((c, c2 + 2), *rest)

shapes._chunkings = shifted
sys.exit(cli.run(sys.argv[1:]))
"""


def test_delta_max_broken_chunk_prints_no_record():
    # the rebuild check trips inside shapes.delta_max, before the writer
    # has a record: the process names the invariant and prints no JSON
    argv = ["delta-max", "--rep", str(DATA / "readme_tour_rep.json")]
    proc = subprocess.run(
        [sys.executable, "-c", _SHIFTED_CHUNK_CLI, *argv],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "internal error: shape does not rebuild the character\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["delta-max", "--rep", str(DATA / "wide12_rep.json")],
        ["leading-term", "--rep", str(DATA / "odd_block_rep.json")],
    ],
    ids=["delta-max", "leading-term"],
)
def test_a_place_without_groupings_is_an_internal_error(argv, monkeypatch, capsys):
    # with no grouping at a place, delta-max would print no shape and
    # leading-term a zero coefficient, both exiting 0
    monkeypatch.setattr(shapes, "_place_centres", lambda data, q_parts, ds: [])
    assert cli.run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: a place has no grouping of (")


def test_cli_imports_only_the_standard_library():
    # -S: no site hooks, so only what importing the CLI loads is loaded
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, upqgrowth.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "upqgrowth.cli" in loaded
    foreign = [
        name for name in loaded
        if name != "__main__"  # the -c script itself
        and name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "upqgrowth"
    ]
    assert foreign == []
    # records are named tuples: no dataclasses, nor the inspect it loads
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


# --- wiring ----------------------------------------------------------------------


def test_unknown_command():
    assert cli.run(["frobnicate"]) == 2
    assert cli.run([]) == 2
    assert cli.run(["sx-table", "--nope"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "upqgrowth.cli", "euler", "--ideal", "3",
         "--congruence", "2"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "48"


def test_closed_pipe_exits_141_quietly():
    # the reader closes stdout after one line of a table larger than a
    # pipe's 64 KB buffer, so a write fails: main exits 128 + SIGPIPE, not 1
    # (a failed verification), and writes no traceback
    argv = ["coh-bounds", "--length", "3", "--rank", "100000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "upqgrowth.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=SRC_ENV,
    )
    try:
        assert proc.stdout.readline() == b"r,lowest_degree\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (141, b"")


# --- the option table, the plain reader and the parser --------------------------


def test_parser_is_built_once():
    # a plain argv builds no parser; any other argv builds it once, and
    # every later one shares it
    cli.build_parser.cache_clear()
    for argv in (
        ["euler", "--ideal", "3", "--congruence", "2"],
        ["sx-table", "--parts", "x"],
        ["verify", "--target", "table"],
    ):
        cli.run(argv)
    assert cli.build_parser.cache_info().misses == 0
    for argv in (
        ["frobnicate"],
        ["verify", "--target=table"],
        ["verify", "--nmax", "-5"],
        ["sx-table", "--js"],
    ):
        cli.run(argv)
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().hits == 3


def test_parser_registers_the_table_options():
    # COMMANDS is the one place options are declared
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    assert list(sub.choices) == list(cli.COMMANDS)
    for command, (_, func, options) in cli.COMMANDS.items():
        registered = [
            a.option_strings
            for a in sub.choices[command]._actions
            if a.dest != "help"
        ]
        assert registered == [[o.name] for o in options], command
        assert sub.choices[command].get_default("func") is func


HELP = DATA / "help"


@pytest.mark.parametrize("command", ["", *cli.COMMANDS])
def test_help_text_frozen(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (HELP / f"{command or 'upqgrowth'}.txt").read_text()


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["sx-table", "--parts", "2,2,1", "--json"], True),
        (["verify", "--target", "table"], True),
        (["verify", "--target=table"], False),
    ],
)
def test_plain_first_command_loads_no_parser_modules(argv, plain):
    # -S: no site hooks. Building the parser imports argparse, with gettext
    # for its messages, and loads shutil (for the terminal width of each
    # HelpFormatter) and locale; a plain argv builds none
    modules = ("argparse", "gettext", "shutil", "locale")
    script = (
        "import sys\n"
        "from upqgrowth import cli\n"
        "code = cli.run(sys.argv[1:])\n"
        f"print(code, *[m in sys.modules for m in {modules!r}])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == " ".join(["0"] + [str(not plain)] * 4)


def _vars_by_argparse(argv):
    return vars(cli.build_parser().parse_args(argv))


_ALL_OPTIONS = sorted(
    {o.name for _, _, options in cli.COMMANDS.values() for o in options}
)
_TEXT = st.text(max_size=4)
_ODD_VALUE = st.one_of(
    st.integers(-3, -1).map(str),
    st.sampled_from(["-", "", " 7", "7.0", "x", "--json"]),
    _TEXT,
)
_TOKEN = st.one_of(
    st.sampled_from(_ALL_OPTIONS),
    _ODD_VALUE,
    st.sampled_from(["-h", "--help", "--", "--js", "--nmax=5", "--rep=-"]),
)


def _value(o):
    """Mostly a value the option takes, sometimes one it may not."""
    if type(o.kind) is tuple:
        fitting = st.sampled_from(o.kind)
    elif o.kind is int:
        fitting = st.integers(0, 300).map(str)
    else:
        fitting = st.sampled_from(["2,2;1", "3", "-", "x"]) | _TEXT
    return st.one_of(fitting, fitting, fitting, _ODD_VALUE)


@st.composite
def _argvs(draw):
    """A command, most of its required options and some others, in any
    order, with a token of noise now and then."""
    command = draw(st.sampled_from([*cli.COMMANDS, *cli.COMMANDS, "-h", "x"]))
    words = []
    for o in draw(st.permutations(cli.COMMANDS.get(command, ("", "", ()))[2])):
        if draw(st.integers(0, 9)) < (9 if o.required else 5):
            words.append(o.name)
            if o.kind is not bool:
                words.append(draw(_value(o)))
    noise = draw(st.lists(_TOKEN, max_size=1))
    at = draw(st.integers(0, len(words)))
    return [command, *words[:at], *noise, *words[at:]]


@settings(max_examples=400)  # about a third of the argvs are plain
@given(_argvs())
@example(["verify", "--nmax", " 7 ", "--json"])
@example(["euler", "--ideal", "2", "--indices", "1,1"])
@example(["delta-max", "--rep", "-"])
def test_plain_reader_reads_what_argparse_reads(argv):
    args = cli.read_plain(argv)
    if args is not None:
        assert vars(args) == _vars_by_argparse(argv)


def test_plain_reader_takes_every_workload_argv(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS:
        cmds, _ = workloads.generate(workload, 0, tmp_path)
        for cmd in cmds:
            args = cli.read_plain(cmd["argv"])
            assert args is not None, cmd["argv"]
            assert vars(args) == _vars_by_argparse(cmd["argv"])


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["frobnicate"],
        ["verify", "--help"],
        ["verify", "--nmax", "-5"],
        ["verify", "--nmax", "5", "--nmax", "6"],
        ["verify", "--nm", "7"],
        ["verify", "--nmax=7"],
        ["verify", "--nmax", "x"],
        ["verify", "--target", "bogus"],
        ["verify", "--target"],
        ["verify", "--json", "--json"],
        ["verify", "extra"],
        ["verify", "--", "--json"],
        ["coh-bounds", "--length", "3"],
        ["euler", "--ideal", "3", "--indices", "-1,2"],
    ],
)
def test_plain_reader_hands_on_the_rest(argv):
    assert cli.read_plain(argv) is None


def _run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process cli.run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


GOOD = ["sx-table", "--parts", "(3,3,1);(2,2,1,1)", "--json"]


@pytest.fixture(scope="module")
def good_in_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-m", "upqgrowth.cli", *GOOD],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


_LETTER = st.characters(min_codepoint=ord("a"), max_codepoint=ord("z"))
_CHARS = st.characters(blacklist_categories=("Cs",))  # no lone surrogates
# text with a letter in it, which no int() accepts
_BAD_TEXT = st.tuples(
    st.text(_CHARS, max_size=6), _LETTER, st.text(_CHARS, max_size=6)
).map("".join)
# no option of any subcommand starts with --x, so no abbreviation matches
_UNKNOWN_FLAG = st.text(_LETTER)
_COMMANDS = [
    "sx-table", "delta-max", "coh-bounds", "verify", "leading-term", "euler"
]

_BAD_ARGV = st.one_of(
    _BAD_TEXT.map(lambda t: ["sx-table", "--parts", t]),
    _BAD_TEXT.map(lambda t: ["euler", "--ideal", t, "--congruence", "2"]),
    _BAD_TEXT.map(lambda t: ["euler", "--ideal", "2,3", "--indices", t]),
    _BAD_TEXT.map(lambda t: ["verify", "--nmax", t]),
    st.tuples(st.sampled_from(_COMMANDS), _UNKNOWN_FLAG).map(
        lambda c: [c[0], "--x" + c[1]]
    ),
)

_REP_TEXT = json.dumps(REP_JSON["places"][0])
# values that no field of a rep accepts
_BAD_FIELD = st.sampled_from(
    [
        None, "x", [], {"a": 1}, [1e400, 1], ["1/0", "0"], [[1e400, 0]], [-1, 8],
        [6.7, 1.2], [[2.9, 1], [1.5, 0]], [True, 1], [[True, 0]],
    ]
)


def _replaced(field, value):
    return json.dumps({**REP_JSON["places"][0], field: value})


_BAD_REP = st.one_of(
    st.integers(0, len(_REP_TEXT) - 1).map(lambda k: _REP_TEXT[:k]),
    st.tuples(
        st.sampled_from(["signature", "bipartition", "infchar"]), _BAD_FIELD
    ).map(lambda fv: _replaced(*fv)),
    _BAD_FIELD.map(lambda v: json.dumps({"places": v})),
    _BAD_FIELD.map(lambda v: json.dumps({"places": [v]})),
)


def _check_bad_then_good(argv, stdin, good):
    code, out, err = _run(argv, stdin)
    assert code == 2, (argv, out, err)
    assert out == ""
    assert err.startswith(("error: ", "usage: ")), err
    assert "Traceback" not in err
    assert _run(GOOD) == good


@given(_BAD_ARGV)
@example(["verify", "--nmax", "-h"])
@example(["sx-table", "--parts", "(2,x)"])
def test_malformed_arguments_exit_2(good_in_fresh_process, argv):
    _check_bad_then_good(argv, "", good_in_fresh_process)


@given(st.sampled_from(["delta-max", "leading-term"]), _BAD_REP)
@example("delta-max", "[" * 100000)
@example("delta-max", _replaced("infchar", ["1/0", "0"]))
@example("leading-term", _replaced("signature", [1e400, 1]))
# int() would read each of these as the good rep, truncating 6.7 and reading
# true and "6" as numbers: a rep field takes only JSON integers
@example(
    "leading-term",
    json.dumps(
        {
            **REP_JSON["places"][0],
            "signature": [6.7, 1.2],
            "bipartition": [[2.9, 1], [1.5, 0], [1, 0], [1, 0], [1, 0]],
        }
    ),
)
@example("delta-max", _replaced("signature", [6, True]))
@example("delta-max", _replaced("signature", ["6", "1"]))
@example(
    "delta-max",
    _replaced("bipartition", [[2, 1], [True, 0], [1, 0], [1, 0], [1, 0]]),
)
@example("delta-max", _replaced("infchar", ["3", "2", True, "0", "-1", "-2", "-3"]))
# a float would read the first value as 1/2, and so the rep as a good one
@example(
    "delta-max",
    '{"signature": [2, 0], "bipartition": [[1, 0], [1, 0]],'
    ' "infchar": [0.50000000000000001, -0.5]}',
)
def test_malformed_rep_exits_2(good_in_fresh_process, command, text):
    _check_bad_then_good([command, "--rep", "-"], text, good_in_fresh_process)


def test_json_float_in_signature_refused_as_float():
    # the CLI reads JSON floats as exact Decimals; the message names the
    # JSON type
    code, out, err = _run(["delta-max", "--rep", "-"], _replaced("signature", [6.0, 1]))
    assert (code, out) == (2, "")
    assert err == (
        "error: bad representation data: signature entries must be integers, "
        "got float\n"
    )


_RHO3 = {"signature": [3, 0], "bipartition": [[1, 0], [1, 0], [1, 0]]}


@pytest.mark.parametrize(
    "command, rep, error",
    [
        # iterated, the text "210" read as the character (2, 1, 0), exit 0
        (
            "leading-term",
            {**_RHO3, "infchar": "210"},
            "infchar must be an array, got string",
        ),
        (
            "delta-max",
            {**_RHO3, "infchar": {"2": 0, "1": 0, "0": 0}},
            "infchar must be an array, got object",
        ),
        ("delta-max", {"places": "x"}, "places must be an array, got string"),
        (
            "leading-term",
            {**_RHO3, "signature": "30", "infchar": ["1", "0", "-1"]},
            "signature must be an array, got string",
        ),
        (
            "delta-max",
            {**_RHO3, "bipartition": {"3": 0}, "infchar": ["1", "0", "-1"]},
            "bipartition must be an array, got object",
        ),
        (
            "delta-max",
            {**_RHO3, "bipartition": ["10", "10", "10"], "infchar": ["1", "0", "-1"]},
            "each bipartition entry must be an array, got string",
        ),
        ("delta-max", {"places": None}, "places must be an array, got null"),
        (
            "leading-term",
            {**_RHO3, "signature": True, "infchar": ["1", "0", "-1"]},
            "signature must be an array, got boolean",
        ),
    ],
    ids=[
        "infchar-text",
        "infchar-object",
        "places",
        "signature",
        "bipartition",
        "bipartition-entry",
        "places-null",
        "signature-true",
    ],
)
def test_rep_field_that_is_no_array_refused_by_name(command, rep, error):
    code, out, err = _run([command, "--rep", "-"], json.dumps(rep))
    assert (code, out) == (2, "")
    assert err == f"error: bad representation data: {error}\n"


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"places": ["x"]}', "each place must be an object, got string"),
        ('"places"', "the representation must be an object, got string"),
        ("[1, 2]", "the representation must be an object, got array"),
        ("null", "the representation must be an object, got null"),
        ('{"places": [true]}', "each place must be an object, got boolean"),
    ],
    ids=["place", "text", "array", "null", "place-true"],
)
def test_rep_or_place_that_is_no_object_refused_by_name(text, error):
    code, out, err = _run(["delta-max", "--rep", "-"], text)
    assert (code, out) == (2, "")
    assert err == f"error: bad representation data: {error}\n"


@pytest.mark.parametrize(
    "rep, error",
    [
        (
            {**_RHO3, "signature": [None, 0], "infchar": ["1", "0", "-1"]},
            "signature entries must be integers, got null",
        ),
        (
            {
                **_RHO3,
                "bipartition": [[1, 0], [1, 0], [True, 0]],
                "infchar": ["1", "0", "-1"],
            },
            "bipartition entries must be integers, got boolean",
        ),
        (
            {**_RHO3, "infchar": [True, "0", "-1"]},
            "infchar entries must be numbers, got boolean",
        ),
        (
            {**_RHO3, "signature": ["3", 0], "infchar": ["1", "0", "-1"]},
            "signature entries must be integers, got string",
        ),
    ],
    ids=["signature-null", "bipartition-true", "infchar-true", "signature-text"],
)
def test_rep_entry_of_another_kind_refused_by_name(rep, error):
    code, out, err = _run(["delta-max", "--rep", "-"], json.dumps(rep))
    assert (code, out) == (2, "")
    assert err == f"error: bad representation data: {error}\n"


_CHAR3 = {"infchar": ["1", "0", "-1"]}


@pytest.mark.parametrize(
    "rep, error",
    [
        (
            {**_RHO3, **_CHAR3, "signature": [3, 0, 1]},
            "signature must have 2 entries, got 3",
        ),
        (
            {**_RHO3, **_CHAR3, "signature": [3]},
            "signature must have 2 entries, got 1",
        ),
        (
            {**_RHO3, **_CHAR3, "bipartition": [[1, 0], [1, 0], [1, 0, 2]]},
            "each bipartition entry must have 2 entries, got 3",
        ),
        (
            {**_RHO3, **_CHAR3, "bipartition": [[1, 0], [1, 0], [1]]},
            "each bipartition entry must have 2 entries, got 1",
        ),
        (
            {"signature": [3, 0], **_CHAR3},
            'missing field "bipartition"',
        ),
        (
            {"bipartition": _RHO3["bipartition"], **_CHAR3},
            'missing field "signature"',
        ),
        (_RHO3, 'missing field "infchar"'),
        (
            {"places": [{**_RHO3, **_CHAR3}, _RHO3]},
            'missing field "infchar"',
        ),
    ],
    ids=[
        "signature-3",
        "signature-1",
        "bipartition-entry-3",
        "bipartition-entry-1",
        "no-bipartition",
        "no-signature",
        "no-infchar",
        "place-no-infchar",
    ],
)
def test_rep_array_of_another_length_or_missing_field_refused_by_name(rep, error):
    code, out, err = _run(["delta-max", "--rep", "-"], json.dumps(rep))
    assert (code, out) == (2, "")
    assert err == f"error: bad representation data: {error}\n"


@pytest.mark.parametrize(
    "value, error",
    [
        ('"1e10000000"', "infchar entries take exponents below 4300"),
        ("1e10000000", "infchar entries take exponents below 4300"),
        ('"-1.5E-10000000"', "infchar entries take exponents below 4300"),
        # Fraction would take about 40 s on the exact Decimal of this one
        ("1" + "0" * 10**6 + ".5", "infchar entries take exponents below 4300"),
    ],
    ids=["text", "number", "negative-exponent", "long-number"],
)
def test_long_number_refused_at_once(value, error):
    # Fraction alone takes about 12 s to build 10**10000000
    text = f'{{"signature":[1,0],"bipartition":[[1,0]],"infchar":[{value}]}}'
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "upqgrowth.cli", "delta-max", "--rep", "-"],
        input=text,
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: bad representation data: {error}")
    assert elapsed < 2, elapsed


def _one_value_rep(value):
    return f'{{"signature":[1,0],"bipartition":[[1,0]],"infchar":[{value}]}}'


@pytest.mark.parametrize(
    "value",
    ['"1' + "0" * 4298 + 'e4299"', "1" + "0" * 4298 + "e4299"],
    ids=["text", "number"],
)
@pytest.mark.parametrize("command", ["delta-max", "leading-term"])
def test_long_value_refused_at_reading(command, value, monkeypatch, capsys):
    # 10**8597 has 8598 digits, though its mantissa and its exponent are
    # each under 4300 digits: load_rep refuses it, before any work
    monkeypatch.setattr(sys, "stdin", io.StringIO(_one_value_rep(value)))
    assert cli.run([command, "--rep", "-"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: bad representation data: infchar entries take exponents "
        "below 4300 in scientific notation\n",
    )


@pytest.mark.parametrize("command", ["delta-max", "leading-term"])
def test_long_value_under_the_limit_prints(command, monkeypatch, capsys):
    # 10**4000 has 4001 digits, which print
    value = '"1' + "0" * 2000 + 'e2000"'
    monkeypatch.setattr(sys, "stdin", io.StringIO(_one_value_rep(value)))
    assert cli.run([command, "--rep", "-"]) == 0
    assert capsys.readouterr().err == ""


BOM_REFUSAL = (
    "error: cannot read representation: Unexpected UTF-8 BOM "
    "(decode using utf-8-sig): line 1 column 1 (char 0)\n"
)


@pytest.mark.parametrize("command", ["delta-max", "leading-term"])
def test_bom_refused_from_a_file(command, tmp_path, capsys):
    # json.load refuses a leading byte order mark before it decodes; the one
    # decoder of load_rep would say "Expecting value", so the check stays
    path = tmp_path / "rep.json"
    path.write_text("\ufeff" + json.dumps(REP_JSON), encoding="utf-8")
    assert cli.run([command, "--rep", str(path)]) == 2
    assert capsys.readouterr() == ("", BOM_REFUSAL)


@pytest.mark.parametrize("command", ["delta-max", "leading-term"])
def test_bom_refused_from_stdin(command, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + json.dumps(REP_JSON)))
    assert cli.run([command, "--rep", "-"]) == 2
    assert capsys.readouterr() == ("", BOM_REFUSAL)
