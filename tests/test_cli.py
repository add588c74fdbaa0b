"""Command-line interface: parsing, output formats, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    # a row's time grows like N^2 log N, and a part of 10^9 would need tens
    # of GB, so a row above SX_N_MAX is refused before any row is computed
    assert n > cli.SX_N_MAX == 1200
    assert cli.run(["sx-table", "--parts", parts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --parts rows must have N at most {cli.SX_N_MAX}, "
        f"got a row with N = {n}\n"
    )


def test_sx_table_row_at_the_limit(capsys):
    # all ones is the slowest row of its N
    ones = ",".join(["1"] * cli.SX_N_MAX)
    assert cli.run(["sx-table", "--parts", f"({cli.SX_N_MAX});({ones})"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    trivial = cli.SX_N_MAX**2 - 1
    assert [row.split(",")[4] for row in rows] == [str(trivial)] * 2


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
    counted(growth, "rep_bound")
    assert cli.run(["delta-max", "--rep", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["candidates"]) == 2
    assert calls == {"local_run_data": 2, "partition_bound": 2}


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
    # the full table stops at COH_RANK_MAX; one --half-signature row has no limit
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
    nmax = cli.NMAX_MIN[target]
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


@pytest.mark.parametrize("target", ["qd", "density"])
def test_sweep_cases_count_the_certificate(target):
    sweep = {
        "qd": sarnakxue.verify_qd_bound,
        "density": sarnakxue.verify_density,
    }
    assert cli.NMAX_MAX[target] >= {"qd": 60, "density": 110}[target]
    for nmax in range(cli.NMAX_MIN[target], 16):
        cases = sweep[target](nmax).checked_count
        assert cli.sweep_cases(target, nmax) == cases


@pytest.mark.parametrize(
    "nmax, notes",
    [(3, []), (4, ["refined recheck fails only at (N,d) = (4,2)"])],
)
def test_density_note_needs_the_case_it_names(nmax, notes, capsys):
    argv = ["verify", "--target", "density", "--nmax", str(nmax), "--json"]
    assert cli.run(argv) == 0
    (cert,) = json.loads(capsys.readouterr().out)["certificates"]
    assert cert["notes"] == notes


def test_verify_maxsl2_cap_is_noted(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAXSL2_NMAX", 14)
    argv = ["verify", "--target", "maxsl2", "--nmax", "16"]
    assert cli.run(argv + ["--json"]) == 0
    (cert,) = json.loads(capsys.readouterr().out)["certificates"]
    assert cert["range"] == "distinct cores, N <= 14"
    assert cert["notes"] == ["nmax 16 capped at 14"]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok maxsl2: 272 cases (distinct cores, N <= 14)",
        "  note: nmax 16 capped at 14",
    ]


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
    assert 3600 < digits <= cli.EULER_DIGITS_MAX
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

DATA = Path(__file__).parent / "data"

# text with quotes, backslashes, control and non-ASCII characters
_JSON_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_JSON_LEAF = st.one_of(
    _JSON_TEXT,
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.floats(),
)
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@given(_JSON_VALUE)
@example({"a": [[], {}, ()], "": {"b": [{}, [[]]]}, "\u00e9\"\\\n": ["\x00\u2028"]})
@example([True, False, None, -(10**30), 0])
@example({})
def test_emit_json_prints_what_json_dumps_prints(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(obj)
    assert out.getvalue() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_json_output_frozen(argv, frozen, capsys):
    # the bytes that json.dumps(obj, sort_keys=True, indent=2) printed
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (DATA / frozen).read_text()


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


# --- one parser per process ----------------------------------------------------


def test_parser_is_built_once():
    cli.build_parser.cache_clear()
    for argv in (
        ["euler", "--ideal", "3", "--congruence", "2"],
        ["sx-table", "--parts", "x"],
        ["frobnicate"],
        ["verify", "--target", "table"],
    ):
        cli.run(argv)
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().hits == 3


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
def test_malformed_rep_exits_2(good_in_fresh_process, command, text):
    _check_bad_then_good([command, "--rep", "-"], text, good_in_fresh_process)
