"""Tests of the benchmark itself: generator, brute force, checks, failures.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import checks
import oracle
import run
import worker
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))
from upqgrowth import cli  # noqa: E402


def execute(argv) -> dict:
    return worker.run_commands(cli.run, [argv])[0]


def first(cmds, kind, **meta):
    return next(
        c for c in cmds
        if c["kind"] == kind and all(c["meta"].get(k) == v for k, v in meta.items())
    )


@pytest.fixture(scope="module")
def shapes_cmds(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    cmds, _ = workloads.generate("shapes", 3, root)
    return root, cmds


def run_in(root, cmd) -> dict:
    argv = list(cmd["argv"])
    if cmd["kind"] in ("delta-max", "leading-term"):
        argv[-1] = str(root / argv[-1])
    return execute(argv)


# --- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a, dir_a = workloads.generate(workload, 11, tmp_path / "a")
    b, dir_b = workloads.generate(workload, 11, tmp_path / "b")
    assert a == b
    files = sorted(p.name for p in dir_a.iterdir())
    assert files == sorted(p.name for p in dir_b.iterdir())
    for name in files:
        assert (dir_a / name).read_text() == (dir_b / name).read_text()
    c, _ = workloads.generate(workload, 12, tmp_path / "c")
    assert [x["argv"] for x in a] != [x["argv"] for x in c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_input_once_per_pass(tmp_path, workload):
    cmds, directory = workloads.generate(workload, 5, tmp_path)
    keys = []
    for c in cmds:
        if c["kind"] in ("delta-max", "leading-term"):
            keys.append((tmp_path / c["argv"][-1]).read_text())
        elif c["kind"] == "verify":
            keys.append((c["meta"]["target"], c["meta"]["nmax"] if c["meta"]["target"] != "table" else 0))
        else:
            keys.append(tuple(a for a in c["argv"] if a != "--json"))
    assert len(keys) == len(set(keys)) >= 100


# --- brute force -----------------------------------------------------------------


def test_oracle_reference_values():
    assert oracle.distinct_core_pairs(14) == 272
    assert oracle.decimal2(Fraction(1, 8)) == "0.12"
    assert oracle.decimal2(Fraction(3, 8)) == "0.38"
    assert oracle.decimal2(Fraction(70, 3)) == "23.33"
    # N = 11, k = 5, r = 1 at one place
    n, k = 11, 5
    blocks = ((1, 0), (k - 1, 1)) + ((1, 0),) * (n - k - 1)
    assert oracle.leading_coeff([(blocks, workloads.rho(n))], k) == Fraction(63, 5)
    row = oracle.density_row((2, 2, 2, 2, 1, 1), groupings=True)
    assert row["provable"] == (74, 0) and row["provable_at_coarsening"]
    assert row["conjectural"] == (54, 0) and row["conjectural_at_coarsening"]


def test_weyl_dim_matches_tableaux():
    for values in ([Fraction(3, 2), Fraction(-3, 2)], [2, 0, -2], [4, 1, 0, -1], [3, 1, -2]):
        values = [Fraction(v) for v in values]
        assert oracle.weyl_dim(values) == oracle.tableau_dim(values)


def test_readme_pair_candidates_and_shapes():
    rho7 = workloads.rho(7)
    places = [
        (((1, 1),) + ((1, 0),) * 5, rho7),
        (((2, 1),) + ((1, 0),) * 4, rho7),
    ]
    best, argmin, maximisers, cands = oracle.best_bound(places)
    assert cands == [(3, 2, 2), (3, 2, 1, 1)]
    assert best == (22, 0) and argmin == (3, 2, 1, 1)
    assert oracle.shape_count(places, maximisers) == 11


# --- checks accept real outputs and reject corrupted ones -----------------------


def test_delta_max_check(shapes_cmds):
    root, cmds = shapes_cmds
    cmd = first(cmds, "delta-max", family="wide")
    res = run_in(root, cmd)
    assert checks.check(cmd, res, root) == []
    data = json.loads(res["stdout"])
    t, d, centers, eta = data["shapes"][0]["blocks"][0]
    centers[0][0] = str(Fraction(centers[0][0]) + 1)
    bad = dict(res, stdout=json.dumps(data))
    assert any("rebuild" in p for p in checks.check(cmd, bad, root))
    data = json.loads(res["stdout"])
    data["bound"]["main"] = str(Fraction(data["bound"]["main"]) + 1)
    assert checks.check(cmd, dict(res, stdout=json.dumps(data)), root)


def test_corner_family_has_one_shape(shapes_cmds):
    root, cmds = shapes_cmds
    cmd = first(cmds, "delta-max", family="corner")
    res = run_in(root, cmd)
    data = json.loads(res["stdout"])
    data["shapes"] = data["shapes"] * 2
    assert checks.check(cmd, dict(res, stdout=json.dumps(data)), root)


def test_leading_term_check(shapes_cmds):
    root, cmds = shapes_cmds
    cmd = next(c for c in cmds if c["kind"] == "leading-term" and c["cls"] == "deep9")
    res = run_in(root, cmd)
    assert checks.check(cmd, res, root) == []
    for field, value in (("coeff", "7/3"), ("zero", "flip"), ("L", [1, 1, -1])):
        data = json.loads(res["stdout"])
        data[field] = (not data["zero"]) if value == "flip" else value
        assert checks.check(cmd, dict(res, stdout=json.dumps(data)), root), field


@pytest.mark.parametrize("as_json", [False, True])
def test_sx_table_check(as_json):
    row = (3, 2, 1, 1, 1, 1)
    cmd = workloads.command(
        ["sx-table", "--parts", ",".join(map(str, row))] + ["--json"] * as_json,
        "sx-table", "light", rows=[list(row)], json=as_json,
    )
    res = execute(cmd["argv"])
    assert checks.check(cmd, res) == []
    if as_json:
        data = json.loads(res["stdout"])
        data["rows"][0]["trivial"] += 1
        bad = json.dumps(data)
    else:
        lines = res["stdout"].splitlines()
        fields = lines[1].split(",")
        fields[1] = str(int(fields[1]) + 1)
        bad = "\n".join([lines[0], ",".join(fields)]) + "\n"
    assert checks.check(cmd, dict(res, stdout=bad))


@pytest.mark.parametrize(
    "target,nmax,stdout",
    [
        ("qd", 40, "ok qd: 0 cases (2 <= d <= N <= 40)\n"),
        ("qd", 40, "ok qd: 741 cases (2 <= d <= N <= 39)\n"),
        ("density", 50, "ok density: 1176 cases (2 <= d < N <= 50)\nok density: 1 cases (x)\n"),
        ("maxsl2", 14, "ok maxsl2: 211 cases (distinct cores, N <= 13)\n"),
        ("maxsl2", 16, "ok maxsl2: 272 cases (distinct cores, N <= 14)\n"),
    ],
)
def test_verify_check_rejects_short_or_empty_sweeps(target, nmax, stdout):
    cmd = workloads.command(["verify"], "verify", target, target=target, nmax=nmax, json=False)
    assert checks.check(cmd, {"code": 0, "stdout": stdout, "stderr": ""})


def test_verify_check_accepts_real_certificates_and_rejects_vacuous_ones():
    for target, nmax, as_json in (("qd", 20, False), ("density", 30, True), ("table", 60, True),
                                  ("maxsl2", 9, False)):
        argv = ["verify", "--target", target, "--nmax", str(nmax)] + ["--json"] * as_json
        cmd = workloads.command(argv, "verify", target, target=target, nmax=nmax, json=as_json)
        assert checks.check(cmd, execute(argv)) == []
    argv = ["verify", "--target", "qd", "--nmax", "-5", "--json"]
    cmd = workloads.command(argv, "verify", "qd", target="qd", nmax=-5, json=True)
    assert checks.check(cmd, execute(argv))
    data = {"certificates": [{"target": "qd", "range": "2 <= d <= N <= 20",
                              "checked_count": 0, "violations": [], "notes": []}]}
    cmd = workloads.command([], "verify", "qd", target="qd", nmax=20, json=True)
    assert checks.check(cmd, {"code": 0, "stdout": json.dumps(data), "stderr": ""})


def test_euler_check(tmp_path):
    cmds, _ = workloads.generate("sweeps", 2, tmp_path)
    for mode in ("congruence", "indices"):
        cmd = first(cmds, "euler", mode=mode)
        res = execute(cmd["argv"])
        assert checks.check(cmd, res) == []
        value = Fraction(res["stdout"].strip())
        wrong = value + Fraction(1, 7)
        assert checks.check(cmd, dict(res, stdout=f"{wrong.numerator}/{wrong.denominator}\n"))


def test_nonzero_exit_is_a_problem():
    cmd = workloads.command(["euler"], "euler", "euler", mode="congruence", value=2, ideal=[[3, 1]])
    assert checks.check(cmd, execute(["euler", "--congruence", "2", "--ideal", "x"]))


# --- failure accounting ----------------------------------------------------------


def test_raising_command_is_counted_as_failed():
    def fake_run(argv):
        if argv == ["boom"]:
            raise AssertionError("shape does not rebuild the character")
        print("ok")
        return 0

    results = worker.run_commands(fake_run, [["a"], ["boom"], ["b"]])
    assert [r["error"] for r in results] == [
        None, "AssertionError: shape does not rebuild the character", None
    ]
    assert results[2]["stdout"] == "ok\n"
    cmds = [workloads.command(argv, "euler", "euler", mode="congruence", value=1, ideal=[[2, 1]])
            for argv in (["a"], ["boom"], ["b"])]
    checker = run.Checker(cmds)
    checker.add_pass([dict(r, stdout="1\n") for r in results])
    assert len(checker.failures) == 1 and "boom" in checker.failures[0]
    assert checker.problems == []
