"""Output checks: each command's output against the brute force in oracle.py.

check(cmd, result) returns a list of problems, empty when the output is
right. cmd is a command as workloads.generate builds it; result holds the
command's exit code and stdout.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracle
from workloads import ROOT, fmt

# rows with at most this many (coarsening, grouping) pairs, about a tenth
# of a second of brute force, are also scored at their best block grouping
GROUPING_LIMIT = 1_000


def growth_value(data) -> tuple:
    return Fraction(data["main"]), int(data["eps"])


def load_places(path: str, root: Path = ROOT):
    data = json.loads((root / path).read_text())
    return [
        (
            tuple((int(x), int(y)) for x, y in place["bipartition"]),
            [Fraction(v) for v in place["infchar"]],
        )
        for place in data["places"]
    ]


def shape_problems(shape, places, maximisers) -> list:
    blocks = shape["blocks"]
    if any(len(centers) != len(places) for _, _, centers, _ in blocks):
        return ["shape has the wrong number of places"]
    parts = tuple(sorted((d for t, d, _, _ in blocks for _ in range(t)), reverse=True))
    out = [] if parts in maximisers else [f"shape type {parts} is not a maximiser"]
    for v, (_, lam) in enumerate(places):
        values = sorted(
            (x for _, d, centers, _ in blocks for c in centers[v]
             for x in oracle.expand(Fraction(c), d)),
            reverse=True,
        )
        if values != lam:
            out.append(f"shape does not rebuild the character at place {v}")
    return out


def check_delta_max(cmd, data, root) -> list:
    places = load_places(cmd["argv"][-1], root)
    best, argmin, maximisers, cands = oracle.best_bound(places)
    out = []
    if data["candidates"] != [list(q) for q in cands]:
        out.append("candidates differ from the adjacent-merge intersection")
    if growth_value(data["bound"]) != best:
        out.append(f"bound {data['bound']} != {fmt(best[0])}, eps {best[1]}")
    if tuple(data["q_argmax"]) != argmin:
        out.append(f"q_argmax {data['q_argmax']} != {list(argmin)}")
    shapes = data["shapes"]
    if not shapes:
        out.append("no shapes")
    if len({json.dumps(s, sort_keys=True) for s in shapes}) != len(shapes):
        out.append("repeated shape")
    for s in shapes:
        out += shape_problems(s, places, maximisers)
    if cmd["meta"]["family"] == "corner" and len(shapes) != 1:
        out.append(f"{len(shapes)} shapes, the U(N-1,1) family has one")
    return out


def check_leading_term(cmd, data, root) -> list:
    places = load_places(cmd["argv"][-1], root)
    best, argmin, _, _ = oracle.best_bound(places)
    out = []
    if growth_value(data["exponent"]) != best:
        out.append(f"exponent {data['exponent']} != {fmt(best[0])}")
    mult = Counter(argmin)
    k = len(mult)
    if data["L"] != [mult[1]] + [1] * (k - 1) + [-1] * (k - 1):
        out.append(f"L {data['L']} does not match the maximiser {argmin}")
    coeff = Fraction(data["coeff"])
    if data["zero"] != (coeff == 0):
        out.append("zero flag disagrees with coeff")
    expected = oracle.leading_coeff(places, cmd["meta"]["k"])
    if coeff not in (0, expected):
        out.append(f"coeff {data['coeff']} is neither 0 nor {fmt(expected)}")
    return out


def expected_row(q) -> dict:
    q = tuple(q)
    pairs = sum(oracle.grouping_count(c) for c in oracle.one_coarsenings(q))
    return oracle.density_row(q, groupings=pairs <= GROUPING_LIMIT)


def csv_fields(row) -> list:
    return [
        " ".join(map(str, row["q"])),
        fmt(row["provable"][0]),
        fmt(row["conjectural"][0]),
        oracle.decimal2(row["sx_goal"]),
        str(row["trivial"]),
        str(row["provable"][1]),
        str(int(row["provable_at_coarsening"])),
        str(int(row["conjectural_at_coarsening"])),
        str(int(row["exceeds_goal"])),
    ]


def json_row(row) -> dict:
    return {
        "q": list(row["q"]),
        "provable": {"main": fmt(row["provable"][0]), "eps": row["provable"][1]},
        "conjectural": {"main": fmt(row["conjectural"][0]), "eps": row["conjectural"][1]},
        "sx_goal": fmt(row["sx_goal"]),
        "trivial": row["trivial"],
        "provable_at_coarsening": row["provable_at_coarsening"],
        "conjectural_at_coarsening": row["conjectural_at_coarsening"],
        "exceeds_goal": row["exceeds_goal"],
    }


CSV_HEADER = (
    "Q,provable,conjectural,sx_goal,trivial,"
    "provable_eps,provable_italic,conjectural_italic,exceeds_goal"
)


def check_sx_table(cmd, stdout) -> list:
    expected = [expected_row(q) for q in cmd["meta"]["rows"]]
    out = []
    if cmd["meta"]["json"]:
        got = json.loads(stdout)["rows"]
        want = [json_row(r) for r in expected]
    else:
        lines = stdout.splitlines()
        got = lines[1:]
        want = [",".join(csv_fields(r)) for r in expected]
        if lines[:1] != [CSV_HEADER]:
            out.append("bad CSV header")
    if len(got) != len(want):
        return out + [f"{len(got)} rows, expected {len(want)}"]
    for g, w in zip(got, want):
        if g != w:
            out.append(f"row {g} != {w}")
    return out


def expected_certificate(target: str, nmax: int) -> tuple:
    """(checked_count, range) for the requested nmax."""
    if target == "qd":
        return nmax * (nmax - 1) // 2, f"2 <= d <= N <= {nmax}"
    if target == "density":
        return (nmax - 1) * (nmax - 2) // 2, f"2 <= d < N <= {nmax}"
    if target == "table":
        return 16, "16 reference rows"
    return oracle.distinct_core_pairs(nmax), f"distinct cores, N <= {nmax}"


def check_verify(cmd, stdout) -> list:
    meta = cmd["meta"]
    count, sweep = expected_certificate(meta["target"], meta["nmax"])
    if count < 1:
        return [f"nothing to check for nmax={meta['nmax']}"]
    if meta["json"]:
        certs = json.loads(stdout)["certificates"]
        got = [(c["target"], c["checked_count"], c["range"], c["violations"]) for c in certs]
        want = [(meta["target"], count, sweep, [])]
    else:
        got = stdout.splitlines()
        want = [f"ok {meta['target']}: {count} cases ({sweep})"]
    return [] if got == want else [f"certificate {got} != {want}"]


def check_euler(cmd, stdout) -> list:
    meta = cmd["meta"]
    ideal = [tuple(p) for p in meta["ideal"]]
    if meta["mode"] == "congruence":
        value = oracle.congruence_index(meta["value"], ideal)
    else:
        value = oracle.gamma_product(meta["value"], [q for q, _ in ideal])
    return [] if stdout.strip() == fmt(value) else [f"{stdout.strip()} != {fmt(value)}"]


def check(cmd, result, root: Path = ROOT) -> list:
    """Problems with one command's output; empty when it is right."""
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[:200]}"]
    kind, stdout = cmd["kind"], result["stdout"]
    try:
        if kind == "delta-max":
            return check_delta_max(cmd, json.loads(stdout), root)
        if kind == "leading-term":
            return check_leading_term(cmd, json.loads(stdout), root)
        if kind == "sx-table":
            return check_sx_table(cmd, stdout)
        if kind == "verify":
            return check_verify(cmd, stdout)
        return check_euler(cmd, stdout)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]
