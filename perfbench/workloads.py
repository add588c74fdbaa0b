"""Seeded inputs for the benchmark workloads.

Each workload is one pass: a list of CLI commands in a fixed order. Every
command in a pass has its own input, so a cache keyed on a whole input
never hits within a pass. The cost of a pass is set by fixed class sizes
(and, where a class's cost depends on one parameter, a fixed multiset of
that parameter); the seed draws the inputs inside each class, the output
formats and the order. Representations are written as JSON files under the
workload's directory, and commands name them by paths relative to the
checkout root.

Run as a script to write one workload's files and print its commands:

    python3 perfbench/workloads.py --workload shapes --seed 0
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("shapes", "density", "sweeps")


def rho(n: int):
    return [Fraction(n - 1 - 2 * i, 2) for i in range(n)]


def fmt(x) -> str:
    """An int or Fraction as the CLI prints it: "3" or "7/2"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rep_json(places) -> dict:
    return {
        "places": [
            {
                "signature": [sum(x for x, _ in b), sum(y for _, y in b)],
                "bipartition": [[x, y] for x, y in b],
                "infchar": [fmt(v) for v in lam],
            }
            for b, lam in places
        ]
    }


def command(argv, kind, cls, **meta) -> dict:
    return {"argv": [str(a) for a in argv], "kind": kind, "cls": cls, "meta": meta}


# --- shapes --------------------------------------------------------------------


def odd_block_place(n: int, k: int, side: str):
    """One mixed block of length k, then one degenerate run of n - k."""
    if side == "p":
        blocks = ((k - 1, 1),) + ((1, 0),) * (n - k)
    else:
        blocks = ((1, k - 1),) + ((0, 1),) * (n - k)
    return blocks, rho(n)


def corner_place(n: int):
    """The U(n-1,1) place (1,1),(1,0)^(n-2)."""
    return ((1, 1),) + ((1, 0),) * (n - 2), rho(n)


def random_place(rng: random.Random, n: int):
    """A place of rank n: degenerate runs of at most 7 around 1-2 mixed blocks."""
    while True:
        blocks, left = [], n
        mixed = rng.choice((1, 1, 2))
        for _ in range(mixed):
            a, b = rng.choice(((1, 1), (1, 1), (2, 1), (1, 2), (3, 1), (2, 2)))
            if a + b < left:
                blocks.append((a, b))
                left -= a + b
        blocks += [(1, 0) if rng.random() < 0.8 else (0, 1) for _ in range(left)]
        rng.shuffle(blocks)
        run, longest = 0, 0
        for prev, cur in zip([None] + blocks, blocks):
            run = run + 1 if cur == prev and sum(cur) == 1 else 1
            longest = max(longest, run)
        if longest <= 7:
            break
    # doubled values: top has the parity of n - 1, gaps are 1 or 2
    top = n - 1 + 2 * rng.randint(-2, 2)
    lam = []
    for x, y in blocks:
        if lam:
            top = lam[-1] - (2 if rng.random() < 0.85 else 4)
        lam += [top - 2 * i for i in range(x + y)]
    return tuple(blocks), [Fraction(v, 2) for v in lam]


def wide_rep(rng: random.Random, n: int, n_places: int, shapes: int):
    """Places sharing a candidate, with this many dominant shapes (by brute force)."""
    while True:
        places = [random_place(rng, n) for _ in range(n_places)]
        found = oracle.best_bound(places)
        if found and oracle.shape_count(places, found[2]) == shapes:
            return places


def wide_slots():
    """(rank, places, dominant shapes) per wide command.

    A wide command's cost grows with its shape count, so the count of each
    is fixed; the (rank, places) pairs are those where random places reach
    that count often enough to draw quickly.
    """
    slots = []
    for shapes, count in ((4, 20), (6, 20), (8, 24), (12, 12)):
        sizes = [
            (n, p) for n in range(7, 12) for p in (2, 3)
            if shapes <= 6 or n + p >= (11 if shapes == 8 else 12)
        ]
        slots += [sizes[j % len(sizes)] + (shapes,) for j in range(count)]
    return slots


def shapes_workload(rng: random.Random, files: dict) -> list:
    cmds = []

    def add(kind, cls, places, family, **meta):
        path = f"rep_{len(files):03d}.json"
        files[path] = rep_json(places)
        cmds.append(command([kind, "--rep", path], kind, cls, family=family, **meta))

    # wide: ranks 7-11, 2-3 places, several dominant shapes
    seen = set()
    for n, n_places, shapes in wide_slots():
        while True:
            places = wide_rep(rng, n, n_places, shapes)
            key = json.dumps(rep_json(places))
            if key not in seen:
                seen.add(key)
                break
        add("delta-max", "wide", places, "wide")

    # deep: a run of 9 at two places; half delta-max, half leading-term
    deep9 = [(k, a + b) for k in range(3, 15, 2) for a in "pq" for b in "pq"]
    rng.shuffle(deep9)
    for j, (k, sides) in enumerate(deep9):
        kind = "delta-max" if j % 2 else "leading-term"
        places = [odd_block_place(k + 9, k, s) for s in sides]
        add(kind, "deep9", places, "odd-block", k=k)
    add("delta-max", "deep9", [corner_place(11)] * 2, "corner")

    # deep: a run of 10 at one place, and the two-place U(11,1)
    deep10 = [(k, s) for k in (5, 7) for s in "pq"]
    rng.shuffle(deep10)
    for j, (k, s) in enumerate(deep10):
        kind = "delta-max" if j % 2 else "leading-term"
        add(kind, "deep10", [odd_block_place(k + 10, k, s)], "odd-block", k=k)
    add("delta-max", "deep10", [corner_place(12)] * 2, "corner")
    return cmds


# --- density -------------------------------------------------------------------


def random_core(rng: random.Random, total: int):
    """A random partition of total into parts >= 2."""
    parts = []
    while total:
        v = rng.randint(2, total) if total > 3 else total
        if total - v == 1:
            continue
        parts.append(v)
        total -= v
    return tuple(sorted(parts, reverse=True))


def density_workload(rng: random.Random, files: dict) -> list:
    cmds, seen = [], set()

    def rows(cls, ones_list, n_lo, n_hi):
        for j, ones in enumerate(ones_list):
            while True:
                n = rng.randint(max(n_lo, ones + 2), n_hi)
                row = random_core(rng, n - ones) + (1,) * ones
                if row not in seen:
                    seen.add(row)
                    break
            fmt_json = j % 2 == 1
            argv = ["sx-table", "--parts", ",".join(map(str, row))]
            cmds.append(
                command(argv + ["--json"] * fmt_json, "sx-table", cls,
                        rows=[list(row)], json=fmt_json)
            )

    rows("light", [8 + j % 7 for j in range(70)], 16, 22)
    rows("heavy", [20 + j % 3 for j in range(30)], 22, 30)
    for n in range(10, 15):
        cmds.append(
            command(["verify", "--target", "maxsl2", "--nmax", n], "verify", "maxsl2",
                    target="maxsl2", nmax=n, json=False)
        )
    return cmds


# --- sweeps --------------------------------------------------------------------


def sweeps_workload(rng: random.Random, files: dict) -> list:
    cmds = []

    def verify(target, nmax, cls, as_json):
        argv = ["verify", "--target", target, "--nmax", nmax] + ["--json"] * as_json
        cmds.append(command(argv, "verify", cls, target=target, nmax=nmax, json=as_json))

    # qd costs grow as nmax^4, so its few commands stay above all of the
    # density ones and p90 falls among density commands of similar cost
    sweep = [("density", n) for n in range(30, 111)] + [("qd", n) for n in range(50, 61, 2)]
    flags = [i % 2 == 1 for i in range(len(sweep))]
    rng.shuffle(flags)
    for (target, n), as_json in zip(sweep, flags):
        verify(target, n, target, as_json)
    verify("table", 60, "table", rng.random() < 0.5)

    primes = (2, 3, 5, 7, 11, 13)
    seen = set()
    while len(seen) < 30:
        ideal = tuple(
            (q, rng.randint(1, 3)) for q in sorted(rng.sample(primes, rng.randint(1, 3)))
        )
        if len(seen) % 2:
            n = rng.randint(1, 8)
            key = ("congruence", n, ideal)
        else:
            t1, k = rng.randint(1, 12), rng.randint(1, 4)
            key = ("indices", (t1,) + (1,) * (k - 1) + (-1,) * (k - 1), ideal)
        if key in seen:
            continue
        seen.add(key)
        mode, value, ideal = key
        text = ",".join(f"{q}^{e}" if e > 1 else str(q) for q, e in ideal)
        arg = value if mode == "congruence" else ",".join(map(str, value))
        cmds.append(
            command(["euler", f"--{mode}", arg, "--ideal", text], "euler", "euler",
                    mode=mode, value=value, ideal=[list(p) for p in ideal])
        )
    return cmds


BUILDERS = {
    "shapes": shapes_workload,
    "density": density_workload,
    "sweeps": sweeps_workload,
}


def generate(workload: str, seed: int, root: Path = ROOT):
    """Write the workload's files and return (commands, input directory).

    File arguments in the commands are relative to root.
    """
    rng = random.Random(f"{workload}:{seed}")
    files: dict = {}
    cmds = BUILDERS[workload](rng, files)
    rng.shuffle(cmds)
    directory = root / "perfbench" / "out" / f"{workload}-{seed}"
    rel = directory.relative_to(root).as_posix()
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data))
    for cmd in cmds:
        if cmd["kind"] in ("delta-max", "leading-term"):
            cmd["argv"][-1] = f"{rel}/{cmd['argv'][-1]}"
    return cmds, directory


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cmds, directory = generate(args.workload, args.seed)
    print(f"# {len(cmds)} commands, inputs in {directory.relative_to(ROOT)}")
    for cmd in cmds:
        print(cmd["cls"], " ".join(cmd["argv"]))


if __name__ == "__main__":
    main()
