"""Each demo script runs to completion and prints something, the README's
Python tour gives the values its comments state, and each of its shell
examples prints the output shown under it."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_exist():
    # an empty glob would parametrize test_demo_runs into no test at all
    assert DEMOS


def _run_demo(demo: Path) -> str:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    assert _run_demo(demo).strip()


def test_shapes_demo_prints_six_place_term():
    # 7^6 dominant shapes, folded one place at a time
    out = _run_demo(ROOT / "demos" / "03_shapes_and_leading_terms.py")
    assert (
        "six places: exponent 101, L-indices (6, 1, 1, -1, -1), "
        "coefficient 555452686314709569107/1000000\n"
    ) in out


def test_density_demo_prints_the_exponents_once_normalized():
    # sx_row already gives R - 1, so the demo prints its values as they are:
    # 8 and 6 for (2, 2), as `upqgrowth sx-table` and REFERENCE_TABLE do
    out = _run_demo(ROOT / "demos" / "02_density_table.py")
    assert "  provable exponent        8 (R-1," in out
    assert "  conjectural exponent     6\n" in out
    row = re.search(r"^\(2, 2\) +(\S+) +(\S+) +7\.50 +15$", out, re.M)
    assert row and row.groups() == ("8", "6")


def test_readme_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    from upqgrowth import GrowthValue

    tour, density = blocks
    # each value is checked next to the comment that states it
    assert "# (GrowthValue(22), (3, 2, 1, 1))" in tour
    assert (ns["value"], ns["witness"]) == (GrowthValue(22), (3, 2, 1, 1))
    result = ns["result"]
    assert "# ((3, 2, 2), (3, 2, 1, 1))" in tour
    assert result.candidates == ((3, 2, 2), (3, 2, 1, 1))
    assert "# the same as rep_bound(rep)" in tour
    assert (result.bound, result.q_argmax) == (ns["value"], ns["witness"])
    assert "# the 11 score-maximizing shapes" in tour
    assert len(result.shapes) == 11

    row = ns["row"]
    assert "# provable 8, conjectural 6, goal 15/2, trivial 15" in density
    assert (row.provable, row.conjectural) == (GrowthValue(8), GrowthValue(6))
    assert (row.sx_goal, row.trivial) == (Fraction(15, 2), 15)
    assert "partition_bound((2, 2))    # 9," in density
    assert ns["partition_bound"]((2, 2)) == GrowthValue(9)


def _readme_shell_examples():
    """(argv, shown stdout) of each `$ upqgrowth` line of the README with
    output lines under it, up to a blank line, a fence or the next `$`."""
    examples = []
    for line in README.read_text().splitlines():
        if line.startswith("$ upqgrowth "):
            examples.append((shlex.split(line)[2:], []))
        elif not line or line.startswith(("$", "```")):
            examples.append(None)
        elif examples and examples[-1] is not None:
            examples[-1][1].append(line)
    return [ex for ex in examples if ex is not None and ex[1]]


README_EXAMPLES = _readme_shell_examples()


def test_readme_shell_examples_found():
    assert [argv[0] for argv, _ in README_EXAMPLES] == [
        "sx-table",
        "verify",
        "leading-term",
        "delta-max",
        "coh-bounds",
        "euler",
    ]


def test_readme_rep_is_saved():
    # the examples read the file that the README's JSON block shows
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert (ROOT / "tests" / "data" / "readme_rep.json").read_text() == block


@pytest.mark.parametrize(
    "argv, shown",
    README_EXAMPLES,
    ids=[" ".join(argv) for argv, _ in README_EXAMPLES],
)
def test_readme_shell_example_output(argv, shown, capsys):
    from upqgrowth import cli

    # a --rep path is relative to the repository root
    argv = [
        str(ROOT / a) if prev == "--rep" else a for prev, a in zip([""] + argv, argv)
    ]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in shown)
