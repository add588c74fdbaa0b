"""Integrability profiles, extremal partitions, and the frozen table."""

from __future__ import annotations

import ast
import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from upqgrowth import growth, sarnakxue
from upqgrowth.growth import GrowthValue, split_tables
from upqgrowth.partitions import balanced_bipartition, partitions_of
from upqgrowth.sarnakxue import (
    Certificate,
    REFERENCE_TABLE,
    exponent_profile,
    integrability_bound,
    max_ratio,
    one_merge_coarsenings,
    profile_sum,
    qd,
    qd_prime,
    sx_goal,
    sx_row,
    verify_density,
    verify_maxsl2,
    verify_qd_bound,
    verify_table1,
)


# --- profiles and ratios -------------------------------------------------------


def test_exponent_profile():
    assert exponent_profile(((1, 1), (1, 1))) == (1, 1)
    assert exponent_profile(((2, 2),)) == (3, 1)
    assert exponent_profile(((2, 1), (1, 0))) == (2,)
    assert exponent_profile(((3, 0),)) == ()


def test_profile_sum_pads_with_zeros():
    assert profile_sum((3, 1), 1) == 3
    assert profile_sum((3, 1), 2) == 4
    assert profile_sum((3, 1), 9) == 4
    assert profile_sum((), 4) == 0
    with pytest.raises(ValueError):
        profile_sum((1,), -1)


def test_max_ratio_values():
    assert max_ratio((2, 2)) == Fraction(1, 2)
    assert max_ratio((3, 3)) == Fraction(1, 2)
    assert max_ratio((5,)) == 1
    assert max_ratio((1, 1)) == 0
    assert max_ratio((1,)) == 0
    assert max_ratio((2, 1)) == Fraction(1, 2)


@st.composite
def ones_heavy_partitions(draw, n_max=40):
    """Partitions of N <= n_max with a drawn number of 1s. A 1 adds nothing
    to the balanced profile, so the profile is often shorter than N/2."""
    n = draw(st.integers(1, n_max))
    rest = n - draw(st.integers(0, n))
    parts = [1] * (n - rest)
    while rest:
        v = draw(st.integers(1, rest))
        parts.append(v)
        rest -= v
    return tuple(sorted(parts, reverse=True))


@given(ones_heavy_partitions())
@example((1,) * 40)
@example((1,) * 39)
@example((2,) + (1,) * 38)
@example((40,))
@example((3, 3, 3, 3))
def test_max_ratio_matches_oracle(parts):
    n = sum(parts)
    want = oracles.max_ratio(parts)
    assert max_ratio(parts) == want
    assert max_ratio(parts[::-1]) == want
    assert integrability_bound(parts) == 1 - want
    assert sx_goal(parts) == (n * n - 1) * (1 - want)


def test_goal_values():
    assert integrability_bound((2, 2)) == Fraction(1, 2)
    assert sx_goal((2, 2)) == Fraction(15, 2)
    assert sx_goal((2, 2, 1)) == 16
    assert sx_goal((5, 5)) == Fraction(99, 2)


def test_profile_domination_by_balanced():
    # any bipartition's profile partial-sums are capped by the balanced one
    for n in range(1, 9):
        for p in range(n + 1):
            for b in oracles.all_bipartitions(p, n - p):
                parts = tuple(
                    sorted((x + y for x, y in b), reverse=True)
                )
                prof = exponent_profile(b)
                cap = exponent_profile(balanced_bipartition(parts))
                for i in range(1, n + 1):
                    assert profile_sum(prof, i) <= profile_sum(cap, i)


# --- extremal partitions -------------------------------------------------------


def test_qd():
    assert qd(7, 3) == (3, 3, 1)
    assert qd(6, 3) == (3, 3)
    assert qd(4, 2) == (2, 2)
    assert qd(5, 1) == (1, 1, 1, 1, 1)
    assert qd(3, 3) == (3,)
    with pytest.raises(ValueError):
        qd(2, 3)
    with pytest.raises(ValueError):
        qd(3, 0)


def test_qd_prime():
    assert qd_prime(7, 3) == (3, 2, 2)
    assert qd_prime(8, 3) == (3, 2, 2, 1)
    assert qd_prime(6, 3) == (3, 2, 1)
    assert qd_prime(4, 2) == (2, 1, 1)
    with pytest.raises(ValueError):
        qd_prime(5, 3)  # below 2d
    with pytest.raises(ValueError):
        qd_prime(4, 1)


def test_qd_ratio_closed_forms():
    for d in range(2, 13):
        for n in range(d, 25):
            k = n // d
            assert max_ratio(qd(n, d)) == Fraction(d - 1, n - k)
            if n >= 2 * d:
                assert max_ratio(qd_prime(n, d)) == Fraction(d - 1, n - k + 1)


# --- coarsenings and table rows -------------------------------------------------


def test_one_merge_coarsenings():
    assert one_merge_coarsenings((2, 2, 1, 1)) == [(2, 2, 2), (2, 2, 1, 1)]
    assert one_merge_coarsenings((3, 2)) == [(3, 2)]
    assert one_merge_coarsenings((1, 1, 1)) == [
        (3,),
        (2, 1),
        (1, 1, 1),
    ]


def _assert_row_matches_oracle(parts):
    row = sx_row(parts)
    pm, pe, pi, cm, ci, goal, triv = oracles.table_row(parts)
    assert row.provable.main == pm
    assert row.provable.eps == pe
    assert row.provable_at_coarsening == pi
    assert row.conjectural.main == cm
    assert row.conjectural.eps == 0
    assert row.conjectural_at_coarsening == ci
    assert row.sx_goal == goal
    assert row.trivial == triv


def test_rows_match_oracle():
    for n in range(2, 11):
        for parts in partitions_of(n):
            _assert_row_matches_oracle(parts)


@given(
    st.integers(1, 14).flatmap(lambda n: st.sampled_from(partitions_of(n)))
)
def test_random_rows_match_oracle(parts):
    _assert_row_matches_oracle(parts)


@pytest.mark.parametrize(
    "parts, provable, conjectural",
    [
        ((3, 3, 3) + (1,) * 13, GrowthValue(329, 3), GrowthValue(318)),
        ((2, 2, 2) + (1,) * 13, GrowthValue(268, 2), GrowthValue(264)),
    ],
)
def test_rows_with_eps_frozen(parts, provable, conjectural):
    # a T = 3 block of d > 1 adds d epsilons: the sign the kernel must keep
    row = sx_row(parts)
    assert (row.provable, row.conjectural) == (provable, conjectural)
    assert not row.provable_at_coarsening
    assert not row.conjectural_at_coarsening


def test_reference_table_is_reproducible():
    assert len(REFERENCE_TABLE) == 16
    for row in REFERENCE_TABLE:
        assert sx_row(row.q) == row
    assert [r.q for r in REFERENCE_TABLE if r.exceeds_goal] == [(2, 2)]
    flagged = [r.q for r in REFERENCE_TABLE if r.provable_at_coarsening]
    assert flagged == [(2, 2, 1, 1), (2, 2, 2, 1, 1), (2, 2, 2, 2, 1, 1)]


def test_row_json():
    row = sx_row((2, 2))
    assert row.to_json() == {
        "q": [2, 2],
        "provable": {"main": "8", "eps": 0},
        "conjectural": {"main": "6", "eps": 0},
        "sx_goal": "15/2",
        "trivial": 15,
        "provable_at_coarsening": False,
        "conjectural_at_coarsening": False,
        "exceeds_goal": True,
    }


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
def test_provable_dominates_conjectural(parts):
    row = sx_row(tuple(sorted(parts, reverse=True)))
    assert row.conjectural.main <= row.provable.main
    assert row.provable.main <= row.trivial


# --- certificates ---------------------------------------------------------------


def test_verify_table():
    cert = verify_table1()
    assert cert.ok
    assert cert.checked_count == 16
    assert cert.target == "table"


def test_verify_qd_small():
    cert = verify_qd_bound(20)
    assert cert.ok
    assert cert.checked_count == sum(20 - d + 1 for d in range(2, 21))


def test_verify_density_small():
    cert = verify_density(20)
    assert cert.ok
    assert cert.notes


@pytest.mark.parametrize("n_max", range(2, 21))
def test_sweeps_match_fraction_oracle(n_max):
    cert = verify_qd_bound(n_max)
    assert (cert.checked_count, list(cert.violations)) == oracles.qd_sweep(n_max)
    if n_max >= 3:
        cert = verify_density(n_max)
        want = oracles.density_sweep(n_max)
        assert (cert.checked_count, list(cert.violations)) == want


@pytest.mark.parametrize("n_max", [30, 60, 110])
def test_density_sweep_matches_fraction_oracle_large(n_max):
    cert = verify_density(n_max)
    want = oracles.density_sweep(n_max)
    assert (cert.checked_count, list(cert.violations)) == want


def _wrong_at(table, right):
    return lambda n, d: table.get((n, d)) or right(n, d)


def test_qd_violation_text_frozen(monkeypatch):
    # (5,2): an empty profile, escaped within N/2; (6,2): a wrong ratio;
    # (8,2): a qd_prime of 16 whose profile escapes only past N/2 = 4
    monkeypatch.setattr(
        sarnakxue, "qd", _wrong_at({(5, 2): (1,) * 5, (6, 2): (3, 3)}, qd)
    )
    monkeypatch.setattr(
        sarnakxue, "qd_prime", _wrong_at({(8, 2): (2,) * 8}, qd_prime)
    )
    cert = verify_qd_bound(8)
    assert cert.violations == (
        "ratio(qd(5,2)) = 0 != 1/3",
        "qd_prime(5,2) escapes the qd(5,2) profile",
        "ratio(qd(6,2)) = 1/2 != 1/3",
        "ratio(qd_prime(8,2)) = 1/8 != 1/5",
        "qd_prime(8,2) escapes the qd(8,2) profile",
    )
    assert not cert.ok


def _gt_reads_false(func):
    """func recompiled from its source with every `a > b` reading False."""

    class Falsify(ast.NodeTransformer):
        def visit_Compare(self, node):
            self.generic_visit(node)
            if any(isinstance(op, ast.Gt) for op in node.ops):
                return ast.copy_location(ast.Constant(False), node)
            return node

    tree = Falsify().visit(ast.parse(inspect.getsource(func)))
    tree = ast.fix_missing_locations(tree)
    code = compile(tree, inspect.getsourcefile(func), "exec")
    namespace = dict(func.__globals__)
    exec(code, namespace)
    return namespace[func.__name__]


def _term_at(td, value, right):
    return lambda t, d: value if (t, d) == td else right(t, d)


def test_density_violation_text_frozen(monkeypatch):
    # the refined recheck reads _refined_term: a (2, 2) block worth 8 puts
    # qd(5,2) = (2,2,1) exactly on the goal, so its eps decides; (4,2) with
    # the same block stays above the goal as expected
    right = sarnakxue._refined_term
    for block, want in (
        ((8, 0), ("refined recheck at (5,2): passes=False",)),
        ((8, -1), ()),
    ):
        term = _term_at((2, 2), block, right)
        monkeypatch.setattr(sarnakxue, "_refined_term", term)
        assert verify_density(8).violations == want
    monkeypatch.undo()
    # a naive score far below zero is strictly below every goal
    monkeypatch.setattr(sarnakxue, "_naive_term", lambda t, d: (-(10**6), 0))
    assert verify_density(7).violations == tuple(
        f"naive case at {nd}: strict=True, expected exceptional=True"
        for nd in ("(4,2)", "(5,2)", "(6,2)", "(6,3)", "(7,3)")
    )
    monkeypatch.undo()
    # with no comparison holding, every short-range and secondary case fails,
    # and so does the naive case wherever it is not exceptional
    assert _gt_reads_false(verify_density)(7).violations == (
        "short-range case fails at (3,2)",
        "secondary case fails at (4,2)",
        "secondary case fails at (5,2)",
        "secondary case fails at (6,2)",
        "secondary case fails at (7,2)",
        "naive case at (7,2): strict=False, expected exceptional=False",
        "short-range case fails at (4,3)",
        "short-range case fails at (5,3)",
        "secondary case fails at (6,3)",
        "secondary case fails at (7,3)",
        "short-range case fails at (5,4)",
        "short-range case fails at (6,4)",
        "short-range case fails at (7,4)",
        "short-range case fails at (6,5)",
        "short-range case fails at (7,5)",
        "short-range case fails at (7,6)",
    )


def test_density_sweep_scores_no_case(monkeypatch):
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name} called")

        return refused

    # every growth bound sums its blocks in growth._bound
    for module, name in (
        (sarnakxue, "qd"),
        (sarnakxue, "partition_bound"),
        (growth, "_bound"),
    ):
        monkeypatch.setattr(module, name, refuse(name))
    assert verify_density(60).ok


def test_verify_maxsl2_small():
    cert = verify_maxsl2(8)
    assert cert.ok
    assert cert.checked_count > 0


def test_maxsl2_enumerates_no_partition(monkeypatch):
    def refuse(n):
        raise AssertionError("partitions_of called")

    monkeypatch.setattr(sarnakxue, "partitions_of", refuse)
    assert verify_maxsl2(14).ok


@pytest.fixture(scope="module")
def maxsl2_oracle_cases():
    return oracles.maxsl2_cases(20)


@pytest.mark.parametrize("n_max", range(1, 21))
def test_maxsl2_matches_enumeration(n_max, maxsl2_oracle_cases):
    cases = [v for n, v in maxsl2_oracle_cases if n <= n_max]
    cert = verify_maxsl2(n_max)
    assert cert.checked_count == len(cases)
    assert sorted(cert.violations) == sorted(m for v in cases for m in v)
    assert cert.ok


def _flat_value(groups):
    n = sum(t * d for t, d in groups)
    return Fraction(n * n, 2), 0


def _eps_value(groups):
    return oracles.naive_value(groups), sum(t - 1 for t, _ in groups)


@pytest.mark.parametrize(
    "term, value, lines",
    [
        # every extra ties: argmax lists of several partitions
        (
            lambda t, d: (0, 0),
            _flat_value,
            (
                "core (), N=1: best 1/2 not at padded partition",
                "core (), N=2: best 2 not at padded partition",
                "core (), N=2: argmax [(1, 1), (2,)]",
                "core (), N=3: best 9/2 not at padded partition",
                "core (), N=3: argmax [(1, 1, 1), (2, 1), (3,)]",
                "core (), N=4: best 8 not at padded partition",
                "core (), N=4: argmax "
                "[(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]",
                "core (2,), N=2: best 2 not at padded partition",
                "core (2,), N=3: best 9/2 not at padded partition",
                "core (2,), N=4: best 8 not at padded partition",
                "core (3,), N=3: best 9/2 not at padded partition",
                "core (3,), N=4: best 8 not at padded partition",
                "core (4,), N=4: best 8 not at padded partition",
            ),
        ),
        # naive terms plus T - 1 epsilons: (2, 2) beats (2, 1, 1) alone
        (
            lambda t, d: (t * t * d, t - 1),
            _eps_value,
            (
                "core (), N=2: best 4+eps not at padded partition",
                "core (), N=3: best 9+2*eps not at padded partition",
                "core (), N=4: best 16+3*eps not at padded partition",
                "core (2,), N=2: best 3 not at padded partition",
                "core (2,), N=3: best 6 not at padded partition",
                "core (2,), N=4: best 12+eps not at padded partition",
                "core (2,), N=4: argmax [(2, 2)]",
                "core (3,), N=3: best 6 not at padded partition",
                "core (3,), N=4: best 10 not at padded partition",
                "core (4,), N=4: best 10 not at padded partition",
            ),
        ),
    ],
)
def test_maxsl2_violation_text(monkeypatch, term, value, lines):
    # tables from another block term make the sweep fail; the lines are
    # those the enumerating sweep printed under the same tables
    monkeypatch.setattr(
        sarnakxue, "split_tables", lambda n: split_tables(n, term=term)
    )
    cert = verify_maxsl2(4)
    assert cert.violations == lines
    assert not cert.ok
    want = [m for _, v in oracles.maxsl2_cases(9, value) for m in v]
    assert sorted(verify_maxsl2(9).violations) == sorted(want)


def test_certificate_of_no_cases_is_not_ok():
    cert = Certificate(target="t", sweep="s", checked_count=0, violations=())
    assert not cert.ok
    assert not verify_qd_bound(1).ok


def test_certificate_json_and_ok():
    cert = Certificate(
        target="t", sweep="s", checked_count=2, violations=("bad",)
    )
    assert not cert.ok
    assert cert.to_json() == {
        "target": "t",
        "range": "s",
        "checked_count": 2,
        "violations": ["bad"],
        "notes": [],
    }
