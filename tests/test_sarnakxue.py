"""Integrability profiles, extremal partitions, and the frozen table."""

from __future__ import annotations

import ast
import functools
import inspect
import re
from collections import Counter
from fractions import Fraction
from operator import ge

import pytest
from hypothesis import assume, example, given
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
    assert sx_row(parts).sx_goal == (n * n - 1) * (1 - want)


def test_goal_values():
    assert integrability_bound((2, 2)) == Fraction(1, 2)
    assert sx_row((2, 2)).sx_goal == Fraction(15, 2)
    assert sx_row((2, 2, 1)).sx_goal == 16
    assert sx_row((5, 5)).sx_goal == Fraction(99, 2)


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


def test_max_ratio_closed_form_exhaustive():
    # the closed forms of qd and qd_prime are instances of this; the qd
    # sweep checks them rather than assuming them
    for n in range(2, 23):
        for q in partitions_of(n):
            if q[0] >= 2:
                assert max_ratio(q) == Fraction(q[0] - 1, n - q.count(q[0])), q


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


def _fields(row):
    """Each field of a row, a GrowthValue as its main and eps, with its type."""
    flat = []
    for value in row:
        flat.append((value, type(value)))
        if isinstance(value, GrowthValue):
            flat.extend((v, type(v)) for v in value)
    return flat


def _assert_row_matches_oracle(parts, best=oracles.best_grouping):
    assert _fields(sx_row(parts)) == _fields(oracles.density_row(parts, best))


def test_rows_match_oracle():
    # every partition with N <= 18 (1,596 rows), field by field with its
    # type; each coarsening's best grouping is scored once across the rows
    best = functools.cache(oracles.best_grouping)
    for n in range(1, 19):
        for parts in partitions_of(n):
            _assert_row_matches_oracle(parts, best)


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


# at a prime n_max the last block N = k*d + r is cut partway for most d
@pytest.mark.parametrize("n_max", [30, 60, 97, 110])
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


def test_qd_sweep_serves_parts_and_totals_above_nmax(monkeypatch):
    # parts 10 and 11 and totals 11, 15 and 18, all above n_max = 8; the texts
    # are frozen from the sweep that built each profile per case
    monkeypatch.setattr(
        sarnakxue, "qd", _wrong_at({(7, 3): (11,), (8, 4): (10, 1)}, qd)
    )
    monkeypatch.setattr(
        sarnakxue,
        "qd_prime",
        _wrong_at({(6, 2): (2,) * 9, (8, 3): (4, 4, 4, 3)}, qd_prime),
    )
    cert = verify_qd_bound(8)
    assert cert.checked_count == 28
    assert cert.violations == (
        "ratio(qd_prime(6,2)) = 1/9 != 1/4",
        "qd_prime(6,2) escapes the qd(6,2) profile",
        "ratio(qd(7,3)) = 1 != 2/5",
        "ratio(qd_prime(8,3)) = 1/4 != 2/7",
        "qd_prime(8,3) escapes the qd(8,3) profile",
        "ratio(qd(8,4)) = 9/10 != 1/2",
    )


def test_qd_sweep_reads_qd_and_qd_prime_once_per_case(monkeypatch):
    # the sweep certifies the library's partitions, not ones it rebuilds
    reads = {"qd": Counter(), "qd_prime": Counter()}
    for name, seen in reads.items():
        monkeypatch.setattr(sarnakxue, name, _counted(getattr(sarnakxue, name), seen))
    assert verify_qd_bound(60).ok
    cases = [(n, d) for d in range(2, 61) for n in range(d, 61)]
    assert reads["qd"] == Counter(cases)
    assert reads["qd"].total() == 1770
    assert reads["qd_prime"] == Counter((n, d) for n, d in cases if n >= 2 * d)
    assert reads["qd_prime"].total() == 841


# at a prime n_max, qd(n_max, d) has a remainder part for every d < n_max
@pytest.mark.parametrize("n_max", [30, 61])
def test_qd_sweep_matches_fraction_oracle_large(n_max):
    cert = verify_qd_bound(n_max)
    assert (cert.checked_count, list(cert.violations)) == oracles.qd_sweep(n_max)


def test_qd_sweep_matches_walk():
    # the family lemmas decide what the walk checked case by case; a case's
    # messages do not depend on n_max, so the walk runs once, at 200, and
    # its cases N <= n_max, in its order, are the walk at n_max
    cases = list(oracles.qd_cases(200))
    for n_max in [*range(121), 200]:
        kept = [case for case in cases if case[0] <= n_max]
        assert verify_qd_bound(n_max) == oracles.qd_certificate(n_max, kept), n_max


def _walked(n_max):
    """(certificate, the cases (N, d) that the sweep walks)."""
    walked = []
    walk = sarnakxue._qd_violations

    def record(n, d, *rest):
        walked.append((n, d))
        return walk(n, d, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "_qd_violations", record)
        return verify_qd_bound(n_max), walked


@pytest.mark.parametrize("n_max", [8, 60, 97])
def test_qd_sweep_walks_only_families_of_one_case(n_max):
    # a family of one case is decided by its tail at kappa = 1 like the
    # others, so the real qd and qd_prime walk no case at all
    cert, walked = _walked(n_max)
    assert cert == oracles.qd_walk(n_max)
    assert walked == []


@pytest.mark.parametrize("rejects", ["_qd_family_holds", "_profile_dominates"])
def test_qd_sweep_walks_every_rejected_family(monkeypatch, rejects):
    # the first decides every family, so every case is walked; the second
    # only those of two cases or more (2d + r <= N)
    monkeypatch.setattr(sarnakxue, rejects, lambda *args: False)
    every = rejects == "_qd_family_holds"
    for n_max in [*range(41), 60, 97]:
        cert, walked = _walked(n_max)
        assert cert == oracles.qd_walk(n_max), n_max
        assert walked == [
            (n, d)
            for d in range(2, n_max + 1)
            for n in range(d, n_max + 1)
            if every or 2 * d + n % d <= n_max
        ]


@st.composite
def _qd_families(draw):
    """(d, T, kappa_hi) with T's parts in 1..d: a part d makes the closed
    form (d - 1)/(N - kappa) of d^kappa + T false."""
    d = draw(st.integers(2, 12))
    tail = tuple(draw(st.lists(st.integers(1, d), max_size=4)))
    return d, tail, draw(st.integers(1, 6))


@example((5, (3,), 4))
@example((5, (4, 3, 1), 3))
@example((3, (3,), 2))
@example((2, (2, 1), 1))
@given(_qd_families())
def test_qd_threshold_lemma(case):
    # F = kappa*A + B at the top-x point of every threshold v < max(T),
    # against the prefix sums; and the verdict of the ends kappa = 1 and
    # kappa_hi is that of the scan at every kappa between, both ways
    d, tail, k_hi = case
    terms = list(oracles.threshold_terms(d, tail))
    assert len(terms) == max(max(tail, default=0) - 1, 0)
    holds = []
    for kappa in range(1, k_hi + 1):
        q = (d,) * kappa + tail
        n = sum(q)
        profile = oracles.balanced_profile(q)
        sigma = sarnakxue._profile_prefix(q)
        for v, (a, b) in enumerate(terms, 1):
            x = sum(1 for e in profile if e >= v)
            assert kappa * a + b == (d - 1) * x * (n - x) - (n - kappa) * sigma[x]
        num, den = sarnakxue._top_ratio(sigma, sarnakxue._pair_weights(n))
        holds.append(num * (n - kappa) == (d - 1) * den)
    assert oracles.family_holds(d, tail, k_hi) == all(holds)


def _qd_tails(d, r):
    """(T, T') of the family (d, r) of `verify_qd_bound`."""
    return (r,) if r else (), (d - 1, d - 1, 1) if r == d - 1 else (d - 1, r + 1)


def test_qd_closed_forms_match_threshold_terms():
    for d in range(2, 151):
        for r in range(d):
            tail, tail2 = _qd_tails(d, r)
            terms = list(oracles.threshold_terms(d, tail))
            assert terms == [sarnakxue._qd_terms(d, r, v) for v in range(1, r)]
            for v, (a, b) in enumerate(oracles.threshold_terms(d, tail2), 1):
                j, c1 = (d + 1 - v) // 2, (d - v) // 2
                if r == d - 1:
                    assert (a, b) == (j * (j - 1), 2 * c1 * c1), (d, v)
                elif v >= r + 2:
                    assert (a, b) == ((r + 1) * j * (j - 1), (r + 1) * c1 * c1)
                else:
                    assert (a, b) == sarnakxue._qd_prime_terms(d, r, v), (d, r, v)


@st.composite
def _threshold_segments(draw):
    """(d, T, v): three thresholds v, v - 2, v - 4 below max(T), each part
    of T that counts at v - 4 counting at v at least 0 times."""
    d = draw(st.integers(2, 40))
    tail = tuple(draw(st.lists(st.integers(1, d), min_size=1, max_size=5)))
    top = max(tail) - 1
    assume(top >= 5)
    v = draw(st.integers(5, top))
    assume(all(m >= v - 1 for m in tail if m >= v - 3))
    return d, tail, v


# the part 5 counts 0 times at v = 6 and twice at v = 2
@example((10, (9, 5), 6))
@given(_threshold_segments())
def test_qd_second_difference_lemma(case):
    # along one parity A and B are quadratics whose second differences
    # are 2*(R - e*a) and 2*a*(R - e*a), a the parts counted
    d, tail, v = case
    terms = list(oracles.threshold_terms(d, tail))
    (a0, b0), (a1, b1), (a2, b2) = (terms[w - 1] for w in (v, v - 2, v - 4))
    a = sum(1 for m in tail if m >= v - 3)
    slack = sum(tail) - (d - 1) * a
    assert a0 - 2 * a1 + a2 == 2 * slack
    assert b0 - 2 * b1 + b2 == 2 * a * slack


def test_qd_run_ends_hold_the_least_of_each_run():
    # the least kappa*A + B over the thresholds of one parity of each run
    # that `_qd_family_holds` reads is at one of the run's ends
    for d in range(2, 81):
        for r in range(d):
            tail, tail2 = _qd_tails(d, r)
            runs = [list(oracles.threshold_terms(d, tail))]
            if r < d - 1:
                runs.append(list(oracles.threshold_terms(d, tail2))[: r + 1])
            for terms in runs:
                for run in (terms[0::2], terms[1::2]):
                    for kappa in range(1, 9):
                        f = [kappa * a + b for a, b in run]
                        assert min(f, default=0) == min(f[:1] + f[-1:], default=0)


def test_qd_family_decision_matches_the_scan():
    for d in range(2, 121):
        for r in range(d):
            tail, tail2 = _qd_tails(d, r)
            for k_hi in (1, 2, 5, 40):
                want = oracles.family_holds(d, tail, k_hi) and (
                    k_hi < 2 or oracles.family_holds(d, tail2, k_hi - 1)
                )
                assert sarnakxue._qd_family_holds(d, r, k_hi) == want, (d, r)


# (A, B) = (1, -2) fails only at kappa = 1, (-1, 1) only at kappa = 5
@pytest.mark.parametrize("worse", [(1, -2), (-1, 1)])
@pytest.mark.parametrize(
    "terms, r, k_hi, ends",
    [("_qd_terms", 9, 5, (1, 2, 7, 8)), ("_qd_prime_terms", 6, 6, (1, 2, 6, 7))],
)
def test_qd_family_decision_reads_each_end_at_both_kappas(
    monkeypatch, worse, terms, r, k_hi, ends
):
    # d = 12: a failure at either end of either parity of either run rejects
    # the family
    real = getattr(sarnakxue, terms)
    assert sarnakxue._qd_family_holds(12, r, k_hi)
    for bad in ends:
        monkeypatch.setattr(
            sarnakxue, terms, lambda d, r, v: worse if v == bad else real(d, r, v)
        )
        assert not sarnakxue._qd_family_holds(12, r, k_hi), bad


# (A, B) = (1, -2) fails only at kappa = 1, (-1, 1) only at kappa = 5
@pytest.mark.parametrize("worse", [(1, -2), (-1, 1)])
def test_threshold_scan_reads_both_kappas(monkeypatch, worse):
    # the scan that the closed forms are checked against rejects a family
    # that fails at either end of its kappa range, at any one threshold
    real = oracles.threshold_terms
    d, tail, k_hi = 12, (9,), 5
    assert oracles.family_holds(d, tail, k_hi)
    for bad in range(len(list(real(d, tail)))):
        monkeypatch.setattr(
            oracles,
            "threshold_terms",
            lambda d, tail: (
                worse if i == bad else t for i, t in enumerate(real(d, tail))
            ),
        )
        assert not oracles.family_holds(d, tail, k_hi), bad


def test_qd_sweep_decides_each_family_by_its_run_ends(monkeypatch):
    # at most 8 closed-form evaluations a family, 4 for a family of one case
    # (2d + r > N): counts, not timings
    evaluations = Counter()
    for name in ("_qd_terms", "_qd_prime_terms"):
        real = getattr(sarnakxue, name)

        def counted(d, r, v, real=real):
            evaluations[d, r] += 1
            return real(d, r, v)

        monkeypatch.setattr(sarnakxue, name, counted)
    n_max = 200
    assert verify_qd_bound(n_max).ok
    for (d, r), count in evaluations.items():
        assert count <= (8 if 2 * d + r <= n_max else 4), (d, r)
    assert max(evaluations.values()) == 8


def _top_sums(values, length):
    ordered = sorted(values, reverse=True)
    return [sum(ordered[:i]) for i in range(length + 1)]


multisets = st.lists(st.integers(0, 6), max_size=5)


@example([3, 1], [2, 2], [3, 1], [1])
@given(multisets, multisets, multisets, st.lists(st.integers(0, 3), max_size=5))
def test_top_sums_of_a_union(u, x, y, cuts):
    # the top-i sum of U + X is the best split a + b = i of its top sums, so
    # X over Y pointwise keeps U + X over U + Y pointwise
    length = len(u) + max(len(x), len(y))
    su, sx = _top_sums(u, length), _top_sums(x, length)
    union = _top_sums(u + x, length)
    assert union == [
        max(su[a] + sx[i - a] for a in range(i + 1)) for i in range(length + 1)
    ]
    # y as drawn, and x with entries cut, which x always dominates
    for low in (y, [max(0, e - c) for e, c in zip(x, cuts)] + x[len(cuts) :]):
        if all(map(ge, sx, _top_sums(low, length))):
            assert all(map(ge, union, _top_sums(u + low, length)))


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
    # with no comparison holding, the naive case fails wherever it is not
    # exceptional; the short range makes no comparison, as its lemma holds
    # for every d
    assert _gt_reads_false(verify_density)(7).violations == (
        "naive case at (7,2): strict=False, expected exceptional=False",
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


def _counted(term, seen: Counter):
    def counted(t, d):
        seen[t, d] += 1
        return term(t, d)

    return counted


def test_density_reads_each_term_once_where_needed(monkeypatch):
    reads = {"_naive_term": Counter(), "_refined_term": Counter()}
    for name, seen in reads.items():
        monkeypatch.setattr(sarnakxue, name, _counted(getattr(sarnakxue, name), seen))
    assert verify_density(60).ok
    # naive: each block (k, d) with k >= 2 once, and each remainder block
    # (1, r) with r < d <= 30 once
    blocks = [(k, d) for d in range(2, 31) for k in range(2, 60 // d + 1)]
    remainders = [(1, r) for r in range(1, 30)]
    assert reads["_naive_term"] == Counter(blocks + remainders)
    assert reads["_naive_term"].total() == 171
    # refined: once per exceptional pair, N = 2d and N = 2d + 1 (both in the
    # block k = 2) and (6, 2), and once for the remainder block (1, 1)
    at_2d = [(2, d) for d in range(2, 31)]
    at_2d_plus_1 = [(2, d) for d in range(2, 30)]
    assert reads["_refined_term"] == Counter(at_2d + at_2d_plus_1 + [(3, 2), (1, 1)])
    assert reads["_refined_term"].total() == 59


def test_density_sweep_matches_walk():
    for n_max in range(3, 301):
        assert verify_density(n_max) == oracles.density_walk(n_max), n_max


def _perturbed(offsets, slope, bumps):
    """A `_naive_term` off t*t*d by offsets[(t, d)] on the blocks t >= 2,
    whose remainder blocks (1, r) score slope * r + bumps[r]: not affine
    when a bump is not 0."""

    def term(t, d):
        if t == 1:
            return slope * d + bumps.get(d, 0), 0
        return t * t * d + offsets.get((t, d), 0), 0

    return term


def naive_terms(n_max=80):
    blocks = st.integers(2, n_max // 2).flatmap(
        lambda d: st.tuples(st.integers(2, n_max // d), st.just(d))
    )
    return st.builds(
        _perturbed,
        st.dictionaries(blocks, st.integers(-300, 300), max_size=6),
        st.integers(-5, 300),
        st.dictionaries(
            st.integers(1, n_max // 2), st.integers(-2000, 2000), max_size=2
        ),
    )


# (6, 2), walked as an exceptional pair, holds the strict comparison once
# the (3, 2) term is lowered; one bump on the true remainder terms
@example(_perturbed({(3, 2): -300}, 1, {}), 7)
@example(_perturbed({}, 1, {5: 2000}), 40)
@given(naive_terms(), st.integers(3, 80))
def test_density_sweep_matches_walk_under_perturbed_terms(term, n_max):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "_naive_term", term)
        assert verify_density(n_max) == oracles.density_walk(n_max)


def _tail_fault(d, slope):
    """A `_naive_term` whose remainder blocks score slope * r and whose
    (2, d) term is raised just enough that the last case of its block,
    N = 3d - 1, fails the strict naive comparison; and that N."""
    n = 3 * d - 1
    m = n - 2
    lhs = 2 * (m - d + 1) * (n * n - 1)
    raised = -(-lhs // m) - n * n - slope * (d - 1) + 2

    def term(t, d_):
        if t == 1:
            return slope * d_, 0
        return (raised if (t, d_) == (2, d) else t * t * d_), 0

    return term, n


def test_density_block_faulted_only_at_its_tail():
    # the steep remainder term keeps the block's earlier cases true, so the
    # block's constant terms pass and a higher coefficient sends it to the walk
    term, n = _tail_fault(20, 100)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "_naive_term", term)
        cert = verify_density(60)
        assert cert == oracles.density_walk(60)
    # the block (2, 20) past its exceptional pairs: 42 <= N <= 59
    in_block = [v for v in cert.violations if re.search(r"\((4[2-9]|5\d),20\)", v)]
    assert in_block == [
        "naive case at (59,20): strict=False, expected exceptional=False"
    ]


@given(st.integers(3, 26), st.integers(-5, 300), st.integers(0, 20))
def test_density_sweep_finds_a_block_tail_fault(d, slope, extra):
    term, n = _tail_fault(d, slope)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "_naive_term", term)
        cert = verify_density(n + extra)
        assert cert == oracles.density_walk(n + extra)
    fault = f"naive case at ({n},{d}): strict=False, expected exceptional=False"
    assert fault in cert.violations


def test_density_secondary_comparison_cannot_fail():
    # why verify_density does not sweep it: over the block N = k*d + r,
    # (m-d+2)(N^2-1) - N(N-d)(m+1) is a quadratic in r with coefficients
    # > 0 for d, k >= 2, and it reads no growth term
    for d in range(2, 61):
        for k in range(2, 61):
            for r in range(d):
                n = k * d + r
                m = n - k
                diff = (m - d + 2) * (n * n - 1) - n * (n - d) * (m + 1)
                want = r * r + (d * k + d - 1) * r + (d * d * k - d * k + d + k - 2)
                assert diff == want > 0, (n, d)


def test_density_block_test_skips_no_failing_case():
    # every block of N <= 200 past its exceptional pairs: the Taylor
    # coefficients give each case's difference lhs - rhs, and where they
    # pass the lemma (constant term > 0, the others >= 0) every case holds
    n_max = 200
    slope = sarnakxue._naive_term(1, 1)[0]
    blocks = passed = 0
    for d in range(2, n_max + 1):
        for n in range(d + 1, min(2 * d, n_max + 1)):
            x = n - d - 1
            short = (n - d) * (n * n - 1) - n * (n - d) * (n - 1)
            assert short == x * x + (d + 1) * x + d > 0
        for k in range(2, n_max // d + 1):
            naive = sarnakxue._naive_term(k, d)[0] - 2
            first = k * d
            r0 = max(0, 2 * d + 2 + (d == 2) - first)
            cases = range(first + r0, min(first + d, n_max + 1))
            if not cases:
                continue
            poly = sarnakxue._block_taylor(k, d, r0, naive, slope)
            lemma = poly[0] > 0 and min(poly[1:]) >= 0
            for n in cases:
                y = n - first - r0
                m = n - k
                rem = slope * (n - first)
                diff = 2 * (m - d + 1) * (n * n - 1) - (n * n + naive + rem) * m
                value = sum(c * y**i for i, c in enumerate(poly))
                assert value == diff, (n, d)
                assert not lemma or diff > 0, (n, d)
            blocks += 1
            passed += lemma
    # with the growth terms the sweep walks no case past the exceptional pairs
    assert passed == blocks == 697


def _taylor_walks(term, n_max: int, slope: int) -> dict:
    """The regular blocks (k, d), N <= n_max, whose `_block_taylor`
    coefficients at r0 = 0 fail the lemma, listed as `_regular_walks`
    lists them."""
    want = {}
    for d in range(2, n_max + 1):
        for k in range(3 + (d == 2), n_max // d + 1):
            first = k * d
            assert first > 2 * d + 1 + (d == 2)  # past the exceptional pairs
            naive = term(k, d)[0] - 2
            poly = sarnakxue._block_taylor(k, d, 0, naive, slope)
            if not (poly[0] > 0 and min(poly[1:]) >= 0):
                want.setdefault(d, []).append(
                    (k, naive, first, min(first + d, n_max + 1))
                )
    return want


def test_regular_blocks_decided_in_place_with_growth_terms():
    # every regular block passes the lemma; with remainder terms that are
    # not affine, every one is walked
    slope = sarnakxue._naive_term(1, 1)[0]
    assert sarnakxue._regular_walks(300, slope, True) == {}
    assert _taylor_walks(sarnakxue._naive_term, 300, slope) == {}
    walked = sarnakxue._regular_walks(300, slope, False)
    every = _taylor_walks(lambda t, d: (10**9, 0), 300, slope)
    assert [(d, k) for d, ws in walked.items() for k, *_ in ws] == [
        (d, k) for d, ws in every.items() for k, *_ in ws
    ]
    assert sum(map(len, walked.values())) == 1018


# the growth terms give c0 = 2 at (4, 2) and c0 = 4 at (3, 3), one more
# gives -2 at each; (3, 3) at slope 15 and 16: c1 = 0 and -6
@example(_perturbed({(4, 2): 1}, 1, {}))
@example(_perturbed({(3, 3): 1}, 1, {}))
@example(_perturbed({}, 15, {}))
@example(_perturbed({}, 16, {}))
@given(naive_terms(300))
def test_regular_blocks_decided_in_place_as_by_taylor(term):
    slope = term(1, 1)[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "_naive_term", term)
        walks = sarnakxue._regular_walks(300, slope, True)
    assert walks == _taylor_walks(term, 300, slope)


@pytest.mark.parametrize(
    "sweep, n_max, cases",
    [
        (verify_qd_bound, 0, 0),
        (verify_qd_bound, 1, 0),
        (verify_density, 0, 0),
        (verify_density, 1, 0),
        (verify_maxsl2, 0, 0),
        (verify_maxsl2, 1, 1),  # the partition (1)
    ],
)
def test_sweeps_below_two(sweep, n_max, cases):
    cert = sweep(n_max)
    assert (cert.checked_count, cert.violations) == (cases, ())
    assert cert.ok == (cases > 0)


def test_verify_maxsl2_small():
    cert = verify_maxsl2(8)
    assert cert.ok
    assert cert.checked_count > 0


def test_maxsl2_enumerates_no_partition(monkeypatch):
    def refuse(n):
        raise AssertionError("partitions_of called")

    monkeypatch.setattr(sarnakxue, "partitions_of", refuse)
    assert verify_maxsl2(14).ok


def test_maxsl2_scans_every_size(monkeypatch):
    # the sweep certifies that padding beats every merge, so it may not skip
    # the sizes a core lacks, as the best merge of an sx-table row does
    rooms = []

    def recording(start, sizes, gains):
        room = len(start) - 1
        assert list(sizes) == list(range(2, room + 1))
        rooms.append(room)
        return growth.extra_tops(start, sizes, gains)

    monkeypatch.setattr(sarnakxue, "extra_tops", recording)
    assert verify_maxsl2(14).ok
    assert rooms == [14]


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


@pytest.mark.parametrize("n_max", [*range(41), 48])
def test_maxsl2_matches_walk(n_max):
    # the one dominating knapsack decides what one knapsack per core did
    assert verify_maxsl2(n_max) == oracles.maxsl2_walk(n_max)


def _shifted(n_max, changes):
    """(n_max, split_tables(n_max) with each entry (d, e) in changes raised
    by its value)."""
    tables = split_tables(n_max)
    for (d, e), x in changes.items():
        tables[d][e] += x
    return n_max, tables


@st.composite
def _perturbed_tables(draw, max_n):
    n_max = draw(st.integers(1, max_n))
    k = n_max + 1
    spots = [(d, e) for d in range(1, k) for e in range(n_max // d + 1)]
    # a shift of the doubled main part and of the epsilons, either sign
    shift = st.builds(lambda a, e: a * k + e, st.integers(-3, 3), st.integers(-2, 2))
    return _shifted(
        n_max, draw(st.dictionaries(st.sampled_from(spots), shift, max_size=3))
    )


# a lowered merge entry, which the bound still decides; a raised one, and an
# entry 0 moved, which it does not
@example(_shifted(10, {(2, 3): -30, (3, 2): -1}))
@example(_shifted(9, {(3, 2): 20}))
@example(_shifted(6, {(4, 0): -1}))
@given(_perturbed_tables(12))
def test_maxsl2_matches_walk_under_perturbed_tables(case):
    n_max, tables = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "split_tables", lambda n: tables)
        assert verify_maxsl2(n_max) == oracles.maxsl2_walk(n_max)


@example(_shifted(10, {(2, 3): -30, (3, 2): -1}))
@example(_shifted(6, {(4, 0): -1}))
@given(_perturbed_tables(16))
def test_maxsl2_bound_has_no_false_pass(case):
    # the lemma holds for any table contents: wherever the bound passes,
    # walking every core flags no case, whatever its messages would be
    n_max, tables = case
    if sarnakxue._maxsl2_bound_holds(tables, n_max):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sarnakxue, "split_tables", lambda n: tables)
            patch.setattr(
                sarnakxue, "_maxsl2_violations", lambda core, n, t: [(core, n)]
            )
            assert oracles.maxsl2_walk(n_max).violations == ()


def _flagged(n_max, tables):
    """(core, N, messages) of each case that `_maxsl2_walk` flags."""
    flagged = []
    rescore = sarnakxue._maxsl2_violations

    def record(core, n, t):
        messages = rescore(core, n, t)
        flagged.append((core, n, messages))
        return messages

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "_maxsl2_violations", record)
        sarnakxue._maxsl2_walk(tables, n_max)
    return flagged


def test_maxsl2_walk_names_a_lowered_entry_0():
    # the walk's knapsack adds entry 0 of every row it runs, so lowering one
    # flags the cases of the cores () and (2,); the rescoring reads the same
    # entries, so each of them gets a message
    n_max, tables = _shifted(6, {(4, 0): -1})
    assert not sarnakxue._maxsl2_bound_holds(tables, n_max)
    flagged = _flagged(n_max, tables)
    assert [(core, n) for core, n, _ in flagged] == [
        ((), n) for n in range(1, 7)
    ] + [((2,), n) for n in range(2, 7)]
    assert all(messages for _, _, messages in flagged)
    assert sarnakxue._maxsl2_walk(tables, n_max)[0] == (
        "core (), N=1: best 1/2+6*eps not at padded partition"
    )


@example(_shifted(6, {(4, 0): -1}))
@example(_shifted(9, {(3, 2): 20}))
@given(_perturbed_tables(10))
def test_maxsl2_walk_names_every_flagged_case(case):
    assert all(messages for _, _, messages in _flagged(*case))


@example(_shifted(10, {(2, 3): -30, (3, 2): -1}))
@example(_shifted(9, {(3, 2): 20}))
@example(_shifted(6, {(2, 2): -1}))  # the extra (2,) no longer ties on (2,)
@given(_perturbed_tables(16))
def test_maxsl2_bound_decides_as_two_knapsacks(case):
    # one knapsack and one comparison per size give the verdict of the two
    # knapsacks scanned at every (s, slack)
    n_max, tables = case
    assert sarnakxue._maxsl2_bound_holds(
        tables, n_max
    ) == oracles.maxsl2_two_knapsacks(tables, n_max)


def test_maxsl2_bound_decides_real_tables_as_two_knapsacks():
    for n_max in range(301):
        tables = split_tables(n_max)
        assert sarnakxue._maxsl2_bound_holds(tables, n_max), n_max
        assert oracles.maxsl2_two_knapsacks(tables, n_max), n_max


@given(st.integers(1, 50), st.integers(2, 60), st.integers(0, 60), st.integers())
def test_maxsl2_monotone_step(k, s, more, u):
    # with ones[x] = k*x^2, ones[slack] - ones[slack - s] grows with slack
    # from ones[s] at slack = s, so u < ones[s] keeps u + ones[slack - s]
    # below ones[slack] at every slack >= s, and slack = s is that test
    ones = [k * x * x for x in range(s + more + 2)]
    slack = s + more
    step = ones[slack] - ones[slack - s]
    assert step == k * s * (2 * slack - s)
    assert ones[slack + 1] - ones[slack + 1 - s] > step >= ones[s]
    assert (u < ones[s]) <= (u + ones[slack - s] < ones[slack])
    assert (u < ones[s]) == (u + ones[0] < ones[s])


def _lifted_ones(t, d):
    """The refined term with (t - 1)(t - 2) more on each block (t, 1): the
    best split of s ones is still one block and the extra (2,) still ties,
    but the row of ones, the term of (s, 1), is not k*s^2 from s = 3 on."""
    main, eps = growth._refined_term(t, d)
    return (main + (t - 1) * (t - 2), eps) if d == 1 and t else (main, eps)


def _lifted_two(t, d):
    """The refined term with the block (1, 2) at 4, the term of (2, 1): the
    extra (2,) ties with padding on a core without a 2."""
    return (4, 0) if (t, d) == (1, 2) else growth._refined_term(t, d)


@pytest.mark.parametrize("n_max", [3, 5, 9, 12])
@pytest.mark.parametrize("term", [_lifted_ones, _lifted_two])
def test_maxsl2_patched_terms_go_to_the_walk(term, n_max, monkeypatch):
    # tables built from a term whose row of ones is not k*s^2, or whose
    # extra (2,) ties on a core without a 2, are walked core by core, though
    # every other check of the bound passes
    monkeypatch.setattr(sarnakxue, "_refined_term", term)
    tables = split_tables(n_max, term=term)
    monkeypatch.setattr(sarnakxue, "split_tables", lambda n: tables)
    k = n_max + 1
    assert tables[1] == [growth.pack(term, s, 1, k) for s in range(k)]
    assert tables[2][1] == growth.pack(term, 1, 2, k)
    assert not sarnakxue._maxsl2_bound_holds(tables, n_max)
    walked = []
    walk = sarnakxue._maxsl2_walk
    monkeypatch.setattr(
        sarnakxue, "_maxsl2_walk", lambda t, n: walked.append(n) or walk(t, n)
    )
    cert = verify_maxsl2(n_max)
    assert cert == oracles.maxsl2_walk(n_max)
    assert walked == [n_max]
    assert cert.ok == (term is _lifted_ones)


def test_maxsl2_examples_take_both_branches():
    n_max, tables = _shifted(10, {(2, 3): -30, (3, 2): -1})
    assert sarnakxue._maxsl2_bound_holds(tables, n_max)
    n_max, tables = _shifted(9, {(3, 2): 20})
    assert not sarnakxue._maxsl2_bound_holds(tables, n_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarnakxue, "split_tables", lambda n: tables)
        assert verify_maxsl2(n_max).violations


def test_maxsl2_count_matches_core_enumeration():
    for n_max in range(61):
        cores = sarnakxue._distinct_part_sets(n_max)
        want = sum(n_max + 1 - max(sum(core), 1) for core in cores)
        assert sarnakxue.maxsl2_count(n_max) == want, n_max


def test_qd_and_density_counts_match_case_enumeration():
    # the counts that the certificates and the CLI read, 0 below each
    # sweep's first case
    for n_max in range(-3, 61):
        pairs = [(n, d) for n in range(2, n_max + 1) for d in range(2, n + 1)]
        assert sarnakxue.qd_count(n_max) == len(pairs), n_max
        assert sarnakxue.density_count(n_max) == sum(
            d < n for n, d in pairs
        ), n_max


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
