"""Growth exponents: naive, refined, conjectural, and the dominant bound."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from upqgrowth.cohomology import GlobalRep, LocalRep
from upqgrowth.growth import (
    GrowthValue,
    all_groupings,
    conjectural_bound,
    extra_tops,
    floor_below,
    grouped_blocks,
    grouping_score,
    merge_bounds,
    partition_bound,
    partition_bound0,
    refined_bound,
    rep_bound,
    split_tables,
    _bound,
    _naive_term,
)
from upqgrowth.infchar import rho
from upqgrowth.partitions import partitions_of


# --- the value type ----------------------------------------------------------


def test_growth_value_order():
    assert GrowthValue(3) < GrowthValue(4)
    assert GrowthValue(3) < GrowthValue(3, 1)
    assert GrowthValue(3, 5) < GrowthValue(4, -5)
    assert GrowthValue(Fraction(7, 2)) == GrowthValue(Fraction(14, 4))


@given(
    st.integers(-20, 20),
    st.integers(-3, 3),
    st.integers(-20, 20),
    st.integers(-3, 3),
)
def test_growth_value_order_is_lexicographic(a, i, b, j):
    assert (GrowthValue(a, i) < GrowthValue(b, j)) == ((a, i) < (b, j))


def test_growth_value_arithmetic():
    v = GrowthValue(Fraction(5, 2), 1)
    assert v + GrowthValue(Fraction(1, 2), 2) == GrowthValue(3, 3)
    assert v - GrowthValue(1, 1) == GrowthValue(Fraction(3, 2))
    assert v + 3 == GrowthValue(Fraction(11, 2), 1)
    assert v - Fraction(1, 2) == GrowthValue(2, 1)


def test_growth_value_str():
    assert str(GrowthValue(21)) == "21"
    assert str(GrowthValue(22, 2)) == "22+2*eps"
    assert str(GrowthValue(5, -1)) == "5-eps"
    assert str(GrowthValue(Fraction(7, 2), 1)) == "7/2+eps"


def test_growth_value_json():
    v = GrowthValue(Fraction(9, 4), -2)
    assert v.to_json() == {"main": "9/4", "eps": -2}


# --- the three bounds on fixed block lists ------------------------------------


def test_frozen_block_values():
    assert _bound(_naive_term, ((2, 2),)) == GrowthValue(12)
    assert refined_bound(((2, 2),)) == GrowthValue(9)
    assert conjectural_bound(((2, 2),)) == GrowthValue(7)
    assert refined_bound(((3, 2),)) == GrowthValue(22, 2)
    assert refined_bound(((3, 3),)) == GrowthValue(44, 3)
    assert refined_bound(((1, 5),)) == GrowthValue(1)


def test_bounds_match_oracle_on_all_groupings():
    for n in range(1, 11):
        for parts in partitions_of(n):
            for g in all_groupings(parts):
                assert _bound(_naive_term, g) == GrowthValue(oracles.naive_value(g))
                rm, re = oracles.refined_value(g)
                assert refined_bound(g) == GrowthValue(rm, re)
                cm, ce = oracles.conjectural_value(g)
                assert conjectural_bound(g) == GrowthValue(cm, ce)


def test_bounds_accept_shapes():
    from upqgrowth.shapes import delta_max

    rep = LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=rho(7))
    s = delta_max(GlobalRep((rep,))).shapes[0]
    assert refined_bound(s) == GrowthValue(29)
    assert refined_bound(s) == refined_bound(((1, 3), (4, 1)))


# --- partition bounds ---------------------------------------------------------


def test_grouped_blocks():
    assert grouped_blocks((3, 2, 2, 1, 1, 1)) == ((1, 3), (2, 2), (3, 1))
    assert grouped_blocks((4,)) == ((1, 4),)
    # input order is immaterial; zero parts are not
    assert grouped_blocks((2, 3)) == ((1, 3), (1, 2))
    with pytest.raises(ValueError):
        grouped_blocks((2, 0))


def test_frozen_partition_bounds():
    assert partition_bound((2, 2)) == GrowthValue(9)
    assert partition_bound((2, 1, 1)) == GrowthValue(9)
    assert partition_bound((7,)) == GrowthValue(1)
    assert partition_bound((1,) * 7) == GrowthValue(49)
    assert partition_bound((3, 1, 1, 1, 1)) == GrowthValue(29)
    assert partition_bound((2, 1, 1, 1, 1, 1)) == GrowthValue(36)
    assert partition_bound0((2, 2)) == GrowthValue(7)
    assert partition_bound0((2, 1, 1)) == GrowthValue(9)


def test_tie_pair():
    # both rank-7 types score 22: the hook gains exactly what the fat tail loses
    assert partition_bound((3, 2, 2)) == GrowthValue(22)
    assert partition_bound((3, 2, 1, 1)) == GrowthValue(22)


def test_closed_forms():
    for n in range(1, 13):
        assert partition_bound((n,)) == GrowthValue(1)
        assert partition_bound((1,) * n) == GrowthValue(n * n)
        for d in range(2, n + 1):
            parts = (d,) + (1,) * (n - d)
            assert partition_bound(parts) == GrowthValue(n * (n - d) + 1)


def test_full_grouping_is_optimal():
    for n in range(1, 13):
        for parts in partitions_of(n):
            best = GrowthValue(*oracles.best_grouping(parts))
            assert best == partition_bound(parts)


# --- the exact kernel over groupings and merges -------------------------------


def _partitions_up_to(n_max):
    return st.integers(1, n_max).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


@given(_partitions_up_to(12))
def test_grouping_kernel_matches_oracle(parts):
    n = sum(parts)
    score = grouping_score(parts, split_tables(n))
    assert GrowthValue.unpack(score, n + 1) == GrowthValue(
        *oracles.best_grouping(parts)
    )


def _doubled(packed, k):
    """The (2*main, eps) of a value packed with k."""
    value = GrowthValue.unpack(packed, k)
    return 2 * value.main, value.eps


def test_split_tables_frozen():
    # doubled block terms of parts 2, N^2 aside: one 2 is 2 - 4, a T = 2
    # block 8 - 12 + 6, a T = 3 block 18 - 20 + 10 plus two epsilons
    tables = split_tables(6)
    assert [_doubled(x, 7) for x in tables[2]] == [
        (0, 0), (-2, 0), (2, 0), (8, 2)
    ]
    assert [_doubled(x, 7) for x in tables[6]] == [(0, 0), (-34, 0)]
    score = grouping_score((2, 2, 2), tables)
    assert _doubled(score, 7) == (44, 2)
    assert GrowthValue.unpack(score, 7) == partition_bound((2, 2, 2))


def test_split_tables_maximize_over_splits():
    # the refined terms never favour a split (criterion 4), so a term that
    # pays per block shows that the tables search the splits at all
    per_block = split_tables(4, term=lambda t, d: (1, 0))
    assert [_doubled(x, 5) for x in per_block[1]] == [
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)
    ]
    assert [_doubled(x, 5) for x in per_block[2]] == [(0, 0), (1, 0), (2, 0)]


def test_merge_bounds_match_coarsenings():
    from upqgrowth.sarnakxue import one_merge_coarsenings

    for n in range(1, 13):
        for parts in partitions_of(n):
            coarse = one_merge_coarsenings(parts)
            assert merge_bounds(parts) == (
                max(partition_bound(c) for c in coarse),
                max(partition_bound0(c) for c in coarse),
            )


@given(
    st.one_of(
        st.sampled_from([(3, 3, 3), (3, 3, 3, 2, 2, 2), (2, 2, 2, 2)]),
        st.lists(st.integers(2, 6), max_size=4).map(tuple),
    ),
    st.integers(0, 24),
)
@example((3, 3, 3), 24)
@example((), 24)
def test_merge_bounds_match_oracle(core, ones):
    # T = 3 blocks of d > 1 carry d epsilons each, so the packed knapsack
    # scores must keep eps apart from the main term
    parts = tuple(sorted(core, reverse=True)) + (1,) * ones
    assume(parts)
    refined, conjectural = oracles.merge_bounds(parts)
    assert merge_bounds(parts) == (
        GrowthValue(*refined),
        GrowthValue(*conjectural),
    )


@pytest.mark.parametrize(
    "core, refined, conjectural",
    [
        ((), GrowthValue(1600), GrowthValue(1600)),
        ((3, 3, 3), GrowthValue(2004, 3), GrowthValue(1993)),
        ((2, 2, 2), GrowthValue(1862, 2), GrowthValue(1858)),
        ((7, 5, 2), GrowthValue(2222), GrowthValue(2222)),
        ((4, 4, 3, 3, 3), GrowthValue(2427, 3), GrowthValue(2404)),
    ],
)
def test_merge_bounds_of_forty_ones_frozen(core, refined, conjectural):
    assert merge_bounds(core + (1,) * 40) == (refined, conjectural)


_gains = st.integers(-(10**6), 10**6)


def _row(data, size):
    return data.draw(st.lists(_gains, min_size=size, max_size=size))


@given(st.data())
def test_extra_tops_matches_listed_extras(data):
    # the best merge's use: every start entry is a score
    room = data.draw(st.integers(0, 10))
    start = _row(data, room + 1)
    rows = {d: _row(data, room // d + 1) for d in range(2, room + 1)}
    gains = rows.__getitem__
    assert extra_tops(start, gains) == oracles.extra_tops(start, gains)


def _cores(n_max):
    """Sets of distinct parts >= 2 with total <= n_max, as the maxsl2 sweep
    takes them."""
    return [
        p
        for total in range(n_max + 1)
        for p in partitions_of(total)
        if 1 not in p and len(set(p)) == len(p)
    ]


@st.composite
def _tables_and_cores(draw):
    n_max = draw(st.integers(1, 10))
    tables = {
        d: [0] + draw(st.lists(_gains, min_size=n_max // d, max_size=n_max // d))
        for d in range(1, n_max + 1)
    }
    return tables, draw(st.sampled_from(_cores(n_max)))


@given(_tables_and_cores())
# a far negative fixed part: a floor below the gains alone is too high
@example(
    (
        {1: [0] * 8, 2: [0] * 4, 3: [0] * 3, 4: [0, -(10**6)]}
        | {d: [0, 0] for d in range(5, 8)},
        (4,),
    )
)
# gains of both signs that outweigh a floor below one row or one sum
@example(({1: [0, -1, 1, 0, 0], 2: [0, 9, -9], 3: [0, 0], 4: [0, 0]}, (2,)))
@example(
    (
        {1: [0, 1, 1, 0, 0, 9], 2: [0, -9, 9], 3: [0, -9], 4: [0, 0], 5: [0, 1]},
        (2,),
    )
)
def test_extra_tops_from_a_floor_matches_listed_extras(case):
    # the maxsl2 sweep's use: the core parts above the room are fixed, the
    # rest are in the gains, and the sums below 2 start from the floor
    tables, core = case
    room = len(tables) - sum(core)
    fixed = sum(tables[d][1] for d in core if d > room)

    def gains(d):
        return tables[d][1:] if d in core else tables[d]

    got = extra_tops([fixed] + [floor_below(tables)] * room, gains)
    want = oracles.extra_tops([fixed] + [None] * room, gains)
    assert [g for g, w in zip(got, want) if w is not None] == [
        w for w in want if w is not None
    ]


def test_all_groupings_counts():
    assert len(list(all_groupings((2, 2, 1)))) == 2
    assert len(list(all_groupings((1, 1, 1)))) == 3
    assert list(all_groupings((3,))) == [((1, 3),)]


# --- the GSK family ----------------------------------------------------------


def _gsk_block_lists(max_rank):
    from itertools import combinations

    for t1 in range(1, 7):
        for k_extra in range(0, 4):
            for ds in combinations(range(2, 10), k_extra):
                pairs = ((t1, 1),) + tuple((1, d) for d in ds)
                if sum(t * d for t, d in pairs) <= max_rank:
                    yield pairs


def test_gsk_closed_form():
    from upqgrowth.shapes import is_gsk

    for pairs in _gsk_block_lists(20):
        assert is_gsk(pairs)
        k = len(pairs)
        t1 = pairs[0][0]
        n = sum(t * d for t, d in pairs)
        expect = GrowthValue(
            (k - 1)
            + Fraction(
                n * n + t1 * t1 - sum(d * d for _, d in pairs[1:]), 2
            )
        )
        assert refined_bound(pairs) == expect
        assert conjectural_bound(pairs) == expect


# --- dominant bound over a representation ------------------------------------


def test_rep_bound_single_place():
    rho7 = rho(7)
    r1 = LocalRep(p=6, q=1, blocks=((1, 1),) + ((1, 0),) * 5, lam=rho7)
    assert rep_bound(GlobalRep((r1,))) == (
        GrowthValue(36),
        (2, 1, 1, 1, 1, 1),
    )
    r2 = LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=rho7)
    assert rep_bound(GlobalRep((r2,))) == (GrowthValue(29), (3, 1, 1, 1, 1))


def test_rep_bound_tie_prefers_lex_smallest():
    rho7 = rho(7)
    r1 = LocalRep(p=6, q=1, blocks=((1, 1),) + ((1, 0),) * 5, lam=rho7)
    r2 = LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=rho7)
    g = GlobalRep((r1, r2))
    val, q = rep_bound(g)
    assert val == GrowthValue(22)
    assert q == (3, 2, 1, 1)
    from upqgrowth.shapes import q_can

    assert q == q_can(g)


def test_rep_bound_dominates_every_candidate():
    from upqgrowth.shapes import sl2_candidates

    rho7 = rho(7)
    r2 = LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=rho7)
    g = GlobalRep((r2,))
    best, _ = rep_bound(g)
    for q in sl2_candidates(g):
        assert partition_bound(q) <= best
