"""Packet membership and component-group characters."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from upqgrowth.packets import (
    chi4,
    component_character,
)
from upqgrowth.partitions import (
    bipartitions_with_block_sums,
    partitions_of,
    reduced_bipartitions,
)


def test_chi4_period_four():
    assert [chi4(a) for a in range(1, 9)] == [0, 1, 1, 0, 0, 1, 1, 0]
    for a in range(1, 60):
        assert chi4(a) == (a * (a - 1) // 2) % 2


def test_frozen_signs():
    assert component_character(((1, 1),)) == (1,)
    assert component_character(((1, 1), (0, 1))) == (1, -1)
    assert component_character(((0, 1), (1, 1))) == (-1, 1)
    assert component_character(((2, 2), (1, 1))) == (1, 1)


def test_frozen_signs_rank_seven():
    # both placements of the mixed block give the same alternating pattern
    b1 = ((2, 1), (1, 0), (1, 0), (1, 0), (1, 0))
    b2 = ((1, 0), (2, 1), (1, 0), (1, 0), (1, 0))
    assert component_character(b1) == (1, -1, 1, -1, 1)
    assert component_character(b2) == (1, -1, 1, -1, 1)


def _all_reduced(max_rank):
    for n in range(1, max_rank + 1):
        for p in range(n + 1):
            yield from reduced_bipartitions(p, n - p)


def test_matches_full_exponent_oracle():
    # the simplified per-block exponent equals the textbook quadratic one
    count = 0
    for b in _all_reduced(9):
        assert component_character(b) == oracles.mr_full_character(b)
        count += 1
    assert count > 500


def test_all_odd_block_sums_form():
    # with every block sum odd the sign only sees position parity, q_i, chi4
    for b in _all_reduced(9):
        sums = [x + y for x, y in b]
        if any(a % 2 == 0 for a in sums):
            continue
        expected = tuple(
            -1 if ((i % 2) + y + chi4(x + y)) % 2 else 1
            for i, (x, y) in enumerate(b)
        )
        assert component_character(b) == expected


def test_sign_product_constant_on_packet():
    # the product of all signs depends only on (parts, q), not the member
    for n in range(2, 9):
        for parts in partitions_of(n):
            for q in range(n + 1):
                members = bipartitions_with_block_sums(parts, n - q, q)
                prods = {
                    _prod(component_character(b, parts)) for b in members
                }
                assert len(prods) <= 1


def _prod(signs):
    out = 1
    for s in signs:
        out *= s
    return out


def test_parts_mismatch_rejected():
    with pytest.raises(ValueError):
        component_character(((1, 1),), parts=(3,))
    with pytest.raises(ValueError):
        component_character(((1, 1), (1, 0)), parts=(1, 2))


def test_packet_members_are_the_fiber():
    for parts, p, q in [((2,), 1, 1), ((1, 1), 1, 1), ((3, 2, 2), 4, 3)]:
        got = bipartitions_with_block_sums(parts, p, q)
        assert got == oracles.fibers_by_scan(parts, p, q)
    assert bipartitions_with_block_sums((2,), 1, 1) == [((1, 1),)]
    assert bipartitions_with_block_sums((3,), 3, 0) == [((3, 0),)]
    # rank mismatch gives the empty packet
    assert bipartitions_with_block_sums((3,), 2, 0) == []


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
def test_packet_members_reduced_and_summed(p, q):
    for parts in partitions_of(p + q) if p + q else []:
        for b in bipartitions_with_block_sums(parts, p, q):
            assert tuple(x + y for x, y in b) == parts
            assert sum(x for x, _ in b) == p
            assert sum(y for _, y in b) == q


def test_character_length_matches_blocks():
    for b in itertools.islice(_all_reduced(7), 0, None, 3):
        assert len(component_character(b)) == len(b)
