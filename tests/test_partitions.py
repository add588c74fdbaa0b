"""Bipartition and fiber combinatorics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from upqgrowth import partitions as pt


def test_block_sums():
    assert pt.block_sums(((2, 1), (1, 0), (0, 3))) == (3, 1, 3)


def test_block_sums_rejects_zero_block():
    with pytest.raises(ValueError):
        pt.block_sums(((0, 0),))


def test_is_reduced():
    assert pt.is_reduced(((1, 0), (2, 2)))
    assert not pt.is_reduced(((2, 0),))
    assert not pt.is_reduced(((1, 1), (0, 2)))


def test_fibers_frozen_values():
    assert pt.bipartitions_with_block_sums((2,), 1, 1) == [((1, 1),)]
    assert pt.bipartitions_with_block_sums((1, 1), 1, 1) == [
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
    ]
    assert pt.bipartitions_with_block_sums((3,), 3, 0) == [((3, 0),)]
    # signature rank disagrees with the partition total
    assert pt.bipartitions_with_block_sums((3,), 2, 0) == []


def test_fibers_infeasible_is_empty():
    # rank mismatch and overfull q are not errors
    assert pt.bipartitions_with_block_sums((3,), 2, 2) == []
    assert pt.bipartitions_with_block_sums((1, 1), 0, 3) == []


def test_fibers_match_scan_oracle():
    for parts in [(2,), (1, 1), (3, 1), (2, 2, 1), (4, 2)]:
        n = sum(parts)
        for q in range(0, n + 1):
            got = pt.bipartitions_with_block_sums(parts, n - q, q)
            want = oracles.fibers_by_scan(parts, n - q, q)
            assert got == want, (parts, q)


def test_fiber_count_is_polynomial_coefficient():
    # product of (1 + x + ... + x^n_i), coefficient of x^q; order matters
    # for the enumeration but not the count, so sweep compositions
    for total in range(1, 7):
        for parts in oracles._compositions(total):
            for q in range(0, total + 1):
                got = len(pt.bipartitions_with_block_sums(parts, total - q, q))
                assert got == oracles.fiber_count_by_poly(parts, q)


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=20),
)
def test_fibers_have_correct_sums(parts, q):
    parts = tuple(parts)
    n = sum(parts)
    if q > n:
        q = q % (n + 1)
    for b in pt.bipartitions_with_block_sums(parts, n - q, q):
        assert pt.block_sums(b) == parts
        assert sum(y for _, y in b) == q


def test_balanced_bipartition():
    assert pt.balanced_bipartition((3, 2)) == ((2, 1), (1, 1))
    assert pt.balanced_bipartition((1,)) == ((1, 0),)
    for total in range(1, 8):
        for parts in oracles.partitions_of(total):
            b = pt.balanced_bipartition(parts)
            assert pt.block_sums(b) == parts
            assert all(0 <= x - y <= 1 for x, y in b)


def test_partitions_of():
    assert pt.partitions_of(0) == [()]
    assert pt.partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(pt.partitions_of(10)) == 42


def test_reduced_bipartitions_counts():
    for p in range(0, 5):
        for q in range(0, 5):
            if p == q == 0:
                continue
            got = pt.reduced_bipartitions(p, q)
            want = oracles.reduced_bipartitions(p, q)
            assert sorted(got) == sorted(want)

