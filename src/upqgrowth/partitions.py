"""Ordered partitions, bipartitions, and the block-sum fiber combinatorics.

Conventions used across the package:

* an ordered partition is a tuple of positive ints (order significant);
* an unordered partition is stored canonically as a non-increasing tuple;
* a bipartition is a tuple of (p_i, q_i) pairs of non-negative ints with
  max(p_i, q_i) > 0 for every block.

Set-valued results come back in a documented total order so CLI output and
tests are reproducible.
"""

from __future__ import annotations

from functools import lru_cache

Pair = tuple[int, int]
Bipartition = tuple[Pair, ...]


def validate_bipartition(blocks: Bipartition) -> None:
    if not blocks:
        raise ValueError("bipartition needs at least one block")
    for x, y in blocks:
        if x < 0 or y < 0 or (x == 0 and y == 0):
            raise ValueError(f"invalid block ({x},{y})")


def validate_partition(parts: tuple[int, ...]) -> None:
    if not parts or any(x < 1 for x in parts):
        raise ValueError(f"invalid partition {parts}")


def block_sums(blocks: Bipartition) -> tuple[int, ...]:
    """Ordered partition of block totals p_i + q_i."""
    validate_bipartition(blocks)
    return tuple(x + y for x, y in blocks)


def is_reduced(blocks: Bipartition) -> bool:
    """True when every one-sided block is exactly (1,0) or (0,1)."""
    validate_bipartition(blocks)
    return all(x * y > 0 or x + y == 1 for x, y in blocks)


def bipartitions_with_block_sums(
    parts: tuple[int, ...], p: int, q: int
) -> list[Bipartition]:
    """All bipartitions with the given block sums and totals (p, q).

    Infeasible inputs (including a rank mismatch) give an empty list. The
    result is sorted ascending-lexicographically on the flattened pair
    sequence, which is the same as descending order on the q_i sequence.
    """
    validate_partition(parts)
    if sum(parts) != p + q or p < 0 or q < 0:
        return []
    out: list[Bipartition] = []

    def rec(i: int, remaining_q: int, acc: list[Pair]) -> None:
        if i == len(parts):
            if remaining_q == 0:
                out.append(tuple(acc))
            return
        n = parts[i]
        tail_cap = sum(parts[i + 1 :])
        for qi in range(min(n, remaining_q), -1, -1):
            if remaining_q - qi > tail_cap:
                continue
            acc.append((n - qi, qi))
            rec(i + 1, remaining_q - qi, acc)
            acc.pop()

    rec(0, q, [])
    out.sort(key=lambda b: tuple(v for pair in b for v in pair))
    return out


def balanced_bipartition(parts: tuple[int, ...]) -> Bipartition:
    """The fiber element with |p_i - q_i| <= 1, oriented p_i >= q_i."""
    validate_partition(parts)
    return tuple(((n + 1) // 2, n // 2) for n in parts)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All unordered partitions of n as non-increasing tuples, n >= 0."""
    if n < 0:
        raise ValueError("negative rank")
    return list(_partitions_cached(n))


@lru_cache(maxsize=None)
def _partitions_cached(n: int) -> tuple[tuple[int, ...], ...]:
    def rec(rest: int, mx: int):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, mx), 0, -1):
            for tail in rec(rest - k, k):
                yield (k,) + tail

    return tuple(rec(n, n))


@lru_cache(maxsize=None)
def reduced_bipartitions(p: int, q: int) -> tuple[Bipartition, ...]:
    """Every reduced bipartition with totals (p, q), in flattened-lex order."""
    if p < 0 or q < 0:
        raise ValueError("negative signature")
    if p == q == 0:
        return ()
    out: list[Bipartition] = []

    def rec(rp: int, rq: int, acc: list[Pair]) -> None:
        if rp == 0 and rq == 0:
            out.append(tuple(acc))
            return
        choices: list[Pair] = []
        if rp:
            choices.append((1, 0))
        if rq:
            choices.append((0, 1))
        choices.extend(
            (a, bq) for a in range(1, rp + 1) for bq in range(1, rq + 1)
        )
        for a, bq in choices:
            acc.append((a, bq))
            rec(rp - a, rq - bq, acc)
            acc.pop()

    rec(p, q, [])
    out.sort(key=lambda b: tuple(v for pair in b for v in pair))
    return tuple(out)

