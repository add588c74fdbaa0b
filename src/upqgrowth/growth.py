"""Growth exponents attached to SL(2)-types.

Values are pairs (main, eps) ordered lexicographically: eps counts copies of
an arbitrarily small positive quantity, so (a, 1) sits just above (a, 0) but
below anything with a larger main term.

The refined bound subtracts a correction from the naive one for blocks of
multiplicity 1, 2 or 3; multiplicity-3 corrections are where eps enters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cohomology import GlobalRep
from .infchar import format_rational
from .partitions import partitions_of, validate_partition
from .shapes import Shape, shape_to_json, sl2_candidates, td_pairs


@dataclass(frozen=True, order=True)
class GrowthValue:
    main: Fraction
    eps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "main", Fraction(self.main))

    def __add__(self, other):
        if isinstance(other, GrowthValue):
            return GrowthValue(self.main + other.main, self.eps + other.eps)
        return GrowthValue(self.main + other, self.eps)

    def __sub__(self, other):
        if isinstance(other, GrowthValue):
            return GrowthValue(self.main - other.main, self.eps - other.eps)
        return GrowthValue(self.main - other, self.eps)

    def to_json(self) -> dict:
        return {"main": format_rational(self.main), "eps": self.eps}

    @classmethod
    def from_json(cls, data: dict) -> "GrowthValue":
        return cls(Fraction(data["main"]), int(data["eps"]))

    def __str__(self):
        if self.eps == 0:
            return format_rational(self.main)
        sign = "+" if self.eps > 0 else "-"
        k = abs(self.eps)
        eps = "eps" if k == 1 else f"{k}*eps"
        return f"{format_rational(self.main)}{sign}{eps}"


def naive_bound(x) -> GrowthValue:
    """(N^2 + sum T^2 d) / 2 over the blocks."""
    pairs = td_pairs(x)
    n = sum(t * d for t, d in pairs)
    return GrowthValue(Fraction(n * n + sum(t * t * d for t, d in pairs), 2))


def refined_bound(x) -> GrowthValue:
    """Naive bound minus the low-multiplicity corrections.

    T = 1 loses (d^2 + d)/2 - 1, T = 2 loses 3d - 3, and T = 3 with d > 1
    loses 5d - 5 while picking up d epsilons.
    """
    pairs = td_pairs(x)
    value = naive_bound(pairs)
    for t, d in pairs:
        if t == 1:
            value = value - GrowthValue(Fraction(d * d + d, 2) - 1)
        elif t == 2:
            value = value - GrowthValue(Fraction(3 * d - 3))
        elif t == 3 and d > 1:
            value = value - GrowthValue(Fraction(5 * d - 5), -d)
    return value


def conjectural_bound(x) -> GrowthValue:
    """(N^2 - sum T^2 d^2)/2 + sum (T^2 + T(T-1)(d^2-1)/2)."""
    pairs = td_pairs(x)
    n = sum(t * d for t, d in pairs)
    main = Fraction(n * n - sum(t * t * d * d for t, d in pairs), 2)
    main += sum(
        t * t + Fraction(t * (t - 1) * (d * d - 1), 2) for t, d in pairs
    )
    return GrowthValue(main)


def grouped_blocks(q_parts) -> tuple[tuple[int, int], ...]:
    """Group equal parts of a partition into (multiplicity, size) blocks."""
    q_parts = tuple(int(v) for v in q_parts)
    validate_partition(tuple(sorted(q_parts, reverse=True)))
    mult = Counter(q_parts)
    return tuple((mult[d], d) for d in sorted(mult, reverse=True))


def partition_bound(q_parts) -> GrowthValue:
    """Refined bound of a partition with equal parts fully grouped."""
    return refined_bound(grouped_blocks(q_parts))


def partition_bound0(q_parts) -> GrowthValue:
    """Conjectural bound of a partition with equal parts fully grouped."""
    return conjectural_bound(grouped_blocks(q_parts))


def all_groupings(q_parts):
    """Every way to split each part-multiplicity into blocks."""
    mult = Counter(int(v) for v in q_parts)
    sizes = sorted(mult, reverse=True)
    pools = [partitions_of(mult[d]) for d in sizes]
    for combo in product(*pools):
        blocks: list[tuple[int, int]] = []
        for d, split in zip(sizes, combo):
            blocks.extend((t, d) for t in split)
        yield tuple(blocks)


def brute_force_bound(q_parts, max_rank: int = 12) -> GrowthValue:
    """Max refined bound over every grouping; small ranks only."""
    q_parts = tuple(int(v) for v in q_parts)
    if sum(q_parts) > max_rank:
        raise ValueError(f"rank {sum(q_parts)} exceeds max_rank={max_rank}")
    return max(refined_bound(g) for g in all_groupings(q_parts))


def dominant(cands) -> tuple[GrowthValue, tuple[int, ...], list]:
    """Top score over candidate partitions, its witness, and every maximizer.

    Scores each candidate once with `partition_bound`. The witness is the
    lexicographically smallest maximizer, which is the ones-padded canonical
    partition whenever that is among them; the maximizers keep cands' order.
    """
    if not cands:
        raise ValueError("no common SL(2)-type across the places")
    scores = [partition_bound(q) for q in cands]
    best = max(scores)
    tops = [q for q, score in zip(cands, scores) if score == best]
    return best, min(tops), tops


@dataclass(frozen=True)
class DeltaMax:
    """The dominance decision for a representation, from `shapes.delta_max`."""

    candidates: tuple[tuple[int, ...], ...]  # common SL(2)-types, descending
    bound: GrowthValue  # their top refined score
    q_argmax: tuple[int, ...]  # the lexicographically smallest maximizer
    shapes: tuple[Shape, ...]  # every shape realizing a maximizer

    def to_json(self) -> dict:
        return {
            "bound": self.bound.to_json(),
            "q_argmax": list(self.q_argmax),
            "candidates": [list(q) for q in self.candidates],
            "shapes": [shape_to_json(s) for s in self.shapes],
        }


def rep_bound(rep: GlobalRep) -> tuple[GrowthValue, tuple[int, ...]]:
    """Dominant growth value over the common SL(2)-types, with its argmax."""
    best, best_q, _ = dominant(sl2_candidates(rep))
    return best, best_q
