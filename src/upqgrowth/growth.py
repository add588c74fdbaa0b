"""Growth exponents attached to SL(2)-types.

Values are pairs (main, eps) ordered lexicographically: eps counts copies of
an arbitrarily small positive quantity, so (a, 1) sits just above (a, 0) but
below anything with a larger main term.

The refined bound subtracts a correction from the naive one for blocks of
multiplicity 1, 2 or 3; multiplicity-3 corrections are where eps enters.

Every bound is N^2/2 plus one term per block, so a maximum over the ways to
group equal parts into blocks (`split_tables`, `grouping_score`) or to merge
the size-1 parts (`merge_bounds`) is a small exact dynamic programme instead
of an enumeration.
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
    def from_score(cls, score: "Score") -> "GrowthValue":
        """The value whose (2*main, eps) is score."""
        return cls(Fraction(score[0], 2), score[1])

    def __str__(self):
        if self.eps == 0:
            return format_rational(self.main)
        sign = "+" if self.eps > 0 else "-"
        k = abs(self.eps)
        eps = "eps" if k == 1 else f"{k}*eps"
        return f"{format_rational(self.main)}{sign}{eps}"


# A Score is a GrowthValue held as the ints (2*main, eps): every bound below is
# N^2/2 plus one term per (T, d) block, each with an integral doubled main
# part, and tuples of ints order and add like GrowthValues.
Score = tuple[int, int]


def _naive_term(t: int, d: int) -> Score:
    return t * t * d, 0


def _refined_term(t: int, d: int) -> Score:
    """The naive T^2 d less the low-multiplicity correction, doubled.

    T = 1 loses (d^2 + d)/2 - 1, T = 2 loses 3d - 3, and T = 3 with d > 1
    loses 5d - 5 while picking up d epsilons.
    """
    naive = t * t * d
    if t == 1:
        return naive - d * d - d + 2, 0
    if t == 2:
        return naive - 6 * d + 6, 0
    if t == 3 and d > 1:
        return naive - 10 * d + 10, d
    return naive, 0


def _conjectural_term(t: int, d: int) -> Score:
    """-T^2 d^2 / 2 + T^2 + T(T-1)(d^2-1)/2, doubled."""
    return 2 * t * t - t * t * d * d + t * (t - 1) * (d * d - 1), 0


def _score(term, x) -> Score:
    """N^2/2 plus term(T, d) summed over the blocks of x, as a Score."""
    pairs = td_pairs(x)
    n = sum(t * d for t, d in pairs)
    two_main, eps = n * n, 0
    for t, d in pairs:
        a, e = term(t, d)
        two_main += a
        eps += e
    return two_main, eps


def _bound(term, x) -> GrowthValue:
    return GrowthValue.from_score(_score(term, x))


def refined_score(x) -> Score:
    """The refined bound of the blocks x as a Score."""
    return _score(_refined_term, x)


def refined_bound(x) -> GrowthValue:
    """Naive bound minus the low-multiplicity corrections (`_refined_term`)."""
    return _bound(_refined_term, x)


def conjectural_bound(x) -> GrowthValue:
    """(N^2 - sum T^2 d^2)/2 + sum (T^2 + T(T-1)(d^2-1)/2)."""
    return _bound(_conjectural_term, x)


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


def _plus(a: Score, b: Score) -> Score:
    return a[0] + b[0], a[1] + b[1]


def split_tables(n_max: int, term=_refined_term) -> dict[int, list[Score]]:
    """For each part size d <= n_max, the best split of equal parts d.

    tables[d][m], for m <= n_max // d, is the top sum of block terms (refined
    by default) over every way to split m parts d into blocks (T, d): the
    maximum over t of term(t, d) + tables[d][m - t].
    """
    tables = {}
    for d in range(1, n_max + 1):
        best = [(0, 0)]
        for m in range(1, n_max // d + 1):
            splits = range(1, m + 1)
            best.append(max(_plus(term(t, d), best[m - t]) for t in splits))
        tables[d] = best
    return tables


def grouping_score(q_parts, tables) -> Score:
    """The refined bound of q_parts maximized over every grouping of its
    equal parts into blocks, as a Score; tables come from `split_tables`."""
    n = two_main = eps = 0
    for d, m in Counter(q_parts).items():
        a, e = tables[d][m]
        n += d * m
        two_main += a
        eps += e
    return n * n + two_main, eps


def pack(score: Score, k: int) -> int:
    """The Score (2*main, eps) as the one int 2*main*k + eps.

    Packed scores order and add like Scores as long as every eps involved,
    partial sums included, lies in [0, k): then a larger main term always
    outweighs any eps, and divmod(packed, k) gives the Score back.
    """
    return score[0] * k + score[1]


def add_part_size(best: list[int], d: int, gain: list[int]) -> list[int]:
    """One part size of a bounded knapsack over packed scores.

    new[s] is the top of best[s - d*e] + gain[e] over the e with d*e <= s;
    gain covers every e with d*e < len(best). Each e is one slice-wise
    max-plus update.
    """
    g = gain[0]
    new = [x + g for x in best]
    for e in range(1, (len(best) - 1) // d + 1):
        off, g = d * e, gain[e]
        new[off:] = [
            a if a > (b := x + g) else b for a, x in zip(new[off:], best)
        ]
    return new


def _best_merge(base: Counter, ones: int, term) -> Score:
    """Top Score of N^2/2 + sum term(T_d, d) over the partitions base +
    extra, extra any partition of ones, with equal parts fully grouped.

    A knapsack over the sizes d <= ones: best[s] is the top sum of the terms
    of sizes done so far when their extra parts use s of the ones. Scores are
    packed with k = N + 1: only T = 3, d > 1 blocks carry eps, d of it each,
    so every partial sum has 0 <= eps <= N.
    """
    n = ones + sum(d * m for d, m in base.items())
    k = n + 1
    fixed = n * n * k
    for d, m in base.items():
        if d > ones:
            fixed += pack(term(m, d), k)
    best = [pack(term(s, 1), k) for s in range(ones + 1)]
    for d in range(2, ones + 1):
        gain = [pack(term(base[d] + e, d), k) for e in range(ones // d + 1)]
        best = add_part_size(best, d, gain)
    return divmod(fixed + best[ones], k)


def merge_bounds(parts) -> tuple[GrowthValue, GrowthValue]:
    """Top refined and conjectural bounds over the partitions reachable by
    merging only the size-1 parts of parts, each with equal parts fully
    grouped; the same maxima as `partition_bound` and `partition_bound0`
    over `sarnakxue.one_merge_coarsenings`."""
    base = Counter(int(v) for v in parts)
    ones = base.pop(1, 0)
    return (
        GrowthValue.from_score(_best_merge(base, ones, _refined_term)),
        GrowthValue.from_score(_best_merge(base, ones, _conjectural_term)),
    )


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
        texts: dict[int, str] = {}  # shapes share one object per centre
        return {
            "bound": self.bound.to_json(),
            "q_argmax": list(self.q_argmax),
            "candidates": [list(q) for q in self.candidates],
            "shapes": [shape_to_json(s, texts) for s in self.shapes],
        }


def rep_bound(rep: GlobalRep) -> tuple[GrowthValue, tuple[int, ...]]:
    """Dominant growth value over the common SL(2)-types, with its argmax."""
    best, best_q, _ = dominant(sl2_candidates(rep))
    return best, best_q
