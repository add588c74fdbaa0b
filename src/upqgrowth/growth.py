"""Growth exponents attached to SL(2)-types.

Values are pairs (main, eps) ordered lexicographically: eps counts copies of
an arbitrarily small positive quantity, so (a, 1) sits just above (a, 0) but
below anything with a larger main term.

The refined bound subtracts a correction from the naive one for blocks of
multiplicity 1, 2 or 3; multiplicity-3 corrections are where eps enters.

Every bound is N^2/2 plus one term per block, so a maximum over the ways to
group equal parts into blocks (`split_tables`, `grouping_score`) or to merge
the size-1 parts (`merge_bounds`) is a small exact dynamic programme instead
of an enumeration. The merge of the 1s runs only over the part sizes the
partition already holds: merging 1s into a new size never pays.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product

from .cohomology import GlobalRep
from .infchar import format_rational
from .partitions import partitions_of, validate_partition
from .shapes import Shape, shape_to_json, sl2_candidates, td_pairs


class GrowthValue(namedtuple("GrowthValue", "main eps")):
    __slots__ = ()
    main: Fraction
    eps: int

    def __new__(cls, main, eps=0):
        return tuple.__new__(cls, (Fraction(main), eps))

    # other is a GrowthValue, an int or a Fraction, so each sum is already
    # one Fraction and needs no second conversion
    def __add__(self, other):
        main, eps = other if isinstance(other, GrowthValue) else (other, 0)
        return tuple.__new__(GrowthValue, (self.main + main, self.eps + eps))

    def __sub__(self, other):
        main, eps = other if isinstance(other, GrowthValue) else (other, 0)
        return tuple.__new__(GrowthValue, (self.main - main, self.eps - eps))

    def to_json(self) -> dict:
        return {"main": format_rational(self.main), "eps": self.eps}

    @classmethod
    def unpack(cls, x: int, k: int) -> "GrowthValue":
        """The value whose `pack`ed form, with 0 <= eps < k, is x."""
        two_main, eps = divmod(x, k)
        return tuple.__new__(cls, (Fraction(two_main, 2), eps))

    def __str__(self):
        if self.eps == 0:
            return format_rational(self.main)
        sign = "+" if self.eps > 0 else "-"
        k = abs(self.eps)
        eps = "eps" if k == 1 else f"{k}*eps"
        return f"{format_rational(self.main)}{sign}{eps}"


# Every bound below is N^2/2 plus one term per (T, d) block. A term is the
# pair of ints (2*main, eps), with an integral doubled main part.


def _naive_term(t: int, d: int) -> tuple[int, int]:
    return t * t * d, 0


def _refined_term(t: int, d: int) -> tuple[int, int]:
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


def _conjectural_term(t: int, d: int) -> tuple[int, int]:
    """-T^2 d^2 / 2 + T^2 + T(T-1)(d^2-1)/2, doubled."""
    return 2 * t * t - t * t * d * d + t * (t - 1) * (d * d - 1), 0


def pack(term, t: int, d: int, k: int) -> int:
    """The term (2*main, eps) of the block (t, d) as one int 2*main*k + eps.

    Packed terms order and add like (2*main, eps) pairs as long as every eps
    involved, partial sums included, lies in [0, k): then a larger main term
    always outweighs any eps, and `GrowthValue.unpack` reads a sum back.
    """
    a, e = term(t, d)
    return a * k + e


def _bound(term, x) -> GrowthValue:
    """N^2/2 plus term(T, d) summed over the blocks of x."""
    pairs = td_pairs(x)
    n = sum(t * d for t, d in pairs)
    two_main, eps = n * n, 0
    for t, d in pairs:
        a, e = term(t, d)
        two_main += a
        eps += e
    return tuple.__new__(GrowthValue, (Fraction(two_main, 2), eps))


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


def split_tables(n_max: int, term=_refined_term) -> dict[int, list[int]]:
    """For each part size d <= n_max, the best split of equal parts d.

    tables[d][m], for m <= n_max // d, is the top sum of packed block terms
    (refined by default), k = n_max + 1, over every way to split m parts d
    into blocks (T, d): the maximum over t of term(t, d) + tables[d][m - t].
    """
    k = n_max + 1
    tables = {}
    for d in range(1, n_max + 1):
        best = [0]
        for m in range(1, n_max // d + 1):
            best.append(
                max(pack(term, t, d, k) + best[m - t] for t in range(1, m + 1))
            )
        tables[d] = best
    return tables


def grouping_score(q_parts, tables) -> int:
    """The refined bound of q_parts maximized over every grouping of its
    equal parts into blocks, packed like the rows of tables, which come
    from `split_tables` and hold one row per d <= n_max."""
    k = len(tables) + 1
    n = packed = 0
    for d, m in Counter(q_parts).items():
        n += d * m
        packed += tables[d][m]
    return n * n * k + packed


def extra_tops(start: list[int], sizes, gains) -> list[int]:
    """A bounded knapsack of packed scores over the given part sizes, each
    2 <= d <= room, room = len(start) - 1.

    Entry s of the result is the top of start[s - x] plus gains(d)[e] per
    size d in sizes, over every extra of parts in sizes summing to x <= s
    with e parts d; gains(d) covers each e with d*e <= room. Each e is one
    slice-wise max-plus update. A start entry that no sum may use needs a
    floor below every reachable score, as it keeps its value plus one
    gains(d)[0] per d.
    """
    best = start
    room = len(start) - 1
    for d in sizes:
        gain = gains(d)
        g = gain[0]
        new = [x + g for x in best]
        for e in range(1, room // d + 1):
            off, g = d * e, gain[e]
            new[off:] = [
                a if a > (b := x + g) else b for a, x in zip(new[off:], best)
            ]
        best = new
    return best


def floor_below(tables) -> int:
    """An int that stays below any sum of entries of tables, one per row at
    most, when any other such sum is added to it: the `extra_tops` start of
    a sum that no extra may use."""
    return -1 - 2 * sum(max(map(abs, row)) for row in tables.values())


def _best_merge(base: Counter, ones: int, term) -> GrowthValue:
    """Top of N^2/2 + sum term(T_d, d) over the partitions base + extra,
    extra any partition of ones, with equal parts fully grouped.

    Only the sizes 2 <= d <= ones that base holds go to `extra_tops`, by
    this lemma: no maximizer has a part of a size d >= 2 that base lacks.
    Both terms score the 1-block (t, 1) t^2, doubled. If an extra puts
    e >= 1 parts d in a block of their own and leaves y ones, turning those
    parts back into e*d ones raises the 1-block by (y + e*d)^2 - y^2 >=
    (e*d)^2, while the block (e, d) scored less: at most e^2 d in the
    refined main term, whose corrections are >= 0 for d >= 2 (so its d
    epsilons at T = 3 cannot outweigh a larger main term), and
    e(e + 1 - d^2) in the conjectural one.

    `extra_tops` starts from the terms of the 1-blocks left by an extra of
    s ones, so every sum is reachable. Terms are packed with k = N + 1: only
    T = 3, d > 1 blocks carry eps, d of it each, so every partial sum has
    0 <= eps <= N.
    """
    n = ones + sum(d * m for d, m in base.items())
    k = n + 1
    fixed = sum(pack(term, m, d, k) for d, m in base.items() if d > ones)
    best = extra_tops(
        [pack(term, s, 1, k) for s in range(ones + 1)],
        sorted(d for d in base if d <= ones),
        lambda d: [
            pack(term, base[d] + e, d, k) for e in range(ones // d + 1)
        ],
    )
    return GrowthValue.unpack(n * n * k + fixed + best[ones], k)


def merge_bounds(parts) -> tuple[GrowthValue, GrowthValue]:
    """Top refined and conjectural bounds over the partitions reachable by
    merging only the size-1 parts of parts, each with equal parts fully
    grouped; the same maxima as `partition_bound` and `partition_bound0`
    over `sarnakxue.one_merge_coarsenings`."""
    base = Counter(int(v) for v in parts)
    ones = base.pop(1, 0)
    return (
        _best_merge(base, ones, _refined_term),
        _best_merge(base, ones, _conjectural_term),
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


class DeltaMax(namedtuple("DeltaMax", "candidates bound q_argmax shapes")):
    """The dominance decision for a representation, from `shapes.delta_max`."""

    __slots__ = ()
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
