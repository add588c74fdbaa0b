"""Growth exponents of SL(2)-types, and the types a representation allows.

Values are pairs (main, eps) ordered lexicographically: eps counts copies of
an arbitrarily small positive quantity, so (a, 1) sits just above (a, 0) but
below anything with a larger main term.

The refined bound subtracts a correction from the naive one for blocks of
multiplicity 1, 2 or 3; multiplicity-3 corrections are where eps enters.

Every bound is N^2/2 plus one term per block, so a maximum over the ways to
group equal parts into blocks (`split_tables`, `grouping_score`) or to merge
the size-1 parts (`_best_merge`) is a small exact dynamic programme instead
of an enumeration. The merge of the 1s runs only over the part sizes the
partition already holds: merging 1s into a new size never pays.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product
from operator import add, index

from .cohomology import GlobalRep, LocalRep
from .infchar import format_rational
from .partitions import partitions_of, validate_partition


class GrowthValue(namedtuple("GrowthValue", "main eps")):
    __slots__ = ()
    main: Fraction
    eps: int

    def __new__(cls, main, eps=0):
        return tuple.__new__(cls, (Fraction(main), eps))

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
    `_score` and the knapsack layer sum these.
    """
    a, e = term(t, d)
    return a * k + e


def _score(term, pairs, k: int) -> int:
    """N^2/2 plus term(T, d) over the (T, d) pairs, packed with k (`pack`).

    The one packed sum of a bound, for `_bound` and `dominant`. Only refined
    blocks with T = 3, d > 1 carry eps, d of it each, so with every block
    positive (`td_pairs`) eps <= N/3 and any k > N/3 reads back: k = N + 1
    does, and k = N would too (an equivalent mutant).
    """
    n = packed = 0
    for t, d in pairs:
        n += t * d
        packed += pack(term, t, d, k)
    return n * n * k + packed


def td_pairs(x) -> tuple[tuple[int, int], ...]:
    """(T, d) per block, of a shape (by its `.blocks`) or of (T, d) pairs.

    Refuses an empty list and a block with T < 1 or d < 1, as `Shape` and
    `ShapeBlock` do.
    """
    if hasattr(x, "blocks"):
        return tuple((b.T, b.d) for b in x.blocks)
    pairs = tuple((index(t), index(d)) for t, d in x)
    if not pairs:
        raise ValueError("shape needs at least one block")
    if any(t < 1 or d < 1 for t, d in pairs):
        raise ValueError("block multiplicities and lengths must be positive")
    return pairs


def _bound(term, x) -> GrowthValue:
    """N^2/2 plus term(T, d) summed over the blocks of x, by `_score` with
    k = N + 1 and read back by `GrowthValue.unpack`."""
    pairs = td_pairs(x)
    k = sum(t * d for t, d in pairs) + 1
    return GrowthValue.unpack(_score(term, pairs, k), k)


def refined_bound(x) -> GrowthValue:
    """Naive bound minus the low-multiplicity corrections (`_refined_term`)."""
    return _bound(_refined_term, x)


def conjectural_bound(x) -> GrowthValue:
    """(N^2 - sum T^2 d^2)/2 + sum (T^2 + T(T-1)(d^2-1)/2)."""
    return _bound(_conjectural_term, x)


def grouped_blocks(q_parts) -> tuple[tuple[int, int], ...]:
    """Group equal parts of a partition into (multiplicity, size) blocks."""
    q_parts = tuple(map(index, q_parts))
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
    mult = Counter(map(index, q_parts))
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
    Each term is packed once per row.
    """
    k = n_max + 1
    tables = {}
    for d in range(1, n_max + 1):
        terms = [pack(term, t, d, k) for t in range(1, n_max // d + 1)]
        best = [0]
        for _ in terms:
            # terms[t - 1] + best[m - t] for t = 1..m, m = len(best)
            best.append(max(map(add, terms, reversed(best))))
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


def _best_merge(base: Counter, ones: int, term, k: int) -> tuple[int, int]:
    """(top, kept): packed with k, the top of sum term(T_d, d) over the
    partitions base + extra, extra any partition of ones, with equal parts
    fully grouped, and its value at extra = (1,) * ones, the partition kept
    as it is. Neither holds the N^2/2 that every bound adds.

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
    s ones, so every sum is reachable. k must exceed N: only T = 3, d > 1
    blocks carry eps, d of it each, so every partial sum has 0 <= eps <= N.
    """
    blocks = {d: pack(term, m, d, k) for d, m in base.items()}
    fixed = sum(v for d, v in blocks.items() if d > ones)
    start = [pack(term, s, 1, k) for s in range(ones + 1)]
    best = extra_tops(
        start,
        sorted(d for d in base if d <= ones),
        lambda d: [
            pack(term, base[d] + e, d, k) for e in range(ones // d + 1)
        ],
    )
    kept = sum(blocks.values()) + start[ones]
    return fixed + best[ones], kept


# --- runs of a local rep, common SL(2)-types, the dominant one --------------


class RunData(namedtuple("RunData", "beta_plus p_runs q_runs big lam2")):
    """Degenerate-block runs and nondegenerate strings of a local rep.

    Character values are doubled, so every entry is an int: a run steps by
    -2, and a doubled centre is half the sum of the doubled end values.
    """

    __slots__ = ()
    beta_plus: tuple[int, ...]  # block sums > 1, descending
    p_runs: tuple[tuple[int, ...], ...]  # doubled character values, step -2
    q_runs: tuple[tuple[int, ...], ...]
    big: tuple[tuple[int, int], ...]  # (length, doubled centre) per mixed block
    lam2: tuple[int, ...]  # the doubled character


def local_run_data(rep: LocalRep) -> RunData:
    lam2 = rep.lam2
    beta_plus: list[int] = []
    big: list[tuple[int, int]] = []
    p_runs: list[list[int]] = []
    q_runs: list[list[int]] = []
    side = run = None  # the list of the open run's side, and the open run
    i = 0
    for x, y in rep.blocks:
        n = x + y
        if n > 1:
            beta_plus.append(n)
            big.append((n, (lam2[i] + lam2[i + n - 1]) // 2))
            i += n
            continue
        runs = p_runs if x == 1 else q_runs
        value = lam2[i]
        i += 1
        # a run steps by -2; the values of a mixed block in between would
        # leave a wider gap, so a mixed block ends the open run
        if runs is side and run[-1] - value == 2:
            run.append(value)
        else:
            side, run = runs, [value]
            runs.append(run)
    return RunData(
        beta_plus=tuple(sorted(beta_plus, reverse=True)),
        p_runs=tuple(map(tuple, p_runs)),
        q_runs=tuple(map(tuple, q_runs)),
        big=tuple(big),
        lam2=lam2,
    )


def _local_candidates(data: RunData) -> set[tuple[int, ...]]:
    """beta_plus merged with one partition of each run's length, as descending
    tuples: folded one run at a time, with the repeats dropped after each."""
    runs = data.p_runs + data.q_runs
    # a run of one value adds a part 1 whichever way the others are cut
    out = {data.beta_plus + (1,) * sum(len(run) == 1 for run in runs)}
    for run in runs:
        if len(run) > 1:
            pool = partitions_of(len(run))
            out = {
                tuple(sorted(q + part, reverse=True)) for q in out for part in pool
            }
    return out


def common_candidates(runs: list[RunData]) -> list[tuple[int, ...]]:
    common = set.intersection(*(_local_candidates(data) for data in runs))
    return sorted(common, reverse=True)


def sl2_candidates(rep: GlobalRep) -> list[tuple[int, ...]]:
    """Partitions realizable as the SL(2)-type at every place at once.

    Descending-lexicographic order, largest first.
    """
    return common_candidates([local_run_data(local) for local in rep.places])


def dominant(cands) -> tuple[GrowthValue, tuple[int, ...], list]:
    """Top score over candidate partitions, its witness, and every maximizer.

    Scores each candidate once, its (multiplicity, size) counts through
    `_score` with k = 1 + the largest rank, compares the packed ints and
    unpacks only the top. The witness is the lexicographically smallest
    maximizer, which is the ones-padded canonical partition whenever that
    is among them; the maximizers keep cands' order.
    """
    if not cands:
        raise ValueError("no common SL(2)-type across the places")
    k = 1 + max(map(sum, cands))
    scores = [_score(_refined_term, zip(c.values(), c), k) for c in map(Counter, cands)]
    best = max(scores)
    tops = [q for q, score in zip(cands, scores) if score == best]
    return GrowthValue.unpack(best, k), min(tops), tops


def rep_bound(rep: GlobalRep) -> tuple[GrowthValue, tuple[int, ...]]:
    """Dominant growth value over the common SL(2)-types, with its argmax."""
    best, best_q, _ = dominant(sl2_candidates(rep))
    return best, best_q
