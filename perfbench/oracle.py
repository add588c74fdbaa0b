"""Brute-force references for the benchmark's output checks.

Nothing here imports upqgrowth or the repository's tests: every value is
recomputed from the definitions, by enumeration where the library uses a
shortcut. Growth values are (main, eps) pairs compared lexicographically.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, prod


def partitions_of(n: int):
    """Partitions of n as non-increasing tuples, largest first."""

    def rec(rest, mx):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, mx), 0, -1):
            for tail in rec(rest - k, k):
                yield (k,) + tail

    yield from rec(n, n)


# --- representations ---------------------------------------------------------


def segments(blocks, lam):
    """(block, values) pairs: lam cut into consecutive block-sum segments."""
    out, pos = [], 0
    for x, y in blocks:
        out.append(((x, y), tuple(lam[pos : pos + x + y])))
        pos += x + y
    return out


def group_table(blocks, lam):
    """The groups a place can be cut into.

    A group is one block, or two or more consecutive one-sided blocks of the
    same side whose values form a step-one progression. Returns the block
    count, reach (reach[i] is one past the last block that can close a group
    opened at block i) and {(i, j): (length, 2 * center)} for the group of
    blocks i..j-1.
    """
    # values doubled, so every value and center is an integer
    segs = [(b, [int(2 * v) for v in seg]) for b, seg in segments(blocks, lam)]
    reach = []
    for i, ((x, y), _) in enumerate(segs):
        j = i + 1
        if x + y == 1:
            while j < len(segs) and segs[j][0] == (x, y) and segs[j - 1][1][-1] - segs[j][1][0] == 2:
                j += 1
        reach.append(j)
    group = {
        (i, j): (
            sum(len(seg) for _, seg in segs[i:j]),
            (segs[i][1][0] + segs[j - 1][1][-1]) // 2,
        )
        for i in range(len(segs))
        for j in range(i + 1, reach[i] + 1)
    }
    return len(segs), reach, group


def local_groups(blocks, lam):
    """Every cut of a place into groups, as lists of (length, 2 * center)."""
    n, reach, group = group_table(blocks, lam)

    def rec(i):
        if i == n:
            yield []
            return
        for j in range(i + 1, reach[i] + 1):
            for tail in rec(j):
                yield [group[i, j]] + tail

    yield from rec(0)


def local_candidates(blocks, lam) -> set:
    """SL(2) types of one place: the group lengths of every cut, descending."""
    n, reach, group = group_table(blocks, lam)
    # types[i]: the types of the blocks from i on
    types = {n: {()}}
    for i in range(n - 1, -1, -1):
        types[i] = {
            tuple(sorted((group[i, j][0],) + rest, reverse=True))
            for j in range(i + 1, reach[i] + 1)
            for rest in types[j]
        }
    return types[0]


def local_placements(blocks, lam, q_parts) -> set:
    """Distinct multisets of (length, 2 * center) realising q_parts at one place."""
    want = Counter(q_parts)
    return {
        tuple(sorted(groups))
        for groups in local_groups(blocks, lam)
        if Counter(d for d, _ in groups) == want
    }


def common_candidates(places) -> list:
    """Candidates shared by every place, largest first."""
    common = None
    for blocks, lam in places:
        cands = local_candidates(blocks, lam)
        common = cands if common is None else common & cands
    return sorted(common or (), reverse=True)


def expand(center, d):
    """The d values centred at center, step -1."""
    return [center + Fraction(d + 1, 2) - l for l in range(1, d + 1)]


# --- growth values -----------------------------------------------------------


def refined_value(groups):
    """(main, eps), with main summed as an integer multiple of 1/2."""
    n = sum(t * d for t, d in groups)
    twice = n * n + sum(t * t * d for t, d in groups)
    eps = 0
    for t, d in groups:
        if t == 1:
            twice -= d * d + d - 2
        elif t == 2:
            twice -= 6 * d - 6
        elif t == 3 and d > 1:
            twice -= 10 * d - 10
            eps += d
    return Fraction(twice, 2), eps


def conjectural_value(groups):
    n = sum(t * d for t, d in groups)
    twice = n * n - sum(t * t * d * d for t, d in groups)
    twice += sum(2 * t * t + t * (t - 1) * (d * d - 1) for t, d in groups)
    return Fraction(twice, 2), 0


def fully_grouped(q_parts):
    mult = Counter(q_parts)
    return tuple((mult[d], d) for d in sorted(mult, reverse=True))


def all_groupings(q_parts):
    """Every multiset of (T, d) blocks whose parts make up q_parts."""
    mult = Counter(q_parts)
    ds = sorted(mult)
    for combo in product(*[list(partitions_of(mult[d])) for d in ds]):
        yield tuple((t, d) for d, split in zip(ds, combo) for t in split)


@cache
def partition_count(n: int) -> int:
    return sum(1 for _ in partitions_of(n))


def grouping_count(q_parts) -> int:
    return prod(partition_count(m) for m in Counter(q_parts).values())


def best_bound(places):
    """(value, lexicographically least maximiser, maximisers, candidates),
    or None when the places share no candidate."""
    cands = common_candidates(places)
    if not cands:
        return None
    scores = {q: refined_value(fully_grouped(q)) for q in cands}
    best = max(scores.values())
    maximisers = sorted(q for q in cands if scores[q] == best)
    return best, maximisers[0], maximisers, cands


def shape_count(places, maximisers) -> int:
    """Dominant shapes: distinct placements multiplied across places."""
    return sum(
        prod(len(local_placements(b, lam, q)) for b, lam in places)
        for q in maximisers
    )


# --- density rows ------------------------------------------------------------


def one_coarsenings(q_parts):
    ones = sum(1 for v in q_parts if v == 1)
    rest = tuple(v for v in q_parts if v != 1)
    return {tuple(sorted(rest + extra, reverse=True)) for extra in partitions_of(ones)}


def balanced_ratio(q_parts) -> Fraction:
    n = sum(q_parts)
    profile = sorted(
        (part - 1 - 2 * j for part in q_parts for j in range(part // 2)),
        reverse=True,
    )
    ratio = Fraction(0)
    for i in range(1, n // 2 + 1):
        ratio = max(ratio, Fraction(sum(profile[:i]), i * (n - i)))
    return ratio


def density_row(q_parts, groupings: bool = False) -> dict:
    """Every field of a density row, rebuilt from the definitions.

    With groupings, each coarsening is scored at its best block grouping
    instead of fully grouped.
    """
    q_parts = tuple(sorted(q_parts, reverse=True))
    n = sum(q_parts)

    def score(q, value):
        if groupings:
            return max(value(g) for g in all_groupings(q))
        return value(fully_grouped(q))

    coarse = one_coarsenings(q_parts)
    prov = {c: score(c, refined_value) for c in coarse}
    conj = {c: score(c, conjectural_value) for c in coarse}
    best_prov, best_conj = max(prov.values()), max(conj.values())
    goal = (n * n - 1) * (1 - balanced_ratio(q_parts))
    return {
        "q": q_parts,
        "provable": (best_prov[0] - 1, best_prov[1]),
        "conjectural": (best_conj[0] - 1, best_conj[1]),
        "sx_goal": goal,
        "trivial": n * n - 1,
        "provable_at_coarsening": prov[q_parts] < best_prov,
        "conjectural_at_coarsening": conj[q_parts] < best_conj,
        "exceeds_goal": best_prov[0] - 1 > goal
        or (best_prov[0] - 1 == goal and best_prov[1] > 0),
    }


def decimal2(x: Fraction) -> str:
    """x to two decimals, ties to even, by exact integer arithmetic."""
    cents, rem = divmod(x * 100, 1)
    cents = int(cents)
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and cents % 2):
        cents += 1
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


# --- sweeps ------------------------------------------------------------------


def distinct_core_pairs(n_max: int) -> int:
    """(core, N) pairs: core a set of distinct parts >= 2, sum(core) <= N <= n_max."""
    count = 0
    pool = range(2, n_max + 1)

    def rec(i, total):
        nonlocal count
        count += max(0, n_max - max(total, 1) + 1)
        for j in range(i, len(pool)):
            if total + pool[j] > n_max:
                break
            rec(j + 1, total + pool[j])

    rec(0, 0)
    return count


def gamma_product(indices, residues) -> Fraction:
    value = Fraction(1)
    for q in residues:
        for n in indices:
            for i in range(1, abs(n) + 1):
                value *= 1 + Fraction(1 if n < 0 else -1, q**i)
    return value


def congruence_index(n: int, ideal) -> Fraction:
    norm = prod(q**e for q, e in ideal)
    return norm ** (n * n) * gamma_product((n,), [q for q, _ in ideal])


# --- leading terms -----------------------------------------------------------


def weyl_dim(values) -> Fraction:
    """prod over i < j of (v_i - v_j) / (j - i)."""
    n = len(values)
    num = prod(values[i] - values[j] for i in range(n) for j in range(i + 1, n))
    den = prod(j - i for i in range(n) for j in range(i + 1, n))
    return Fraction(num, den)


def ssyt_count(shape, n: int) -> int:
    """Semistandard tableaux of the given shape with entries <= n."""
    rows = [r for r in shape if r > 0]

    def rec(r, prev):
        if r == len(rows):
            return 1
        total = 0
        for row in product(range(1, n + 1), repeat=rows[r]):
            if any(a > b for a, b in zip(row, row[1:])):
                continue
            if prev and any(a <= b for a, b in zip(row, prev)):
                continue
            total += rec(r + 1, row)
        return total

    return rec(0, ())


def tableau_dim(values) -> int:
    """Dimension with infinitesimal character values, by counting tableaux."""
    n = len(values)
    weight = [values[i] - Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    shift = -min(int(w) for w in weight)
    return ssyt_count(tuple(int(w) + shift for w in weight), n)


def leading_coeff(places, k: int) -> Fraction:
    """prod over places of dim(lam without its k-stretch) / C(N-k, (N-k)//2)."""
    value = Fraction(1)
    for blocks, lam in places:
        rest = [v for (x, y), seg in segments(blocks, lam) if x + y != k for v in seg]
        m = len(rest)
        value *= weyl_dim(rest) / comb(m, m // 2)
    return value
