"""SL(2)-shape combinatorics for cohomological representations.

A shape is a list of blocks (T, d, centers, eta): T copies of a length-d
string, with T distinct center values per archimedean place and a sign eta.
The blocks expand place by place to a regular total character.

Given a global representation, the module enumerates which partitions of the
rank can appear as the SL(2)-type of a form with that cohomological
archimedean data, and builds the shapes realizing the dominant partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from . import infchar, partitions
from .cohomology import GlobalRep, LocalRep
from .infchar import format_rational
from .partitions import multiset_contains, multiset_minus, partitions_of
from .packets import chi4


@dataclass(frozen=True)
class ShapeBlock:
    T: int
    d: int
    centers: tuple[tuple[Fraction, ...], ...]  # one tuple of T values per place
    eta: int

    def __post_init__(self):
        if self.T < 1 or self.d < 1:
            raise ValueError("block multiplicities and lengths must be positive")
        if self.eta not in (1, -1):
            raise ValueError("eta must be +1 or -1")
        cs = tuple(
            tuple(Fraction(c) for c in place) for place in self.centers
        )
        object.__setattr__(self, "centers", cs)
        if not cs:
            raise ValueError("need at least one place")
        for place in cs:
            if len(place) != self.T:
                raise ValueError(
                    f"block of multiplicity {self.T} needs {self.T} centers "
                    f"per place, got {len(place)}"
                )
            if any(a <= b for a, b in zip(place, place[1:])):
                raise ValueError("centers must be strictly decreasing")


@dataclass(frozen=True)
class Shape:
    blocks: tuple[ShapeBlock, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("shape needs at least one block")
        counts = {len(b.centers) for b in self.blocks}
        if len(counts) != 1:
            raise ValueError("blocks disagree on the number of places")
        for v in range(self.places):
            # raises IrregularCharacterError when two strings collide
            total_infchar(self, v)

    @property
    def places(self) -> int:
        return len(self.blocks[0].centers)

    @property
    def rank(self) -> int:
        return sum(b.T * b.d for b in self.blocks)


def total_infchar(shape: Shape, place: int = 0):
    """The full infinitesimal character of the shape at one place."""
    return infchar.total_character(
        (c, b.d) for b in shape.blocks for c in b.centers[place]
    )


def sl2_partition(shape: Shape) -> tuple[int, ...]:
    """The SL(2)-type: each block contributes T parts equal to d."""
    out: list[int] = []
    for b in shape.blocks:
        out.extend([b.d] * b.T)
    return tuple(sorted(out, reverse=True))


def td_pairs(x) -> tuple[tuple[int, int], ...]:
    """(T, d) per block, from a Shape or from (T, d) pairs."""
    if isinstance(x, Shape):
        return tuple((b.T, b.d) for b in x.blocks)
    return tuple((int(t), int(d)) for t, d in x)


def is_gsk(x) -> bool:
    """Shapes with a length-1 block plus pairwise distinct longer simple blocks.

    Sorted by length, the first block must have d = 1 (any multiplicity); all
    remaining blocks need T = 1 and distinct lengths.
    """
    pairs = sorted(td_pairs(x), key=lambda td: td[1])
    ds = [d for _, d in pairs]
    if len(set(ds)) != len(ds):
        return False
    if ds[0] != 1:
        return False
    return all(t == 1 for t, d in pairs if d > 1)


def is_odd_gsk(x) -> bool:
    """GSK with every block length odd."""
    pairs = td_pairs(x)
    return is_gsk(pairs) and all(d % 2 == 1 for _, d in pairs)


def kappa(delta: int, T: int, d: int) -> int:
    """Sign attached to a block: delta * (-1) ** ((T-1)*(d-1))."""
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    return delta * (-1 if ((T - 1) * (d - 1)) % 2 else 1)


@dataclass(frozen=True)
class GroupDescriptor:
    """Product of quasi-split unitary factors (rank, sign).

    sign +1/-1 records the discriminant twist; sign 0 means a plain compact
    unitary factor (used for Sato-Tate descriptions).
    """

    factors: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        parts = []
        for rank, sign in self.factors:
            if sign == 0:
                parts.append(f"U({rank})")
            else:
                parts.append(f"U_{{{'+' if sign > 0 else '-'}1}}({rank})")
        return " x ".join(parts) if parts else "U(0)"


def _block_is_orthogonal(eta: int, T: int, d: int) -> bool:
    # delta = eta * (-1)^(T-1); orthogonal iff delta * (-1)^(T+d) == 1,
    # which collapses to eta * (-1)^(d-1) == 1
    return eta * (-1 if (d - 1) % 2 else 1) == 1


def attached_group(shape: Shape) -> GroupDescriptor:
    """The endoscopic-type unitary group the shape transfers to."""
    n_orth = 0
    n_symp = 0
    for b in shape.blocks:
        if _block_is_orthogonal(b.eta, b.T, b.d):
            n_orth += b.T * b.d
        else:
            n_symp += b.T * b.d
    factors: list[tuple[int, int]] = []
    if n_orth:
        factors.append((n_orth, -1 if (n_orth - 1) % 2 else 1))
    if n_symp:
        factors.append((n_symp, -1 if n_symp % 2 else 1))
    return GroupDescriptor(factors=tuple(factors))


def sato_tate_group(shape: Shape) -> tuple[tuple[int, int], ...]:
    """One (T_i, 1) factor per block, read as U(T_i) x U(1)."""
    return tuple((b.T, 1) for b in shape.blocks)


# --- run decomposition of a local representation ---------------------------


@dataclass(frozen=True)
class RunData:
    """Degenerate-block runs and nondegenerate strings of a local rep."""

    beta_plus: tuple[int, ...]  # block sums > 1, descending
    p_runs: tuple[tuple[Fraction, ...], ...]  # character values, step -1
    q_runs: tuple[tuple[Fraction, ...], ...]
    big: tuple[tuple[int, Fraction], ...]  # (length, center) per mixed block


def local_run_data(rep: LocalRep) -> RunData:
    sums = partitions.block_sums(rep.blocks)
    segs = infchar.segments(rep.lam, sums)
    beta_plus: list[int] = []
    big: list[tuple[int, Fraction]] = []
    p_runs: list[tuple[Fraction, ...]] = []
    q_runs: list[tuple[Fraction, ...]] = []
    current: list[Fraction] = []
    current_kind: str | None = None

    def close():
        nonlocal current, current_kind
        if current:
            (p_runs if current_kind == "p" else q_runs).append(tuple(current))
        current = []
        current_kind = None

    for (x, y), n, seg in zip(rep.blocks, sums, segs):
        if n > 1:
            close()
            beta_plus.append(n)
            big.append((n, (seg[0] + seg[-1]) / 2))
            continue
        kind = "p" if x == 1 else "q"
        value = seg[0]
        if current_kind == kind and current and current[-1] - value == 1:
            current.append(value)
        else:
            close()
            current_kind = kind
            current = [value]
    close()
    return RunData(
        beta_plus=tuple(sorted(beta_plus, reverse=True)),
        p_runs=tuple(p_runs),
        q_runs=tuple(q_runs),
        big=tuple(big),
    )


def q_pq_local(
    rep: LocalRep,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Run-length partitions (p side, q side) and the nondegenerate sums."""
    data = local_run_data(rep)
    qp = tuple(sorted((len(r) for r in data.p_runs), reverse=True))
    qq = tuple(sorted((len(r) for r in data.q_runs), reverse=True))
    return qp, qq, data.beta_plus


def _merge_choices(run_lengths) -> set[tuple[int, ...]]:
    """Every multiset union of one partition per run length."""
    out: set[tuple[int, ...]] = set()
    pools = [partitions_of(n) for n in run_lengths]
    for combo in product(*pools) if pools else [()]:
        merged: list[int] = []
        for part in combo:
            merged.extend(part)
        out.add(tuple(sorted(merged, reverse=True)))
    return out


def _local_candidates(data: RunData) -> set[tuple[int, ...]]:
    lengths = [len(r) for r in data.p_runs] + [len(r) for r in data.q_runs]
    out: set[tuple[int, ...]] = set()
    for extra in _merge_choices(lengths):
        out.add(tuple(sorted(data.beta_plus + extra, reverse=True)))
    return out


def _common_candidates(runs: list[RunData]) -> list[tuple[int, ...]]:
    common = set.intersection(*(_local_candidates(data) for data in runs))
    return sorted(common, reverse=True)


def sl2_candidates(rep: GlobalRep) -> list[tuple[int, ...]]:
    """Partitions realizable as the SL(2)-type at every place at once.

    Descending-lexicographic order, largest first.
    """
    return _common_candidates([local_run_data(local) for local in rep.places])


def q_can(rep: GlobalRep) -> tuple[int, ...] | None:
    """Canonical lower-bound partition: place-wise maximal nondegenerate sums
    padded with ones.  None when those sums already exceed the rank."""
    union: Counter[int] = Counter()
    for local in rep.places:
        union |= Counter(local_run_data(local).beta_plus)
    base = tuple(sorted(union.elements(), reverse=True))
    r = rep.rank - sum(base)
    if r < 0:
        return None
    return base + (1,) * r


# --- dominant-shape construction --------------------------------------------


def _submultisets_with_sum(counter: Counter, target: int):
    """Sub-multisets of counter summing to target, as descending tuples."""
    vals = sorted(counter, reverse=True)

    def rec(i: int, remaining: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        if i == len(vals):
            return
        v = vals[i]
        top = min(counter[v], remaining // v)
        for k in range(top, -1, -1):
            acc.extend([v] * k)
            yield from rec(i + 1, remaining - v * k, acc)
            if k:
                del acc[-k:]

    yield from rec(0, target, [])


def _distributions(leftover: Counter, run_lengths: list[int]):
    """Ways to split the leftover multiset into one sub-multiset per run,
    each summing to the run length."""
    if not run_lengths:
        if sum(leftover.values()) == 0:
            yield []
        return
    first, rest = run_lengths[0], run_lengths[1:]
    for sub in _submultisets_with_sum(leftover, first):
        remaining = leftover - Counter(sub)
        for tail in _distributions(remaining, rest):
            yield [sub] + tail


def _chunkings(run_values: tuple[Fraction, ...], sub: tuple[int, ...]):
    """All orderings of sub chunk the run; yields ((length, center), ...)."""
    for arr in sorted(set(permutations(sub))):
        s = 0
        chunks = []
        for c in arr:
            chunks.append((c, (run_values[s] + run_values[s + c - 1]) / 2))
            s += c
        yield tuple(chunks)


def _local_assignments(
    data: RunData, q_parts: tuple[int, ...]
) -> list[tuple[tuple[int, Fraction], ...]]:
    """All placements of q_parts onto this place: lists of (length, center)."""
    if not multiset_contains(q_parts, data.beta_plus):
        return []
    leftover = Counter(multiset_minus(q_parts, data.beta_plus))
    runs = data.p_runs + data.q_runs
    out: list[tuple[tuple[int, Fraction], ...]] = []
    for alloc in _distributions(leftover, [len(r) for r in runs]):
        pools = [
            list(_chunkings(run_vals, sub))
            for run_vals, sub in zip(runs, alloc)
        ]
        for combo in product(*pools):
            pairs = tuple(data.big) + tuple(
                ch for chunk_list in combo for ch in chunk_list
            )
            out.append(pairs)
    return out


def _shape_from_assignment(
    q_parts: tuple[int, ...],
    per_place: tuple[tuple[tuple[int, Fraction], ...], ...],
    rank: int,
) -> Shape:
    mult = Counter(q_parts)
    blocks = []
    for d in sorted(mult, reverse=True):
        centers = tuple(
            tuple(
                sorted((c for dd, c in assign if dd == d), reverse=True)
            )
            for assign in per_place
        )
        eta = -1 if (rank - d) % 2 else 1
        blocks.append(ShapeBlock(T=mult[d], d=d, centers=centers, eta=eta))
    return Shape(blocks=tuple(blocks))


def _shape_sort_key(shape: Shape):
    return [
        (b.d, b.T, b.eta, b.centers) for b in shape.blocks
    ]


def delta_max(rep: GlobalRep):
    """Candidates, bound, witness and dominant shapes as a `growth.DeltaMax`.

    Splits each place into runs once, scores every common SL(2)-type with the
    refined growth bound, then expands each maximizer place by place.
    """
    from .growth import DeltaMax, dominant  # here: growth uses this module

    runs = [local_run_data(local) for local in rep.places]
    cands = _common_candidates(runs)
    bound, q_argmax, tops = dominant(cands)
    shapes: list[Shape] = []
    for q_parts in tops:
        pools = [_local_assignments(data, q_parts) for data in runs]
        for combo in product(*pools):
            shapes.append(_shape_from_assignment(q_parts, combo, rep.rank))
    unique = list(dict.fromkeys(shapes))
    unique.sort(key=_shape_sort_key)
    for s in unique:
        for v, local in enumerate(rep.places):
            if total_infchar(s, v) != local.lam:
                raise AssertionError("shape does not rebuild the character")
    return DeltaMax(tuple(cands), bound, q_argmax, tuple(unique))


# --- parity test over the odd GSK family ------------------------------------


def _shape_parts_at_place(shape: Shape, place: int):
    """Singleton parts from the d=1 block, one stretch per longer block,
    ordered by top value descending.  Returns (values, d) pairs."""
    parts: list[tuple[tuple[Fraction, ...], int]] = []
    for b in shape.blocks:
        for c in b.centers[place]:
            parts.append((infchar.block_expansion(c, b.d), b.d))
    parts.sort(key=lambda vd: vd[0][0], reverse=True)
    return parts


def _stretch_q(rep: LocalRep, values: tuple[Fraction, ...]) -> int:
    """Second-coordinate weight of a value stretch inside the local rep.

    A stretch matching one mixed block exactly takes that block's q; a
    stretch made of degenerate-block values counts its (0,1) members;
    anything else is rejected.
    """
    sums = partitions.block_sums(rep.blocks)
    segs = infchar.segments(rep.lam, sums)
    vset = set(values)
    deg_lookup: dict[Fraction, int] = {}
    for (x, y), n, seg in zip(rep.blocks, sums, segs):
        if n > 1:
            if set(seg) == vset:
                return y
            if set(seg) & vset:
                raise ValueError(
                    "stretch straddles a nondegenerate block boundary"
                )
        else:
            deg_lookup[seg[0]] = y
    if not vset <= set(deg_lookup):
        raise ValueError("stretch values missing from the local character")
    return sum(deg_lookup[v] for v in values)


def odd_gsk_parity_test(rep: GlobalRep, shape: Shape) -> bool:
    """Vanishing test for odd-GSK shapes: every long block must accumulate an
    even sign exponent across the places, and the everywhere-unramified part
    must carry an even exponent too."""
    if not is_odd_gsk(shape):
        raise ValueError("parity test only applies to odd GSK shapes")
    if shape.places != len(rep.places):
        raise ValueError("shape and representation disagree on places")
    n = rep.rank
    unram = (n * (n - 1) // 2) * len(rep.places) + sum(r.q for r in rep.places)
    if unram % 2:
        return False
    long_ds = [b.d for b in shape.blocks if b.d > 1]
    for d in long_ds:
        t = 0
        for v, local in enumerate(rep.places):
            parts = _shape_parts_at_place(shape, v)
            idx = next(
                (i for i, (_, dd) in enumerate(parts, start=1) if dd == d),
                None,
            )
            if idx is None:
                raise AssertionError(
                    f"shape has no block of size {d} at place {v}"
                )
            qv = _stretch_q(local, parts[idx - 1][0])
            t += (idx - 1) + qv + chi4(d)
        if t % 2:
            return False
    return True


# --- JSON converters ---------------------------------------------------------


def shape_to_json(shape: Shape) -> dict:
    return {
        "blocks": [
            [
                b.T,
                b.d,
                [[format_rational(c) for c in place] for place in b.centers],
                b.eta,
            ]
            for b in shape.blocks
        ]
    }


def shape_from_json(data: dict) -> Shape:
    blocks = []
    for t, d, centers, eta in data["blocks"]:
        blocks.append(
            ShapeBlock(
                T=int(t),
                d=int(d),
                centers=tuple(
                    tuple(Fraction(c) for c in place) for place in centers
                ),
                eta=int(eta),
            )
        )
    return Shape(blocks=tuple(blocks))
