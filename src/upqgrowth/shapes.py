"""SL(2)-shape combinatorics for cohomological representations.

A shape is a list of blocks (T, d, centers, eta): T copies of a length-d
string, with T distinct center values per archimedean place and a sign eta.
The blocks expand place by place to a regular total character.

Given a global representation, `growth` finds the partitions of the rank
that every place's cohomological archimedean data allows as SL(2)-type, and
which of them dominate; this module builds the shapes realizing those.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain, permutations, product

from . import infchar
from .cohomology import GlobalRep, LocalRep
from .growth import GrowthValue, RunData, common_candidates, dominant, td_pairs
# the benchmark traces these two by their names in this module
from .growth import local_run_data, sl2_candidates
from .infchar import format_rational
from .packets import chi4


class ShapeBlock(namedtuple("ShapeBlock", "T d centers eta")):
    __slots__ = ()
    T: int
    d: int
    centers: tuple[tuple[Fraction, ...], ...]  # one tuple of T values per place
    eta: int

    def __new__(cls, T, d, centers, eta):
        if T < 1 or d < 1:
            raise ValueError("block multiplicities and lengths must be positive")
        if eta not in (1, -1):
            raise ValueError("eta must be +1 or -1")
        cs = tuple(tuple(Fraction(c) for c in place) for place in centers)
        if not cs:
            raise ValueError("need at least one place")
        for place in cs:
            if len(place) != T:
                raise ValueError(
                    f"block of multiplicity {T} needs {T} centers "
                    f"per place, got {len(place)}"
                )
            if any(a <= b for a, b in zip(place, place[1:])):
                raise ValueError("centers must be strictly decreasing")
        return tuple.__new__(cls, (T, d, cs, eta))


class Shape(namedtuple("Shape", "blocks")):
    __slots__ = ()
    blocks: tuple[ShapeBlock, ...]

    def __new__(cls, blocks):
        if not blocks:
            raise ValueError("shape needs at least one block")
        counts = {len(b.centers) for b in blocks}
        if len(counts) != 1:
            raise ValueError("blocks disagree on the number of places")
        self = tuple.__new__(cls, (blocks,))
        for v in range(self.places):
            # raises IrregularCharacterError when two strings collide
            total_infchar(self, v)
        return self

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


def is_gsk(x) -> bool:
    """Shapes with a length-1 block plus pairwise distinct longer simple blocks.

    Sorted by length, the first block must have d = 1 (any multiplicity); all
    remaining blocks need T = 1 and distinct lengths.
    """
    pairs = sorted(td_pairs(x), key=lambda td: td[1])
    ds = [d for _, d in pairs]
    return ds[0] == 1 and len(set(ds)) == len(ds) and all(t == 1 for t, _ in pairs[1:])


def is_odd_gsk(x) -> bool:
    """GSK with every block length odd."""
    pairs = td_pairs(x)
    return is_gsk(pairs) and all(d % 2 == 1 for _, d in pairs)


def sato_tate_group(shape: Shape) -> tuple[tuple[int, int], ...]:
    """One (T_i, 1) factor per block, read as U(T_i) x U(1)."""
    return tuple((b.T, 1) for b in shape.blocks)


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


def _chunkings(run2: tuple[int, ...], sub: tuple[int, ...]):
    """All orderings of sub chunk the run; yields ((length, doubled centre), ...)."""
    for arr in sorted(set(permutations(sub))):
        s = 0
        chunks = []
        for c in arr:
            chunks.append((c, (run2[s] + run2[s + c - 1]) // 2))
            s += c
        yield tuple(chunks)


def _place_centres(data: RunData, q_parts: tuple[int, ...], ds: list[int]):
    """The doubled centres per length d in ds, one grouping per placement of
    q_parts onto this place: the mixed blocks take their sums, and each run
    is cut into an ordering of the parts the distribution gives it.

    Each placement, as (length, doubled centre) pairs, must expand to the
    place's character: its doubled values c2 + d - 1 - 2l, l = 0..d-1,
    sorted, are the doubled character. A shape's blocks at this place are
    exactly one placement's pairs grouped by d, so this is the rebuild check
    of every shape here. Distinct placements give distinct groupings, since
    a chunk's (d, centre) fixes its values, so no grouping repeats.
    """
    leftover = Counter(q_parts)
    leftover.subtract(data.beta_plus)
    if any(k < 0 for k in leftover.values()):
        return []
    runs = data.p_runs + data.q_runs
    out = []
    for alloc in _distributions(+leftover, [len(r) for r in runs]):
        pools = [list(_chunkings(run2, sub)) for run2, sub in zip(runs, alloc)]
        for combo in product(*pools):
            assign = data.big + tuple(chain.from_iterable(combo))
            values = [v for d, c2 in assign for v in range(c2 + d - 1, c2 - d, -2)]
            values.sort(reverse=True)
            if tuple(values) != data.lam2:
                raise AssertionError("shape does not rebuild the character")
            out.append(
                tuple(
                    tuple(sorted((c2 for dd, c2 in assign if dd == d), reverse=True))
                    for d in ds
                )
            )
    return out


def _shape_from_key(key, halves: dict[int, Fraction]) -> Shape:
    """The shape of a key that `_place_centres` has proved, built unchecked.

    The rebuild check proved in ints that each place's blocks expand to its
    regular character, which is all `Shape.__new__` checks. As the
    doubled character strictly decreases, it also proves what
    `ShapeBlock.__new__` checks: T distinct centres per place, here
    sorted descending. So both records are made by `tuple.__new__`, which
    skips those checks and conversions. halves maps each doubled centre to
    its value, one shared `Fraction` per distinct centre.
    """
    blocks = tuple(
        tuple.__new__(
            ShapeBlock,
            (t, d, tuple(tuple(map(halves.__getitem__, p)) for p in centres), eta),
        )
        for d, t, eta, centres in key
    )
    return tuple.__new__(Shape, (blocks,))


class DeltaMax(namedtuple("DeltaMax", "candidates bound q_argmax shapes")):
    """The dominance decision for a representation, from `delta_max`."""

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


def delta_max(rep: GlobalRep) -> DeltaMax:
    """Candidates, bound, witness and dominant shapes as a `DeltaMax`.

    Splits each place into runs once, scores every common SL(2)-type with the
    refined growth bound, then expands each maximizer place by place. Shapes
    are keyed by (d, T, eta, doubled centres per place) per block, d
    descending; distinct keys are sorted and each is built once.
    """
    runs = [local_run_data(local) for local in rep.places]
    cands = common_candidates(runs)
    bound, q_argmax, tops = dominant(cands)
    keys = []
    centres = set()
    for q_parts in tops:
        mult = Counter(q_parts)
        ds = sorted(mult, reverse=True)
        head = [(d, mult[d], -1 if (rep.rank - d) % 2 else 1) for d in ds]
        pools = [_place_centres(data, q_parts, ds) for data in runs]
        for pool in pools:  # pool: groupings, each a tuple of centres per d
            centres.update(chain.from_iterable(chain.from_iterable(pool)))
        for combo in product(*pools):
            keys.append(
                tuple(
                    (d, t, eta, tuple(place[j] for place in combo))
                    for j, (d, t, eta) in enumerate(head)
                )
            )
    keys.sort()
    halves = {c2: Fraction(c2, 2) for c2 in centres}
    return DeltaMax(
        tuple(cands),
        bound,
        q_argmax,
        tuple(_shape_from_key(k, halves) for k in keys),
    )


# --- parity test over the odd GSK family ------------------------------------


def _stretch_q(rep: LocalRep, c: Fraction, d: int) -> int:
    """Second-coordinate weight of the length-d stretch centred at c.

    A stretch matching one mixed block exactly takes that block's q; a
    stretch made of degenerate-block values counts its (0,1) members;
    anything else is rejected.
    """
    top = c + Fraction(d - 1, 2)
    bottom = top - d + 1
    q = found = i = 0
    for x, y in rep.blocks:
        n = x + y
        first, last = rep.lam[i], rep.lam[i + n - 1]
        i += n
        # values stepping by 1 meet the stretch's top, top - 1, ..., bottom
        # when the ranges overlap and differ by an integer
        if last > top or first < bottom or (top - first).denominator > 1:
            continue
        if n == 1:
            q, found = q + y, found + 1
        elif first == top and n == d:
            return y
        else:
            raise ValueError("stretch straddles a nondegenerate block boundary")
    if found != d:
        raise ValueError("stretch values missing from the local character")
    return q


def _unramified_parity(rep: GlobalRep) -> int:
    """Parity of the everywhere-unramified exponent: n(n-1)/2 per place,
    plus every place's q."""
    n = rep.rank
    return ((n * (n - 1) // 2) * len(rep.places) + sum(r.q for r in rep.places)) % 2


def _place_parity(local: LocalRep, stretches, d: int, c2) -> int:
    """The parity a long block of length d and doubled centre c2 adds at one
    place: its position among the place's stretches, (length, doubled
    centre) pairs, by top value, plus its stretch's q, plus chi4(d)."""
    # the stretches whose doubled top c2' + d' is above its own
    above = sum(x2 + dd > c2 + d for dd, x2 in stretches)
    return (above + _stretch_q(local, Fraction(c2, 2), d) + chi4(d)) % 2


def odd_gsk_parity_test(rep: GlobalRep, shape: Shape) -> bool:
    """Vanishing test for odd-GSK shapes: every long block must accumulate an
    even sign exponent across the places, and the everywhere-unramified part
    must carry an even exponent too.

    At each place a long block adds `_place_parity`; the blocks are summed
    one at a time, and the first odd one decides.
    """
    if not is_odd_gsk(shape):
        raise ValueError("parity test only applies to odd GSK shapes")
    if shape.places != len(rep.places):
        raise ValueError("shape and representation disagree on places")
    if _unramified_parity(rep):
        return False
    stretches = [
        [(o.d, 2 * x) for o in shape.blocks for x in o.centers[v]]
        for v in range(shape.places)
    ]
    for b in (b for b in shape.blocks if b.d > 1):
        # a long block of a GSK shape has T = 1
        places = zip(rep.places, stretches, b.centers)
        if sum(_place_parity(r, s, b.d, 2 * c) for r, s, (c,) in places) % 2:
            return False
    return True


# --- JSON converters ---------------------------------------------------------


def shape_to_json(shape: Shape, texts: dict[int, str] | None = None) -> dict:
    """The shape as JSON, centres as text.

    texts maps id(centre) to the centre's text, so a centre object shared
    between shapes is formatted once; a caller that passes it keeps every
    shape alive while the dict is in use, so no id is reused.
    """
    if texts is None:
        texts = {}
    blocks = []
    for b in shape.blocks:
        places = []
        for place in b.centers:
            row = []
            for c in place:
                text = texts.get(id(c))
                if text is None:
                    text = texts[id(c)] = format_rational(c)
                row.append(text)
            places.append(row)
        blocks.append([b.T, b.d, places, b.eta])
    return {"blocks": blocks}
