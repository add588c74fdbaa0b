"""SL(2)-shape combinatorics for cohomological representations.

A shape is a list of blocks (T, d, centers, eta): T copies of a length-d
string, with T distinct center values per archimedean place and a sign eta.
The blocks expand place by place to a regular total character. Its centres
are integers or half-integers, so a block stores them doubled, as ints.

Given a global representation, `growth` finds the partitions of the rank
that every place's cohomological archimedean data allows as SL(2)-type, and
which of them dominate; `dominant_placements` places those once for both
`delta_max`, which builds their shapes, and `asymptotics.leading_term`.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from itertools import chain, permutations, product
from operator import index, itemgetter, le

from .cohomology import GlobalRep, LocalRep
from .growth import GrowthValue, RunData, common_candidates, dominant, td_pairs
# the benchmark traces these two by their names in this module
from .growth import local_run_data, sl2_candidates
from .infchar import IrregularCharacterError, _doubled_from_json, format_rational
from .packets import chi4
from .partitions import partitions_of


class ShapeBlock(namedtuple("ShapeBlock", "T d centers2 eta")):
    __slots__ = ()
    T: int
    d: int
    centers2: tuple[tuple[int, ...], ...]  # T doubled centres per place
    eta: int

    def __new__(cls, T, d, centers, eta):
        T, d, eta = index(T), index(d), index(eta)
        if T < 1 or d < 1:
            raise ValueError("block multiplicities and lengths must be positive")
        if eta not in (1, -1):
            raise ValueError("eta must be +1 or -1")
        # each centre read as LocalRep reads its character
        cs = tuple(tuple(map(_doubled_from_json, place)) for place in centers)
        if not cs:
            raise ValueError("need at least one place")
        for place in cs:
            if len(place) != T:
                raise ValueError(
                    f"block of multiplicity {T} needs {T} centers "
                    f"per place, got {len(place)}"
                )
            if any(map(le, place, place[1:])):
                raise ValueError("centers must be strictly decreasing")
        # last, so a block refused before this check keeps its text
        if any(type(c) is not int for c in chain.from_iterable(cs)):
            raise ValueError("centers must be integers or half-integers")
        return tuple.__new__(cls, (T, d, cs, eta))


class Shape(namedtuple("Shape", "blocks")):
    __slots__ = ()
    blocks: tuple[ShapeBlock, ...]

    def __new__(cls, blocks):
        blocks = tuple(blocks or ())  # an iterator is read once
        if not blocks:
            raise ValueError("shape needs at least one block")
        counts = {len(b.centers2) for b in blocks}
        if len(counts) != 1:
            raise ValueError("blocks disagree on the number of places")
        for v in range(counts.pop()):
            # the place's character, doubled: c2 + d - 1 - 2l, l = 0..d-1,
            # per string; two strings collide at a repeated value
            values = [
                c2 + b.d - 1 - 2 * l
                for b in blocks
                for c2 in b.centers2[v]
                for l in range(b.d)
            ]
            values.sort(reverse=True)
            for x, y in zip(values, values[1:]):
                if x == y:
                    raise IrregularCharacterError(
                        f"total character has a repeated entry {_half_text(x)}"
                    )
        return tuple.__new__(cls, (blocks,))

    @property
    def places(self) -> int:
        return len(self.blocks[0].centers2)

    @property
    def rank(self) -> int:
        return sum(b.T * b.d for b in self.blocks)


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


def _distributions(leftover: dict[int, int], run_lengths: list[int]):
    """Ways to split the leftover multiset, a dict of part counts, into one
    sub-multiset per run, each summing to the run length: per run, the
    partitions of its length that the leftover still holds, in
    `partitions_of` order.

    The walk takes each split's parts out of one dict of counts and puts
    them back after its tails, so no multiset is built per split. Parts
    that do not sum to the runs' total split nowhere; parts that do are
    all used once every run is split.
    """
    counts = {v: m for v, m in leftover.items() if m > 0}
    if sum(v * m for v, m in counts.items()) != sum(run_lengths):
        return
    pools = [partitions_of(n) for n in run_lengths]
    split: list[tuple[int, ...]] = []

    def walk(i):
        if i == len(pools):
            yield split[:]
            return
        for sub in pools[i]:
            taken = 0
            for v in sub:
                m = counts.get(v)
                if not m:
                    break
                counts[v] = m - 1
                taken += 1
            else:
                split.append(sub)
                yield from walk(i + 1)
                split.pop()
            for v in sub[:taken]:
                counts[v] += 1

    yield from walk(0)


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
    sorted, are the doubled character lam2. As lam2 strictly decreases in
    steps of 2 or more (its values share one parity), that holds exactly
    when the chunks, by centre descending, tile it: a chunk starting at
    index i has lam2[i] = c2 + d - 1 and lam2[i + d - 1] = c2 - d + 1, the
    next starts at i + d, and the last ends at len(lam2). A shape's blocks
    here are one placement's pairs grouped by d, so this is the rebuild
    check of every shape, and the walk gives each d's centres descending.
    A chunk's (d, centre) fixes its values, so no grouping repeats.
    """
    leftover: dict[int, int] = {}
    for v in q_parts:
        leftover[v] = leftover.get(v, 0) + 1
    for v in data.beta_plus:
        if not leftover.get(v):
            return []
        leftover[v] -= 1
    runs = data.p_runs + data.q_runs
    lam2 = data.lam2
    n = len(lam2)
    out = []
    for alloc in _distributions(leftover, [len(r) for r in runs]):
        pools = [list(_chunkings(run2, sub)) for run2, sub in zip(runs, alloc)]
        for combo in product(*pools):
            centres: dict[int, list[int]] = {d: [] for d in ds}
            chunks = sorted(chain(data.big, *combo), key=itemgetter(1), reverse=True)
            i = 0
            for d, c2 in chunks:
                j = i + d - 1
                if j >= n or lam2[i] != c2 + d - 1 or lam2[j] != c2 - d + 1:
                    raise AssertionError("shape does not rebuild the character")
                centres[d].append(c2)
                i = j + 1
            if i != n:
                raise AssertionError("shape does not rebuild the character")
            out.append(tuple(map(tuple, centres.values())))
    return out


def _shapes_from_keys(keys) -> tuple[Shape, ...]:
    """The shapes of keys that `_place_centres` has proved, built unchecked.

    The tiling check proved that each place's blocks expand to its regular
    character, which is all `Shape.__new__` checks. As the doubled
    character strictly decreases, it also proves what `ShapeBlock.__new__`
    checks: T distinct centres per place, ints, here sorted descending. So
    both records are made by `tuple.__new__`, which skips those checks. A
    key's rows of doubled centres are the block's `centers2`, and each
    distinct (d, T, eta, rows) entry of the keys becomes one `ShapeBlock`,
    which every shape with that entry shares.
    """
    blocks = {}
    for entry in set(chain.from_iterable(keys)):
        d, t, eta, centres = entry
        blocks[entry] = tuple.__new__(ShapeBlock, (t, d, centres, eta))
    return tuple(
        tuple.__new__(Shape, (tuple(map(blocks.__getitem__, key)),)) for key in keys
    )


class DeltaMax(namedtuple("DeltaMax", "candidates bound q_argmax shapes")):
    """The dominance decision for a representation, from `delta_max`."""

    __slots__ = ()
    candidates: tuple[tuple[int, ...], ...]  # common SL(2)-types, descending
    bound: GrowthValue  # their top refined score
    q_argmax: tuple[int, ...]  # the lexicographically smallest maximizer
    shapes: tuple[Shape, ...]  # every shape realizing a maximizer

    def to_text(self) -> str:
        """The record's JSON text, as json.dumps(obj, sort_keys=True,
        indent=2) prints its `to_json()`: its bound, candidates and witness,
        and each shape's blocks, written at fixed indents, with no dict
        built and no type looked at. A record from `delta_max` has no empty
        list, as a common type has a grouping at every place and the rank
        is at least 1; an empty one prints as a bracket pair around a blank
        line, which json reads as []. It stays beside json.dumps, which runs
        CPython's pure-Python encoder with an indent: on
        tests/data/wide12_rep.json it takes 0.04-0.11 ms, against
        0.33-0.42 ms for json.dumps of `to_json()`'s dict, in a command of
        0.38-0.43 ms (in process, 2-vCPU Xeon, Python 3.11.7).
        """
        bound = self.bound
        candidates = f",{_NL4}".join(_int_list(q, _NL4, _NL6) for q in self.candidates)
        return (
            f'{{{_NL2}"bound": {{{_NL4}"eps": {bound.eps},{_NL4}"main": '
            f'"{format_rational(bound.main)}"{_NL2}}},{_NL2}"candidates": '
            f'[{_NL4}{candidates}{_NL2}],{_NL2}"q_argmax": '
            f'{_int_list(self.q_argmax, _NL2, _NL4)},{_NL2}"shapes": '
            f'[{_NL4}' + f",{_NL4}".join(_shape_texts(self.shapes)) + f"{_NL2}]\n}}"
        )

    def to_json(self) -> dict:
        """The record as a dict with sorted keys, read back from `to_text`."""
        return json.loads(self.to_text())


def dominant_placements(rep: GlobalRep):
    """(candidates, bound, q_argmax, placed): the one dominance decision,
    runs per place, common SL(2)-types and one `dominant` pass, shared by
    `delta_max` and `leading_term`. placed holds, per maximizer in candidate
    order, its (T, d) pairs, d descending, and per place its
    `_place_centres` groupings; every place has one at least, as a common
    type is the place's beta_plus plus one partition per run, and a place
    with none raises AssertionError."""
    runs = [local_run_data(local) for local in rep.places]
    cands = common_candidates(runs)
    bound, q_argmax, tops = dominant(cands)
    placed = []
    for q_parts in tops:
        mult = Counter(q_parts)
        ds = sorted(mult, reverse=True)
        pools = [_place_centres(data, q_parts, ds) for data in runs]
        if not all(pools):
            raise AssertionError(f"a place has no grouping of {q_parts}")
        placed.append((tuple((mult[d], d) for d in ds), pools))
    return tuple(cands), bound, q_argmax, placed


def delta_max(rep: GlobalRep) -> DeltaMax:
    """Candidates, bound, witness and dominant shapes as a `DeltaMax`.

    A shape takes one of `dominant_placements`' groupings per place. Shapes
    are keyed by (d, T, eta, doubled centres per place) per block, d
    descending; distinct keys are sorted and each is built once, by
    `_shapes_from_keys`.
    """
    cands, bound, q_argmax, placed = dominant_placements(rep)
    keys = []
    for pairs, pools in placed:
        ts, ds = zip(*pairs)
        etas = [-1 if (rep.rank - d) % 2 else 1 for d in ds]
        # pool: groupings, each a tuple of centres per d; a combination
        # transposed gives each block's centres per place
        keys.extend(tuple(zip(ds, ts, etas, zip(*combo))) for combo in product(*pools))
    keys.sort()
    return DeltaMax(cands, bound, q_argmax, _shapes_from_keys(keys))


# --- parity test over the odd GSK family ------------------------------------


def _stretch_q(rep: LocalRep, c2: int, d: int) -> int:
    """Second-coordinate weight of the length-d stretch of doubled centre c2.

    A stretch matching one mixed block exactly takes that block's q; a
    stretch made of degenerate-block values counts its (0,1) members;
    anything else is rejected.
    """
    top, bottom = c2 + d - 1, c2 - d + 1  # doubled, as is every value here
    q = found = i = 0
    for x, y in rep.blocks:
        n = x + y
        first, last = rep.lam2[i], rep.lam2[i + n - 1]
        i += n
        # values stepping by 1 meet the stretch's top, top - 1, ..., bottom
        # when the ranges overlap and differ by an integer: an even number,
        # doubled
        if last > top or first < bottom or (top - first) % 2:
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


def _place_parity(local: LocalRep, stretches, d: int, c2: int) -> int:
    """The parity a long block of length d and doubled centre c2 adds at one
    place: its position among the place's stretches, (length, doubled
    centre) pairs, by top value, plus its stretch's q, plus chi4(d)."""
    # the stretches whose doubled top c2' + d' is above its own
    above = sum(x2 + dd > c2 + d for dd, x2 in stretches)
    return (above + _stretch_q(local, c2, d) + chi4(d)) % 2


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
        [(o.d, c2) for o in shape.blocks for c2 in o.centers2[v]]
        for v in range(shape.places)
    ]
    for b in (b for b in shape.blocks if b.d > 1):
        # a long block of a GSK shape has T = 1
        places = zip(rep.places, stretches, b.centers2)
        if sum(_place_parity(r, s, b.d, c2) for r, s, (c2,) in places) % 2:
            return False
    return True


# --- JSON text ---------------------------------------------------------------

# the line breaks of a delta-max record, each with the indent of its depth
_NL2, _NL4, _NL6, _NL8, _NL10, _NL12, _NL14 = ("\n" + " " * n for n in range(2, 16, 2))
# the separators of list items at the indents of blocks, rows and centres
_SEP8, _SEP12, _SEP14 = f",{_NL8}", f",{_NL12}", f",{_NL14}"


def _int_list(row, pad: str, inner: str) -> str:
    """The text of a list of ints: its items at the indent inner, its
    closing bracket at the indent pad."""
    return f"[{inner}" + f",{inner}".join(map(int.__repr__, row)) + f"{pad}]"


def _half_text(c2: int) -> str:
    """The text of the half-integer c2 / 2, as `format_rational` prints it."""
    return str(c2 // 2) if c2 % 2 == 0 else f"{c2}/2"


def _shape_texts(shapes):
    """Each shape's text at its indent in a delta-max record.

    A centre's text is the `_half_text` of its doubled int in quotes, which
    json's escaper leaves as it is. Each distinct row of a place's centres
    is formatted once, and so is each `ShapeBlock` object, which the shapes
    of a `delta_max` record share per distinct block; the caller keeps the
    shapes alive, so no id is reused while the texts are written.
    """
    rows: dict[tuple[int, ...], str] = {}
    blocks: dict[int, str] = {}

    def row(place) -> str:
        text = rows.get(place)
        if text is None:
            items = _SEP14.join([f'"{_half_text(c2)}"' for c2 in place])
            text = rows[place] = f"[{_NL14}{items}{_NL12}]"
        return text

    def block(b) -> str:
        text = blocks.get(id(b))
        if text is None:
            text = blocks[id(b)] = (
                f"[{_NL10}{b.T},{_NL10}{b.d},{_NL10}[{_NL12}"
                f"{_SEP12.join(map(row, b.centers2))}{_NL10}],{_NL10}{b.eta}{_NL8}]"
            )
        return text

    return (
        f'{{{_NL6}"blocks": [{_NL8}{_SEP8.join(map(block, s.blocks))}{_NL6}]{_NL4}}}'
        for s in shapes
    )


def shape_to_json(shape: Shape) -> dict:
    """The shape as JSON, centres as text: its `_shape_texts` text read
    back."""
    return json.loads(*_shape_texts((shape,)))
