"""Representation records and their Hodge-type cohomology profiles.

A LocalRep packages a signature (p, q), a reduced bipartition of it, and an
adapted regular integral infinitesimal character.  The cohomology profile of
a rep is determined by the bipartition alone:

* lowest degree  R      = p*q - sum(p_i * q_i)
* holomorphic shift R+  = sum over i < j of p_i * q_j
* antiholomorphic   R-  = sum over i > j of p_i * q_j
* nonzero degrees       = R + 2*t for 0 <= t <= sum(p_i * q_i)
* weight in degree R+2t = (R+ + t, R- + t)
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

from . import partitions
from .infchar import Character, _doubled_from_json, adapted2, check_decreasing
from .partitions import Bipartition


class LocalRep(namedtuple("LocalRep", "p q blocks lam2")):
    __slots__ = ()
    p: int
    q: int
    blocks: Bipartition
    lam2: tuple[int, ...]  # the character doubled: regular integral, so ints

    def __new__(cls, p, q, blocks, lam):
        if not isinstance(blocks, (list, tuple)):  # an iterator is read once
            blocks = tuple(blocks or ())
        twice = list(map(_doubled_from_json, lam))
        _check_blocks(p, q, blocks)
        _check_character(p + q, blocks, twice)
        # copied last, so a list is refused with the texts a tuple gets
        return tuple.__new__(cls, (p, q, tuple(map(tuple, blocks)), tuple(twice)))

    @property
    def lam(self) -> Character:
        return tuple(Fraction(v, 2) for v in self.lam2)

    @property
    def rank(self) -> int:
        return self.p + self.q


class GlobalRep(namedtuple("GlobalRep", "places")):
    __slots__ = ()
    places: tuple[LocalRep, ...]

    def __new__(cls, places):
        places = tuple(places or ())  # an iterator is read once
        if not places:
            raise ValueError("need at least one place")
        ranks = {r.rank for r in places}
        if len(ranks) != 1:
            raise ValueError(f"places have mixed ranks {sorted(ranks)}")
        return tuple.__new__(cls, (places,))

    @property
    def rank(self) -> int:
        return self.places[0].rank


def _check_blocks(p: int, q: int, blocks) -> None:
    """Refuse a bipartition that is not reduced or does not total (p, q)."""
    if not partitions.is_reduced(blocks):
        raise ValueError(f"bipartition {blocks} is not reduced")
    ps, qs = map(sum, zip(*blocks))
    if (ps, qs) != (p, q):
        raise ValueError(
            f"bipartition totals ({ps},{qs}) do not match signature ({p},{q})"
        )


def _check_character(n: int, blocks, twice: list) -> None:
    """Refuse a rank-n character, given by its `_doubled_from_json` values,
    that is not strictly decreasing, of n values, regular integral and
    adapted to the checked blocks, with the first of those texts that
    applies."""
    check_decreasing(twice)
    if len(twice) != n:
        raise ValueError("character rank does not match signature")
    # regular integral: in Z for odd n and in Z + 1/2 for even n, so every
    # doubled value is an int of the parity of n - 1
    if any((v - n + 1) % 2 for v in twice):
        raise ValueError("infinitesimal character must be regular integral")
    if not adapted2(twice, [x + y for x, y in blocks]):
        raise ValueError("character is not adapted to the bipartition")


class HodgeProfile(namedtuple("HodgeProfile", "lowest plus minus maxshift")):
    __slots__ = ()
    lowest: int
    plus: int
    minus: int
    maxshift: int

    @property
    def highest(self) -> int:
        return self.lowest + 2 * self.maxshift

    def contains_degree(self, degree: int) -> bool:
        off = degree - self.lowest
        return off >= 0 and off % 2 == 0 and off // 2 <= self.maxshift

    def weight_in_degree(self, degree: int) -> tuple[int, int]:
        if not self.contains_degree(degree):
            raise ValueError(f"no cohomology in degree {degree}")
        t = (degree - self.lowest) // 2
        return (self.plus + t, self.minus + t)


def hodge_profile(blocks: Bipartition) -> HodgeProfile:
    partitions.validate_bipartition(blocks)
    p = sum(x for x, _ in blocks)
    q = sum(y for _, y in blocks)
    cross = sum(x * y for x, y in blocks)
    plus = sum(
        blocks[i][0] * blocks[j][1]
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
    )
    minus = sum(
        blocks[i][0] * blocks[j][1]
        for i in range(len(blocks))
        for j in range(i)
    )
    return HodgeProfile(lowest=p * q - cross, plus=plus, minus=minus, maxshift=cross)


def lowest_degree(d: int, n: int, r: int) -> int:
    """Smallest cohomological degree over the rank-n family for length-d blocks.

    Requires d odd, 1 < d <= n, 0 <= r <= n/2.  The two regimes meet at
    r = (d-1)/2.
    """
    if d <= 1 or d % 2 == 0:
        raise ValueError("block length must be odd and > 1")
    if d > n:
        raise ValueError("block length exceeds rank")
    if r < 0 or 2 * r > n:
        raise ValueError("need 0 <= r <= n/2")
    if 2 * r >= d - 1:
        return r * (n - r) - (d * d - 1) // 4
    return r * (n - d)


def reps_in_degree(p: int, q: int, lam: Character, degree: int) -> list[Bipartition]:
    """Reduced bipartitions adapted to lam with cohomology in the given degree."""
    twice = list(map(_doubled_from_json, lam))
    check_decreasing(twice)
    if len(twice) != p + q:
        raise ValueError("character rank does not match signature")
    return [
        blocks
        for blocks in partitions.reduced_bipartitions(p, q)
        if adapted2(twice, partitions.block_sums(blocks))
        and hodge_profile(blocks).contains_degree(degree)
    ]


# --- JSON converters -------------------------------------------------------


# the JSON kind of each type json.load gives; the CLI reads JSON floats
# exactly, as Decimals
_KINDS = {
    dict: "object",
    list: "array",
    str: "string",
    type(None): "null",
    bool: "boolean",
    int: "integer",
    float: "float",
    Decimal: "float",
}


def _kind(value) -> str:
    """The JSON kind of value, or its type's name when it is no JSON value."""
    return _KINDS.get(type(value), type(value).__name__)


def _int_from_json(value, field: str) -> int:
    """value when it is a JSON integer: a float, bool or text is refused,
    where int would truncate 6.7 to 6 and read true as 1."""
    if type(value) is not int:
        raise ValueError(f"{field} entries must be integers, got {_kind(value)}")
    return value


# what a field that requires each container must be
_CONTAINERS = {list: "an array", dict: "an object"}


def _container_from_json(value, kind: type, field: str):
    """value when it is a JSON array (kind list) or object (kind dict):
    anything else is refused, where iterating a text or an object would read
    its characters or its keys as the entries, and reading a field of a
    text or an array would fail with a message that names none."""
    if type(value) is not kind:
        raise ValueError(f"{field} must be {_CONTAINERS[kind]}, got {_kind(value)}")
    return value


def _pair_from_json(value, field: str) -> list:
    """value when it is a JSON array of 2 entries: another length is
    refused, where unpacking would fail with a message that names none."""
    value = _container_from_json(value, list, field)
    if len(value) != 2:
        raise ValueError(f"{field} must have 2 entries, got {len(value)}")
    return value


def local_rep_from_json(data: dict) -> LocalRep:
    """The place data holds: its fields' structure is checked here, and its
    values and their checks are left to `LocalRep`."""
    data = _container_from_json(data, dict, "each place")
    for field in ("signature", "bipartition", "infchar"):
        if field not in data:  # the KeyError would print only the name
            raise ValueError(f'missing field "{field}"')
    signature = _pair_from_json(data["signature"], "signature")
    p, q = (_int_from_json(v, "signature") for v in signature)
    blocks = []
    for entry in _container_from_json(data["bipartition"], list, "bipartition"):
        x, y = _pair_from_json(entry, "each bipartition entry")
        blocks.append(
            (_int_from_json(x, "bipartition"), _int_from_json(y, "bipartition"))
        )
    infchar = _container_from_json(data["infchar"], list, "infchar")
    if any(type(s) is bool for s in infchar):
        # Fraction would read true as 1
        raise ValueError("infchar entries must be numbers, got boolean")
    return LocalRep(p, q, tuple(blocks), infchar)


def global_rep_from_json(data: dict) -> GlobalRep:
    data = _container_from_json(data, dict, "the representation")
    if "places" in data:
        places = _container_from_json(data["places"], list, "places")
        places = tuple(map(local_rep_from_json, places))
    else:
        places = (local_rep_from_json(data),)
    return GlobalRep(places=places)
