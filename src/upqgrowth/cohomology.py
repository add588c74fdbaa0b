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
from operator import le

from . import infchar, partitions
from .infchar import Character, as_character
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
    if any(map(le, twice, twice[1:])):
        lam = tuple(Fraction(v, 2) for v in twice)
        raise ValueError(f"character must be strictly decreasing: {lam}")
    if len(twice) != n:
        raise ValueError("character rank does not match signature")
    # regular integral: in Z for odd n and in Z + 1/2 for even n, so every
    # doubled value is an int of the parity of n - 1
    if any((v - n + 1) % 2 for v in twice):
        raise ValueError("infinitesimal character must be regular integral")
    # adapted: each block's values step by 1. The doubled values now
    # fall by an even amount of at least 2 at each step, so a block of
    # k values spans 2(k - 1) exactly when every step is 2.
    i = 0
    for x, y in blocks:
        k = x + y
        if twice[i] - twice[i + k - 1] != 2 * (k - 1):
            raise ValueError("character is not adapted to the bipartition")
        i += k


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
    lam = as_character(lam)
    if len(lam) != p + q:
        raise ValueError("character rank does not match signature")
    return [
        blocks
        for blocks in partitions.reduced_bipartitions(p, q)
        if infchar.is_adapted(lam, partitions.block_sums(blocks))
        and hodge_profile(blocks).contains_degree(degree)
    ]


# --- JSON converters -------------------------------------------------------


def _fraction_from_json(value) -> Fraction:
    """Fraction(value), with a text or Decimal of a huge exponent refused.

    A Decimal goes to Fraction as its text, whose digits int's limit of
    4300 bounds. A text is refused when its exponent in scientific notation
    is 4300 or more in size: the adjusted exponent of the Decimal before its
    last e or E, plus what follows that e read by int. Fraction would build
    10**exponent in full, for minutes at an exponent of 10**8, and no output
    could print a value of more than 4300 digits, such as 1 and 4298 zeros
    times 10**4299. Every other value goes to Fraction.
    """
    if isinstance(value, (str, Decimal)):
        value = str(value)
        head, e, tail = value.lower().rpartition("e")
        if not e:
            head, tail = tail, "0"
        try:
            size = abs(Decimal(head).adjusted() + int(tail))
        except (ArithmeticError, ValueError):  # no number: Fraction names it
            size = 0
        if size >= 4300:  # CPython's default limit on an int's text
            raise ValueError(
                "infchar entries take exponents below 4300 in scientific "
                "notation"
            )
    return Fraction(value)


def _doubled_from_json(value):
    r"""2 * value: an int when value is an integer or half-integer, else a
    Fraction. The ASCII texts -?\d+ and -?\d+/2, which cover every value
    of a regular integral character, and JSON integers are read by int, as
    Fraction reads them, and build no Fraction; any other value is read by
    `_fraction_from_json`."""
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        negative = num[:1] == "-"
        digits = num[negative:]
        if digits.isdigit() and (not slash or den == "2"):
            n = -int(digits) if negative else int(digits)
            return n if slash else 2 * n
    elif type(value) is int:
        return 2 * value
    x = _fraction_from_json(value)
    return x.numerator * 2 // x.denominator if x.denominator <= 2 else 2 * x


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
