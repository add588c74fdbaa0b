"""Infinitesimal-character arithmetic.

A character of rank n is a strictly decreasing tuple of n values.  The
regular integral ones live in Z for odd n and in Z + 1/2 for even n, so
doubled they are ints, the form `cohomology.LocalRep` and the shape records
store.  A character is adapted to an ordered partition if each consecutive
segment is an arithmetic progression with step -1: -2, doubled.

This module is the one reader and checker of character values: each value
is doubled by `_doubled_from_json`, a non-decreasing character is refused by
`check_decreasing`, and adaptedness is decided by `adapted2`, all on the
doubled values.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import prod
from operator import le, sub

Character = tuple[Fraction, ...]


class IrregularCharacterError(ValueError):
    """Raised when combining block characters produces a repeated entry."""


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


def check_decreasing(twice) -> None:
    """Refuse a character, given by its `_doubled_from_json` values, that is
    not strictly decreasing."""
    if any(map(le, twice, twice[1:])):
        lam = tuple(Fraction(v, 2) for v in twice)
        raise ValueError(f"character must be strictly decreasing: {lam}")


def adapted2(twice, parts) -> bool:
    """Whether the doubled values twice, cut into consecutive segments of
    the positive lengths in parts, fall by exactly 2 at each step within
    every segment and fill them: the character they double is adapted to
    parts. The step after each segment is free, so it is set to 2."""
    steps = list(map(sub, twice, twice[1:]))
    i = -1
    for k in parts:
        i += k
        if i < len(steps):
            steps[i] = 2
    return i == len(steps) and steps.count(2) == i


def rho(n: int) -> Character:
    """The standard half-sum character ((n-1)/2, (n-3)/2, ..., -(n-1)/2)."""
    if n < 1:
        raise ValueError("rank must be positive")
    return tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n))


def total_character(blocks) -> Character:
    """Merge block expansions (xi, d) into one strictly decreasing character.

    Each block gives xi + (d+1)/2 - l, l = 1..d, and the values are sorted
    as Fractions. Raises IrregularCharacterError when two expansions
    collide.
    """
    pairs: list[tuple[Fraction, int]] = []
    for xi, d in blocks:
        xi = Fraction(xi)
        if d < 1:
            raise ValueError("block length must be positive")
        pairs.append((xi, d))
    values = [xi + Fraction(d + 1, 2) - l for xi, d in pairs for l in range(1, d + 1)]
    values.sort(reverse=True)
    for a, b in zip(values, values[1:]):
        if a == b:
            raise IrregularCharacterError(f"total character has a repeated entry {a}")
    return tuple(values)


def weyl_dim(lam) -> Fraction:
    """Dimension of the irreducible with infinitesimal character lam.

    Product over i < j of (lam_i - lam_j) / (j - i); equals 1 on rho(n).
    Taken on the doubled values, so each pair's difference is halved once,
    in the denominator.
    """
    twice = list(map(_doubled_from_json, lam))
    check_decreasing(twice)
    pairs = [(i, j) for j in range(len(twice)) for i in range(j)]
    num = prod(twice[i] - twice[j] for i, j in pairs)
    return Fraction(num, prod(j - i for i, j in pairs) << len(pairs))


def format_rational(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
