"""Infinitesimal-character arithmetic.

Characters of rank n are strictly decreasing tuples of Fractions.  The
regular integral ones live in Z for odd n and in Z + 1/2 for even n.  A
character is adapted to an ordered partition if each consecutive segment is
an arithmetic progression with step -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .partitions import validate_partition

Character = tuple[Fraction, ...]


class IrregularCharacterError(ValueError):
    """Raised when combining block characters produces a repeated entry."""


def as_character(values) -> Character:
    out = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
    if any(a <= b for a, b in zip(out, out[1:])):
        raise ValueError(f"character must be strictly decreasing: {out}")
    return out


def rho(n: int) -> Character:
    """The standard half-sum character ((n-1)/2, (n-3)/2, ..., -(n-1)/2)."""
    if n < 1:
        raise ValueError("rank must be positive")
    return tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n))


def is_adapted(lam: Character, parts: tuple[int, ...]) -> bool:
    """True when lam, cut into consecutive segments of the lengths in parts,
    steps by -1 within every segment."""
    try:
        validate_partition(parts)
        lam = as_character(lam)
    except ValueError:
        return False
    if sum(parts) != len(lam):
        return False
    i = 0
    for n in parts:
        seg = lam[i : i + n]
        i += n
        if any(a - b != 1 for a, b in zip(seg, seg[1:])):
            return False
    return True


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


def weyl_dim(lam: Character) -> Fraction:
    """Dimension of the irreducible with infinitesimal character lam.

    Product over i < j of (lam_i - lam_j) / (j - i); equals 1 on rho(n).
    """
    lam = as_character(lam)
    n = len(lam)
    num = prod(
        lam[i] - lam[j] for i in range(n) for j in range(i + 1, n)
    )
    den = prod(j - i for i in range(n) for j in range(i + 1, n))
    return Fraction(num) / den if n > 1 else Fraction(1)


def format_rational(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
