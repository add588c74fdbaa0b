"""Euler-type congruence factors and symbolic leading-term constants.

An ideal is a tuple of (q, e) pairs: residue size and exponent, one pair per
prime.  Gamma factors only see the residue sizes; norms see both.  Constants
that are not rational numbers (volume ratios) stay as symbol strings next to
the exact rational part.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, log10, prod
from operator import index

from .cohomology import GlobalRep
from .growth import GrowthValue, td_pairs
from .infchar import format_rational, weyl_dim
from .shapes import (
    delta_max,
    is_gsk,
    is_odd_gsk,
    odd_gsk_parity_test,
    sl2_partition,
)

Ideal = tuple[tuple[int, int], ...]


def _check_ideal(ideal) -> Ideal:
    out = tuple((index(q), index(e)) for q, e in ideal)
    if not out:
        raise ValueError("ideal needs at least one prime")
    for q, e in out:
        if q < 2 or e < 1:
            raise ValueError(f"invalid prime power ({q},{e})")
    return out


def ideal_norm(ideal) -> int:
    ideal = _check_ideal(ideal)
    return prod(q**e for q, e in ideal)


def gamma_factor(ns, ideal) -> Fraction:
    """Product over primes and indices of (1 - q^-i), i = 1..n.

    A negative index n flips the sign: (1 + q^-i), i = 1..-n.  Index 0
    contributes nothing.
    """
    ideal = _check_ideal(ideal)
    ns = tuple(map(index, ns))
    value = Fraction(1)
    for q, _ in ideal:
        for n in ns:
            sign = 1 if n < 0 else -1
            for i in range(1, abs(n) + 1):
                value *= 1 + sign * Fraction(1, q**i)
    return value


def euler_digits(ns, ideal, n: int = 0) -> int:
    """An upper bound on the digits of gamma_factor(ns, ideal) * norm^(n^2).

    Read from the exponents alone, before any product: each prime q and
    index m put at most |m|(|m|+1)/2 log10 q + |m| log10(1 + 1/q) digits
    into a numerator or denominator (the factors (q^i +- 1)/q^i), and the
    norm^(n^2) of a congruence index adds n^2 e log10 q per prime power
    q^e. So index_congruence(n, ideal) has at most euler_digits((n,), ideal,
    n). Each logarithm is rounded up to a multiple of 2^-32 and the sum is
    taken in ints, so no exponent is too large for it.
    """
    ideal = _check_ideal(ideal)
    ms = [abs(index(m)) for m in ns]
    total = 0
    for q, e in ideal:
        log_q = int(log10(q) * 2**32) + 1
        log_step = int(log10(1 + 1 / q) * 2**32) + 1
        total += (sum(m * (m + 1) // 2 for m in ms) + n * n * e) * log_q
        total += sum(ms) * log_step
    return (total >> 32) + 1


def index_congruence(n: int, ideal) -> Fraction:
    """|ideal|^(n^2) * Gamma_n(ideal); the congruence-subgroup index scale.

    For a single (q, 1) prime this is the order of GL_n over the size-q
    field.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ideal = _check_ideal(ideal)
    return ideal_norm(ideal) ** (n * n) * gamma_factor((n,), ideal)


def index_list(shape) -> tuple[int, ...]:
    """Gamma indices (T1, 1^(k-1), -1^(k-1)) of a GSK shape."""
    if not is_gsk(shape):
        raise ValueError("index list only defined for GSK shapes")
    pairs = sorted(td_pairs(shape), key=lambda td: td[1])
    t1 = pairs[0][0]
    k = len(pairs)
    return (t1,) + (1,) * (k - 1) + (-1,) * (k - 1)


def packet_size(t: int, convention: str = "binom", ambient: int | None = None) -> int:
    """Number of members dividing a discrete-series contribution.

    "binom" counts the T-choose-floor(T/2) members of a rank-T packet;
    "example1" uses the ambient rank instead.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if convention == "binom":
        return comb(t, t // 2)
    if convention == "example1":
        if ambient is None or ambient < 1:
            raise ValueError("ambient rank required for the example1 convention")
        return ambient
    raise ValueError(f"unknown packet-size convention {convention!r}")


class LeadingTerm(
    namedtuple("LeadingTerm", "exponent indices coeff symbols zero")
):
    __slots__ = ()
    exponent: GrowthValue
    indices: tuple[int, ...]
    coeff: Fraction
    symbols: tuple[str, ...]
    zero: bool

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent.to_json(),
            "L": list(self.indices),
            "coeff": format_rational(self.coeff),
            "symbols": list(self.symbols),
            "zero": self.zero,
        }


def leading_term(rep: GlobalRep, convention: str = "binom") -> LeadingTerm:
    """Exact main-term data for the dominant odd-GSK shapes of a rep.

    The count in question grows like coeff * VOL * norm^exponent *
    Gamma_L(ideal); coeff sums the parity-surviving dominant shapes, each
    contributing its rank-1 block dimension over the packet size at every
    place.
    """
    result = delta_max(rep)
    shapes = result.shapes
    if not all(is_odd_gsk(s) for s in shapes):
        raise ValueError("dominant shapes are not all odd GSK")
    types = {sl2_partition(s) for s in shapes}
    if len(types) != 1:
        raise ValueError("dominant SL(2)-type is not unique")
    sample = shapes[0]
    pairs = sorted(td_pairs(sample), key=lambda td: td[1])
    t1, k = pairs[0][0], len(pairs)
    coeff = Fraction(0)
    size = packet_size(t1, convention, rep.rank)
    for s in shapes:
        if not odd_gsk_parity_test(rep, s):
            continue
        block1 = next((b for b in s.blocks if b.d == 1), None)
        if block1 is None:
            raise AssertionError("odd GSK shape has no block of size 1")
        term = Fraction(1)
        for v in range(s.places):
            term *= Fraction(weyl_dim(block1.centers[v]), size)
        coeff += term
    symbols = (f"VOL_RATIO(U({t1})xU(1)^{k - 1})",)
    return LeadingTerm(
        exponent=result.bound,
        indices=index_list(sample),
        coeff=coeff,
        symbols=symbols,
        zero=coeff == 0,
    )
