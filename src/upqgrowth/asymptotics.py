"""Euler-type congruence factors and symbolic leading-term constants.

An ideal is a tuple of (q, e) pairs: residue size and exponent, one pair per
prime.  Gamma factors only see the residue sizes; norms see both.  Constants
that are not rational numbers (volume ratios) stay as symbol strings next to
the exact rational part.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import comb, log10, prod
from operator import index

from .cohomology import GlobalRep
from .growth import GrowthValue, td_pairs
from .infchar import format_rational, weyl_dim
from .shapes import _place_parity, _unramified_parity, dominant_placements
from .shapes import is_gsk, is_odd_gsk

Ideal = tuple[tuple[int, int], ...]


# the primes up to 41: below _MR_EXACT, a strong probable prime to every
# one of these bases is prime (the least composite one is _MR_EXACT)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int) -> bool:
    """Whether an odd n > 41 is a strong probable prime to every base in
    `_MR_BASES` (Miller-Rabin); below `_MR_EXACT`, whether it is prime."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(q: int, j: int) -> int:
    """floor(q^(1/j)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // j)
    while True:
        s = ((j - 1) * r + q // r ** (j - 1)) // j
        if s >= r:
            return r
        r = s


def _is_prime_power(q: int) -> bool:
    """Whether q >= 2 is p^e for a prime p and e >= 1; exact for
    q < `_MR_EXACT` (about 3.3 * 10^24), and never false for a prime power.

    A q with a prime factor p <= 41 is one when it is a power of p. Any
    other q below `_MR_EXACT` is one when its least integer root is prime,
    by Miller-Rabin on the primes up to 41, which is exact there. That
    root is at least 43, so it is a j-th root with 43^j <= q: q is replaced
    by its j-th root while it is a j-th power, and j moves on when it is
    none (a value that is no i-th power has no root that is one). From
    `_MR_EXACT` on, such a q passes unchecked, as a composite with no
    prime factor up to 41 would: the test would take seconds at the 4300
    digits that an int read from text may have.
    """
    for p in _MR_BASES:
        if not q % p:
            while not q % p:
                q //= p
            return q == 1
    if q >= _MR_EXACT:
        return True
    j = 2
    while 43**j <= q:
        r = _iroot(q, j)
        if r**j == q:
            q = r
        else:
            j += 1
    return q < 43 * 43 or _strong_probable_prime(q)


def _check_ideal(ideal) -> Ideal:
    out = tuple((index(q), index(e)) for q, e in ideal)
    if not out:
        raise ValueError("ideal needs at least one prime")
    for q, e in out:
        if q < 2 or e < 1:
            raise ValueError(f"invalid prime power ({q},{e})")
        if not _is_prime_power(q):
            raise ValueError(
                f"residue size {q} is not a prime power: no field has {q} "
                "elements"
            )
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
    n = index(n)
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
    n = index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    # read once: ideal_norm and gamma_factor both iterate it
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

    A dominant shape is one placement per place of the dominant type, both
    from `shapes.dominant_placements` as in `delta_max`, and it survives
    when the unramified exponent and every long block's exponent, a sum of
    one `_place_parity` per place, are even. So the places are folded one at
    a time, never their product: a table maps each vector of long-block
    parities (bit j for the j-th longest block) to the summed weight of the
    partial shapes that have it, and coeff is the entry at 0.

    No rep of one place up to rank 9, or of two places up to rank 5, at
    rho(n) reaches the refusal of two odd-GSK dominant types (each place of
    rank n a reduced bipartition; checked by the tests).
    """
    _, bound, _, placed = dominant_placements(rep)
    if not all(is_odd_gsk(pairs) for pairs, _ in placed):
        raise ValueError("dominant shapes are not all odd GSK")
    if len(placed) != 1:
        raise ValueError("dominant SL(2)-type is not unique")
    ((pairs, pools),) = placed
    ds = [d for _, d in pairs]
    # d descending: is_gsk puts the 1-block last, after the T = 1 long blocks
    t1, k = pairs[-1][0], len(pairs)
    size = packet_size(t1, convention, rep.rank)
    coeff = Fraction(0)
    if not _unramified_parity(rep):
        table = {0: Fraction(1)}
        for local, pool in zip(rep.places, pools):
            folded: Counter[int] = Counter()
            for placement in pool:
                stretches = [(d, c2) for d, cs in zip(ds, placement) for c2 in cs]
                bits = 0
                for j, (d, (c2,)) in enumerate(zip(ds, placement[:-1])):
                    bits |= _place_parity(local, stretches, d, c2) << j
                # texts c2/2, which weyl_dim reads as the ints c2: no Fraction
                weight = weyl_dim(tuple(f"{c2}/2" for c2 in placement[-1])) / size
                for key, x in table.items():
                    folded[key ^ bits] += x * weight
            table = folded
        coeff += table[0]
    return LeadingTerm(
        exponent=bound,
        indices=index_list(pairs),
        coeff=coeff,
        symbols=(f"VOL_RATIO(U({t1})xU(1)^{k - 1})",),
        zero=coeff == 0,
    )
