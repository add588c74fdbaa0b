"""Density-style integrability exponents and the verification sweeps.

For a partition Q of N the balanced bipartition gives an exponent profile;
its partial sums against i*(N-i) produce the integrability ratio, the
density goal (N^2-1)*(1 - ratio), and the provable/conjectural growth rows.

The verify_* functions sweep stated inequality families and return
certificates listing every violation instead of raising.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate, chain
from operator import add, gt, index

from .growth import (
    GrowthValue,
    _best_merge,
    _conjectural_term,
    _naive_term,
    _refined_term,
    extra_tops,
    floor_below,
    grouping_score,
    pack,
    partition_bound,
    split_tables,
)
from .infchar import format_rational
from .partitions import (
    Bipartition,
    partitions_of,
    validate_bipartition,
    validate_partition,
)


def exponent_profile(blocks: Bipartition) -> tuple[int, ...]:
    """Decay exponents n_i - 1, n_i - 3, ... down min(p_i, q_i) steps."""
    validate_bipartition(blocks)
    out: list[int] = []
    for x, y in blocks:
        n, m = x + y, min(x, y)
        out.extend(n - 1 - 2 * j for j in range(m))
    return tuple(sorted(out, reverse=True))


def profile_sum(profile, i: int) -> int:
    """Sum of the i largest profile entries, padding with zeros."""
    if i < 0:
        raise ValueError("need i >= 0")
    ordered = sorted(profile, reverse=True)
    return sum(ordered[:i])


def _part_profile(m: int) -> range:
    """m - 1, m - 3, ... down m // 2 steps: the profile of the balanced block
    ((m+1)//2, m//2) of a part m in `exponent_profile`."""
    return range(m - 1, 0, -2)


def _pair_weights(n: int):
    """An iterator of i*(n-i) for 0 <= i <= n/2, the denominators of
    `_top_ratio`: the sums of the i largest entries of `_part_profile(n)`."""
    return accumulate(_part_profile(n), initial=0)


def _profile_prefix(parts) -> list[int]:
    """[sigma_0, ..., sigma_N] for a partition of N: sigma_i is the sum of the
    i largest entries of its balanced exponent profile, zero-padded like
    `profile_sum`."""
    profile = sorted(chain.from_iterable(map(_part_profile, parts)), reverse=True)
    sigma = [0, *accumulate(profile)]
    sigma += [sigma[-1]] * (sum(parts) + 1 - len(sigma))
    return sigma


def _top_ratio(sigma: list[int], weights) -> tuple[int, int]:
    """The top sigma_i / (i*(n-i)) over 1 <= i <= n/2 as an unreduced
    (num, den), given `weights` = `_pair_weights(n)`; (0, 1) when n = 1.
    The weight 0 at i = 0 never wins."""
    num, den = 0, 1
    for s, t in zip(sigma, weights):
        if s * den > num * t:
            num, den = s, t
    return num, den


def max_ratio(parts) -> Fraction:
    """max over 1 <= i <= N/2 of sigma_i / (i*(N-i)) at the balanced profile."""
    parts = tuple(sorted(map(index, parts), reverse=True))
    validate_partition(parts)
    sigma = _profile_prefix(parts)
    return Fraction(*_top_ratio(sigma, _pair_weights(sum(parts))))


def integrability_bound(parts) -> Fraction:
    """Lower bound for 2/p integrability: 1 - max_ratio."""
    return 1 - max_ratio(parts)


def qd(n: int, d: int) -> tuple[int, ...]:
    """d repeated floor(n/d) times plus the remainder, zero dropped."""
    if d < 1 or n < d:
        raise ValueError("need 1 <= d <= n")
    k, r = divmod(n, d)
    return (d,) * k + ((r,) if r else ())


def qd_prime(n: int, d: int) -> tuple[int, ...]:
    """The secondary extremal partition; defined for n >= 2d.

    One d is broken off: remainder class -1 mod d gives two d-1 parts and a
    1, anything else gives d-1 and the boosted remainder.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if n < 2 * d:
        raise ValueError("need n >= 2d")
    k, r = divmod(n, d)
    if r == d - 1:
        return (d,) * (k - 1) + (d - 1, d - 1, 1)
    return (d,) * (k - 1) + (d - 1, r + 1)


def one_merge_coarsenings(parts) -> list[tuple[int, ...]]:
    """Partitions reachable by merging only the size-1 parts; includes parts."""
    parts = tuple(sorted(map(index, parts), reverse=True))
    validate_partition(parts)
    ones = sum(1 for v in parts if v == 1)
    base = tuple(v for v in parts if v > 1)
    out = {
        tuple(sorted(base + extra, reverse=True))
        for extra in partitions_of(ones)
    }
    return sorted(out, reverse=True)


class DensityRow(
    namedtuple(
        "DensityRow",
        "q provable conjectural sx_goal trivial provable_at_coarsening "
        "conjectural_at_coarsening exceeds_goal",
    )
):
    __slots__ = ()
    q: tuple[int, ...]
    provable: GrowthValue
    conjectural: GrowthValue
    sx_goal: Fraction
    trivial: int
    provable_at_coarsening: bool
    conjectural_at_coarsening: bool
    exceeds_goal: bool

    def to_json(self) -> dict:
        return {
            "q": list(self.q),
            "provable": self.provable.to_json(),
            "conjectural": self.conjectural.to_json(),
            "sx_goal": format_rational(self.sx_goal),
            "trivial": self.trivial,
            "provable_at_coarsening": self.provable_at_coarsening,
            "conjectural_at_coarsening": self.conjectural_at_coarsening,
            "exceeds_goal": self.exceeds_goal,
        }


def sx_row(parts) -> DensityRow:
    """Provable and conjectural growth exponents for a partition row.

    Both exponents take the max over the one-merge coarsenings: size-1 parts
    can recombine, so the bound must cover every recombination. The maxima
    come from `growth._best_merge` without listing the coarsenings, one
    knapsack per term, which also scores the row as it is; the italic flags
    compare those packed ints. The goal is (N^2 - 1)(1 - ratio) at the top
    ratio of `_top_ratio`.
    """
    q = tuple(sorted(map(index, parts), reverse=True))
    validate_partition(q)
    n = sum(q)
    k = n + 1
    base = Counter(q)
    sigma = _profile_prefix(q)
    num, den = _top_ratio(sigma, _pair_weights(n))
    goal = Fraction((n * n - 1) * (den - num), den)
    ones = base.pop(1, 0)
    # N^2/2 less 1, doubled and packed: the rows print each top less 1
    less_one = (n * n - 2) * k
    top_prov, kept_prov = _best_merge(base, ones, _refined_term, k)
    top_conj, kept_conj = _best_merge(base, ones, _conjectural_term, k)
    provable = GrowthValue.unpack(less_one + top_prov, k)
    return DensityRow(
        q=q,
        provable=provable,
        conjectural=GrowthValue.unpack(less_one + top_conj, k),
        sx_goal=goal,
        trivial=n * n - 1,
        provable_at_coarsening=kept_prov < top_prov,
        conjectural_at_coarsening=kept_conj < top_conj,
        # (main, eps) above (goal, 0): a larger main, or eps on an equal one
        exceeds_goal=provable > (goal, 0),
    )


def _row(q, pm, pe, pi, cm, ci, goal, triv, bold=False) -> DensityRow:
    return DensityRow(
        q=q,
        provable=GrowthValue(Fraction(pm), pe),
        conjectural=GrowthValue(Fraction(cm), 0),
        sx_goal=Fraction(goal),
        trivial=triv,
        provable_at_coarsening=pi,
        conjectural_at_coarsening=ci,
        exceeds_goal=bold,
    )


# Frozen expected rows, in display order.
REFERENCE_TABLE: tuple[DensityRow, ...] = (
    _row((2, 2), 8, 0, False, 6, False, Fraction(15, 2), 15, bold=True),
    _row((2, 2, 1), 13, 0, False, 11, False, 16, 24),
    _row((2, 2, 2), 21, 2, False, 17, False, Fraction(70, 3), 35),
    _row((2, 2, 1, 1), 21, 2, True, 18, False, Fraction(105, 4), 35),
    _row((3, 3), 17, 0, False, 11, False, Fraction(35, 2), 35),
    _row((2, 2, 2, 1), 28, 2, False, 24, False, 36, 48),
    _row((3, 3, 1), 24, 0, False, 18, False, Fraction(144, 5), 48),
    _row((3, 2, 2), 21, 0, False, 19, False, 32, 48),
    _row((2, 2, 2, 2), 47, 0, False, 33, False, Fraction(189, 4), 63),
    _row((2, 2, 2, 1, 1), 47, 0, True, 33, False, Fraction(252, 5), 63),
    _row((4, 4), 30, 0, False, 18, False, Fraction(63, 2), 63),
    _row((3, 3, 3), 43, 3, False, 32, False, Fraction(160, 3), 80),
    _row((3, 2, 2, 2), 40, 2, False, 36, False, 60, 80),
    _row((5, 5), 47, 0, False, 27, False, Fraction(99, 2), 99),
    _row((2, 2, 2, 2, 2), 74, 0, False, 54, False, Fraction(396, 5), 99),
    _row((2, 2, 2, 2, 1, 1), 74, 0, True, 54, True, Fraction(165, 2), 99),
)


class Certificate(
    namedtuple(
        "Certificate",
        "target sweep checked_count violations notes",
        defaults=((),),
    )
):
    __slots__ = ()
    target: str
    sweep: str
    checked_count: int
    violations: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """No violations, and at least one case checked."""
        return self.checked_count > 0 and not self.violations

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "range": self.sweep,
            "checked_count": self.checked_count,
            "violations": list(self.violations),
            "notes": list(self.notes),
        }


def verify_table1() -> Certificate:
    """Recompute every frozen table row from scratch and compare."""
    violations = []
    for expected in REFERENCE_TABLE:
        got = sx_row(expected.q)
        if got != expected:
            violations.append(
                f"row {expected.q}: expected {expected}, computed {got}"
            )
    return Certificate(
        target="table",
        sweep=f"{len(REFERENCE_TABLE)} reference rows",
        checked_count=len(REFERENCE_TABLE),
        violations=tuple(violations),
    )


def _qd_violations(n, d, q, q2) -> list[str]:
    """The messages of the case (N, d) of `verify_qd_bound`, given what
    qd(N, d) returned and, for N >= 2d, what qd_prime(N, d) returned (else
    None): each profile summed once into a prefix array, its top ratio
    compared with its closed form by cross-multiplying, and qd_prime kept
    under qd when its prefix sums are, index by index up to N."""
    violations = []
    k = n // d
    sigma = _profile_prefix(q)
    got = _top_ratio(sigma, _pair_weights(sum(q)))
    if got[0] * (n - k) != (d - 1) * got[1]:
        violations.append(
            f"ratio(qd({n},{d})) = {Fraction(*got)} != "
            f"{Fraction(d - 1, n - k)}"
        )
    if q2 is not None:
        sigma2 = _profile_prefix(q2)
        got2 = _top_ratio(sigma2, _pair_weights(sum(q2)))
        if got2[0] * (n - k + 1) != (d - 1) * got2[1]:
            violations.append(
                f"ratio(qd_prime({n},{d})) = {Fraction(*got2)} != "
                f"{Fraction(d - 1, n - k + 1)}"
            )
        if any(map(gt, sigma2, sigma)):
            violations.append(
                f"qd_prime({n},{d}) escapes the qd({n},{d}) profile"
            )
    return violations


def verify_qd_bound(n_max: int) -> Certificate:
    """Closed forms for the extremal-partition ratios, plus domination.

    Every case (N, d), 2 <= d <= N <= n_max, reads qd(N, d) and, for
    N >= 2d, qd_prime(N, d) once, and compares them with its family's
    tuples: with k, r = divmod(N, d), qd(N, d) should be d^k + T and
    qd_prime(N, d) should be d^(k-1) + T', with T = (r) (empty when r = 0)
    and T' = (d-1, r+1), or (d-1, d-1, 1) when r = d - 1. The theorem below
    proves every case whose partitions are these tuples, for every N, so a
    case is walked by `_qd_violations` only when qd or qd_prime returns
    something else, in the order of the cases, and the messages are the
    walk's. The walk builds each part's balanced profile m - 1, m - 3, ...
    and each total's weights i*(N-i) per case. A sweep reads and compares
    tuples of about N/d parts per case, O(N^2 log N) in all.

    The theorem. For every d >= 2, 0 <= r < d and kappa >= 1, the top
    ratio of d^kappa + T is (d-1)/(N-kappa) and that of d^kappa + T' is
    (d-1)/(N-kappa), N the total of each, and every top-i sum of the
    profile of d^(kappa-1) + T' is at most that of d^kappa + T. At
    kappa = k, and kappa = k - 1 for the ratio of qd_prime, these are the
    three checks of a case. It follows from the lemmas below.

    The ratio lemma. Let q = d^kappa + T with T's parts at most d and
    R = sum(T), so N = kappa*d + R, and let F(i) = (d-1)*i*(N-i)
    - (N-kappa)*sigma_i, sigma_i the sum of the i largest entries of the
    profile of q. The top ratio is (d-1)/(N-kappa) exactly when F >= 0 at
    every 1 <= i <= N/2, since F(kappa) = 0: the kappa largest entries are
    d - 1, and kappa <= N/d <= N/2. For a threshold 1 <= v < d, the entries
    >= v are j = (d+1-v)//2 of each part d and c_m = max(0, (m+1-v)//2)
    of each m in T, with sums j*(d-j) and c_m*(m-c_m). So at
    x = kappa*j + j', j' = sum c_m, sigma_x = kappa*j*(d-j) + s with
    s = sum c_m*(m-c_m), and the kappa^2 terms of F(x) cancel:
    F(x) = kappa*A + B with A = (d-1)*(j*(R-j') + j'*(d-j) - s)
    - R*j*(d-j) and B = (d-1)*j'*(R-j') - R*s.
    - Between 0 and the points x of the thresholds v = d - 1, ..., 1, in
      turn, sigma is linear, so F is concave there and least at an end;
      F(0) = 0.
    - Past the end of the profile, whose length is sum m//2 <= N/2, sigma
      is constant and F increases up to N/2.
    - For v >= max(T), j' = s = 0 and F = kappa*R*j*(j-1) >= 0.
    Each x lies in [kappa, N/2], so F >= 0 everywhere exactly when
    kappa*A + B >= 0 at each threshold v < max(T).

    The second-difference lemma. From v to v - 2, j and every
    (m+1-v)//2 grow by 1. Take a run of thresholds of one parity on which
    a parts of T have (m+1-v)//2 >= 0 and the others have it <= 0: the
    others add nothing, and a part at 0 adds nothing either, so A and B
    are quadratics in the step with second differences
    2*(R - (d-1)*a) and 2*a*(R - (d-1)*a). When R <= (d-1)*a,
    kappa*A + B is concave along the run for every kappa >= 0, and least
    at one of its ends. The families take it in closed form, with
    j, delta = divmod(d+1-v, 2):
    - T = (r): a = 1 and R = r <= d - 1 on all of 1 <= v <= r - 1, where
      c, gamma = divmod(r+1-v, 2), A = r*j*(j-1) - (d-1)*c*(c+gamma-delta)
      and B = c*(r-c)*(d-1-r). The run ends are v = 1, 2, r - 2, r - 1.
    - T' = (d-1, r+1), r <= d - 2, with c1 = (d-v)//2: for v >= r + 2,
      A = (r+1)*j*(j-1) and B = (r+1)*c1^2, which are never negative. For
      v <= r + 1, c2, gamma = divmod(r+2-v, 2),
      A = (r+1)*j*(j-1) - (d-1)*c2*(c2+gamma-delta) and
      B = (r+1)*(c1-c2)^2 + (d-r-2)*c2*(d+r-2*c1); a = 2 and
      R = d + r <= 2*(d-1), so the run ends are v = 1, 2, last - 1 and
      last, last = min(r+1, d-2).
    - T' = (d-1, d-1, 1): A = j*(j-1) and B = 2*c1^2 at every threshold.

    The ratio, for every kappa >= 1. B >= 0 at every threshold by its
    form: for T, c <= r <= d - 1; for T', both terms, since r <= d - 2 and
    d + r - 2*c1 >= r + v. A >= 0 at every run end of T and T': substitute
    r = 3 + 2*x + rho and d = r + 1 + 2*y + h (for T', d = r + 3 + 2*y + h,
    where last = r + 1, and d = r + 2, where last = r) with x, y >= 0 and
    rho, h in {0, 1}. In each class every floor above is affine in (x, y),
    and each end's A is a polynomial in (x, y) with integer coefficients,
    all >= 0; r <= 2 gives polynomials in y alone, with none negative, at
    every threshold. So kappa*A + B >= 0 at every run end for every
    kappa >= 1, at every threshold by the second-difference lemma, and the
    ratio lemma gives both ratios. The tests expand these polynomials,
    check them against the threshold terms, and keep the closed forms and
    the per-family decision that the sweep used before, as oracles.

    The domination lemma. The top-i sum of the profile of a union U + X is
    the max over a + b = i of sigma_U(a) + sigma_X(b), so
    sigma_X >= sigma_Y pointwise gives sigma_(U+X) >= sigma_(U+Y)
    pointwise. Take U = d^(kappa-1), X = (d) + T and Y = T'. With P(m) the
    profile m - 1, m - 3, ... of a part m: when r <= d - 2, P(d-1) is
    entrywise at least P(r+1) and no shorter, so the top i entries of
    P(d-1) + P(r+1), ties taken from P(d-1), are a of P(d-1) and b <= a
    of P(r+1). The first a
    entries of P(d) are those of P(d-1) plus 1 each, and the first b of
    P(r), padded with zeros, those of P(r+1) less 1 each, so i entries of
    X's zero-padded profile sum to sigma_Y(i) + a - b >= sigma_Y(i).
    When r = d - 1,
    Y's profile is P(d-1) twice (P(1) is empty) and X's is P(d) and
    P(d-1), entrywise above it.
    """
    violations = []
    for d in range(2, n_max + 1):
        # r -> ((d) + T, T') of the family (d, r)
        tails = [
            ((d, r) if r else (d,), (d - 1, d - 1, 1) if r == d - 1 else (d - 1, r + 1))
            for r in range(min(d, n_max - d + 1))
        ]
        # the cases N = k*d + r of one k share the head d^(k-1)
        for k in range(1, n_max // d + 1):
            head = (d,) * (k - 1)
            first = k * d
            cases = range(first, min(first + d, n_max + 1))
            for n, (tail, tail2) in zip(cases, tails):
                q = qd(n, d)
                q2 = qd_prime(n, d) if k >= 2 else None
                if q == head + tail and (q2 is None or q2 == head + tail2):
                    continue
                violations += _qd_violations(n, d, q, q2)
    return Certificate(
        target="qd",
        sweep=f"2 <= d <= N <= {n_max}",
        checked_count=qd_count(n_max),
        violations=tuple(violations),
    )


def verify_density(n_max: int) -> Certificate:
    """Sweep the two density comparisons and recheck the exceptional pairs.

    The naive-bound comparison is expected to fail exactly at N = 2d,
    N = 2d+1 and (N,d) = (6,2); on those pairs the refined bound must
    still beat the goal except at (4,2). The secondary comparison
    (m-d+2)(N^2-1) > N(N-d)(m+1) is not swept: it reads no `growth` term,
    and over the block N = k*d + r its difference is
    r^2 + (dk+d-1)r + (d^2k - dk + d + k - 2), > 0 for d, k >= 2.

    The comparisons are of int ratios, by cross-multiplying: with trivial =
    N^2 - 1 and k = N // d, the target is N(N-d)/trivial and 1 - (d-1)/m is
    (m-d+1)/m. The bounds are scored on the blocks ((k, d), (1, r)) of
    qd(N, d), r = N mod d, as N^2 plus one `growth` block term per block
    (doubled main parts).

    The range N >= 2d is taken by blocks N = k*d + r, r = 0..d-1, the last
    block cut at n_max. The sweep reads each term once, into flat lists,
    the blocks in order of d, then k: the naive term of every block (k, d)
    and of every remainder block (1, r), and the refined term of the
    exceptional blocks, k = 2 and (3, 2), which hold the exceptional pairs,
    and of (1, 1). Their closed forms are k^2 d and r naive, and 6 - 2d for
    (2, d), 8 with 2 eps for (3, 2) and 1 for (1, 1) refined. The theorem
    below proves every case whose terms are these, for every N, so
    comparing the lists with their closed forms decides the sweep. Only
    when they differ does it walk, from the lists it read, each block whose
    terms differ, case by case from its first case to its last, with
    cross-multiplied ints; every block is walked when a remainder term
    differs. Walked blocks come in order of d, then k, so the violations
    come in the order of the cases and are the walk's. A sweep reads
    O(N log N) terms and evaluates no lemma.

    The short range d < N < 2d has the difference
    (N-d)(N^2-1) - N(N-d)(N-1) = (N-d)(N-1) = x^2 + (d+1)x + d at
    x = N-d-1, > 0 for every d, so it is decided with no evaluation, yet
    counted in `checked_count`: 639,200 of the 1,277,601 cases at
    N = 1600 (whether to count them is the benchmark's question, as its
    checks pin the count).

    The theorem. With the naive terms k^2 d of (k, d) and r of (1, r), and
    the refined terms 6 - 2d of (2, d), 8 with 2 eps of (3, 2) and 1 of
    (1, 1), every case N >= 2d passes the strict naive comparison except
    N = 2d, 2d + 1 and (6, 2), and the refined recheck passes on exactly
    those pairs other than (4, 2), for every N.

    The lemma: an integer polynomial whose constant term is > 0 and whose
    other coefficients are >= 0 is > 0 at every integer point >= 0, and
    one with no negative coefficient is >= 0 there. From r = r0 on, the
    strict naive difference 2(m-d+1)(N^2-1) - (N^2 + naive + rem)*m,
    naive the (k, d) term less 2 and rem = slope * r the remainder term,
    is y^3 + c2*y^2 + c1*y + c0 in y = r - r0. With n0 = k*d + r0,
    m0 = n0 - k, t0 = n0^2 - 1, a = m0 - d + 1 and
    p0 = n0^2 + naive + slope*r0: c0 = 2*a*t0 - m0*p0,
    c1 = 2*t0 + 4*a*n0 - p0 - m0*(2*n0 + slope) and
    c2 = 2*n0 + 2*a - m0 - slope.

    The proof, at naive = k^2 d - 2 and slope = 1.
    - A regular block, k >= 3 with d >= 3, or k >= 4 with d = 2, starts
      past the exceptional pairs, and r0 = 0:
      c0 = (d-1)*((k-2)*k^2*d^2 + 2 - k^3*d),
      c1 = k*(d-1)*(k*d-1) + 2*k*d*(d-1)*(k-2) and
      c2 = 2*k*d + (k-2)*(d-1) - 1. At k = 3 + x and d = 3 + y, and at
      k = 4 + x for d = 2, each is a polynomial in x, y >= 0 with no
      negative coefficient, c0's constant term 4 (2 for d = 2).
    - The block k = 2 past its exceptional pairs, d >= 3 and r0 = 2:
      c0 = 14d + 6, c1 = 4d^2 + 10d + 10 and c2 = 4d + 5. Past (6, 2),
      (3, 2) holds one case, N = 7, whose difference is 24.
    - At the exceptional pairs the difference is -2(d-1)(4d-1) at N = 2d,
      -4d(d-2) at N = 2d + 1 and -16 at (6, 2), never > 0. The refined
      recheck's margin 2(N^2-1)(m-d+1) - (N^2 + refined - 2)*m is
      2(d-1)(2d-5) at N = 2d, 8d^2 - 10d + 6 at N = 2d + 1 and 14 at
      (6, 2): > 0 except at d = 2 of the first, (4, 2), where it is -2.
      It is never 0, so no eps decides the recheck.
    By the lemma every case past the exceptional pairs passes, and the
    exceptional pairs fail and pass as the theorem says. The tests
    expand these polynomials from the Taylor coefficients on each class,
    and keep the per-block Taylor test and the tight loop over the regular
    blocks that the sweep used before, as oracles.
    """
    half = n_max // 2  # a d past n_max/2 has no block
    # every term the theorem reads, once, beside its closed form: the naive
    # terms of the blocks (k, d), in order of d then k, and of the remainder
    # blocks (1, r), r < d <= n_max/2 (none when r = 0), and the refined
    # terms of the exceptional blocks, (2, d) and (3, 2) when n_max reaches
    # it, and of (1, 1)
    blocks = [(k, d) for d in range(2, half + 1) for k in range(2, n_max // d + 1)]
    naives = [_naive_term(k, d)[0] for k, d in blocks]
    closed = [k * k * d for k, d in blocks]
    rem_naive = [0] + [_naive_term(1, r)[0] for r in range(1, half)]
    rem_refined = ((0, 0), _refined_term(1, 1))
    exceptional = [(2, d) for d in range(2, half + 1)]
    refined_closed = [(6 - 2 * d, 0) for d in range(2, half + 1)]
    if n_max >= 6:
        exceptional.append((3, 2))
        refined_closed.append((8, 2))
    refined = [_refined_term(k, d) for k, d in exceptional]
    # every block is walked when a remainder term is off its closed form
    every = rem_naive != [*range(len(rem_naive))] or rem_refined[1] != (1, 0)
    violations = []
    if every or naives != closed or refined != refined_closed:
        refined_at = dict(zip(exceptional, refined))
        # the exceptional blocks whose refined term is off its closed form
        off = {
            kd for kd, got, want in zip(exceptional, refined, refined_closed)
            if got != want
        }
        for (k, d), term, want in zip(blocks, naives, closed):
            if term == want and (k, d) not in off and not every:
                continue
            naive = term - 2
            last_exceptional = 2 * d + 1 + (d == 2)
            first = k * d
            for n in range(first, min(first + d, n_max + 1)):
                r = n - first
                m = n - k
                nn = n * n
                trivial = nn - 1
                # 1 - (d-1)/m > (rbar - 1) / trivial, with 2*rbar - 2 =
                # N^2 + naive + rem
                rem = rem_naive[r]
                strict = (m - d + 1) * 2 * trivial > (nn + naive + rem) * m
                if n <= last_exceptional:
                    if strict:
                        violations.append(
                            f"naive case at ({n},{d}): strict=True, "
                            "expected exceptional=True"
                        )
                    # the refined bound less 1 against trivial * (m-d+1)/m
                    a, e = refined_at[k, d]
                    b, f = rem_refined[r]
                    lhs = (nn + a + b - 2) * m
                    rhs = 2 * trivial * (m - d + 1)
                    passes = lhs < rhs or (lhs == rhs and e + f < 0)
                    if passes != ((n, d) != (4, 2)):
                        violations.append(
                            f"refined recheck at ({n},{d}): passes={passes}"
                        )
                elif not strict:
                    violations.append(
                        f"naive case at ({n},{d}): strict=False, "
                        "expected exceptional=False"
                    )
    return Certificate(
        target="density",
        sweep=f"2 <= d < N <= {n_max}",
        checked_count=density_count(n_max),
        violations=tuple(violations),
        # the refined recheck first meets (4,2) at N = 4
        notes=(
            ("refined recheck fails only at (N,d) = (4,2)",)
            if n_max >= 4
            else ()
        ),
    )


def _distinct_part_sets(n_max: int):
    """Sets of pairwise distinct parts >= 2 with total <= n_max."""
    out: list[tuple[int, ...]] = [()]

    def rec(smallest: int, total: int, acc: list[int]):
        for v in range(smallest, n_max - total + 1):
            acc.append(v)
            out.append(tuple(sorted(acc, reverse=True)))
            rec(v + 1, total + v, acc)
            acc.pop()

    rec(2, 0, [])
    return out


def qd_count(n_max: int) -> int:
    """The (N, d) cases of `verify_qd_bound`, 2 <= d <= N <= n_max."""
    return n_max * (n_max - 1) // 2 if n_max >= 2 else 0


def density_count(n_max: int) -> int:
    """The (N, d) cases of `verify_density`, 2 <= d < N <= n_max."""
    return (n_max - 1) * (n_max - 2) // 2 if n_max >= 3 else 0


def maxsl2_count(n_max: int) -> int:
    """The (core, N) cases of `verify_maxsl2`: sum over t of c[t] times the
    N with max(t, 1) <= N <= n_max, where c[t] counts the sets of pairwise
    distinct parts >= 2 with sum t, by a 0/1 knapsack over the parts."""
    c = [1] + [0] * n_max
    for v in range(2, n_max + 1):
        for t in range(n_max, v - 1, -1):
            c[t] += c[t - v]
    return sum(x * max(0, n_max + 1 - max(t, 1)) for t, x in enumerate(c))


def _maxsl2_violations(core, n: int, tables) -> list[str]:
    """The messages for one failing (core, N) of `verify_maxsl2`.

    Scores every extra partition of the slack, to name the best value and
    list the partitions that reach it. A partition scores what the
    knapsack of `_maxsl2_walk` gives it: its `grouping_score` plus entry 0
    of each row that the knapsack runs and the partition lacks, row 1 and
    the rows 2..room, room = n_max - sum(core). So every case that the
    walk flags gets a message, whatever the tables hold.
    """
    slack = n - sum(core)
    room = len(tables) - sum(core)
    padded = core + (1,) * slack
    expected_best = partition_bound(padded)
    top = None
    tops = []
    for extra in partitions_of(slack):
        parts = core + extra
        score = grouping_score(parts, tables) + sum(
            tables[d][0] for d in range(1, max(room, 1) + 1) if d not in parts
        )
        if top is None or score > top:
            top, tops = score, [extra]
        elif score == top:
            tops.append(extra)
    best = GrowthValue.unpack(top, len(tables) + 1)
    argmax = [tuple(sorted(core + e, reverse=True)) for e in tops]
    out = []
    if best != expected_best:
        out.append(f"core {core}, N={n}: best {best} not at padded partition")
    expected_args = {padded}
    if slack == 2 and 2 in core:
        expected_args.add(tuple(sorted(core + (2,), reverse=True)))
    if set(argmax) != expected_args:
        out.append(f"core {core}, N={n}: argmax {sorted(argmax)}")
    return out


def _maxsl2_walk(tables, n_max: int) -> list[str]:
    """The violations of `verify_maxsl2`, core by core: one
    `growth.extra_tops` knapsack per core.

    best[s] is the top sum of the table entries of the sizes d >= 2, core
    parts included, over the extras of parts >= 2 that sum to s. It runs
    every size 2..room, not only the core's: this sweep certifies that
    padding beats every merge, so it leans on no lemma of `growth`. Each N
    then adds the table entry of the remaining ones. The padded partition
    must reach the top and every extra with a part >= 2 stay below it,
    except (2,) where the tie is allowed, which must reach it. A case that
    fails is scored again by `_maxsl2_violations` to write its messages.
    """
    violations = []
    k = n_max + 1
    ones = tables.get(1, [0])  # no row at n_max = 0, which has no case
    ones_block = [pack(_refined_term, s, 1, k) for s in range(n_max + 1)]
    floor = floor_below(tables)  # below the core parts' entries too
    for core in _distinct_part_sets(n_max):
        size = sum(core)
        room = n_max - size
        best = extra_tops(
            [sum(tables[d][1] for d in core if d > room)] + [floor] * room,
            range(2, room + 1),
            lambda d: tables[d][1:] if d in core else tables[d],
        )
        core_blocks = sum(pack(_refined_term, 1, d, k) for d in core)
        for n in range(max(size, 1), n_max + 1):
            slack = n - size
            padded = best[0] + ones[slack]
            merged = max(map(add, best[slack:1:-1], ones), default=None)
            top = padded if merged is None else max(padded, merged)
            tie_allowed = slack == 2 and 2 in core
            if (
                top != core_blocks + ones_block[slack]
                or padded != top
                or (merged == top) != tie_allowed
            ):
                violations.extend(_maxsl2_violations(core, n, tables))
    return violations


def _maxsl2_rows(n_max: int) -> dict[int, list[int]]:
    """`split_tables(n_max)` in closed form, k = n_max + 1: row 1 is k*s^2,
    and row d >= 2 is 0, (2 - d^2)k, (6 - 2d)k, (10 - d)k + d, then
    e^2 d k for e >= 4, up to e = n_max // d. No block term is read, so a
    patched term meets the walk."""
    k = n_max + 1
    rows = {1: [k * s * s for s in range(k)]} if n_max else {}
    for d in range(2, k):
        m = n_max // d
        head = [0, (2 - d * d) * k, (6 - 2 * d) * k, (10 - d) * k + d]
        rows[d] = head[: m + 1] + [e * e * d * k for e in range(4, m + 1)]
    return rows


def verify_maxsl2(n_max: int) -> Certificate:
    """The padded partition maximizes growth over all merges and groupings.

    For every distinct-part core Q0 and rank N, the max of the refined bound
    over partitions Q0 + (any partition of the slack) and over all block
    groupings is attained at Q0 padded with ones, fully grouped; the argmax
    partition is unique except for slack 2 with a 2 already present. Each
    partition's best grouping comes from `split_tables`, so the groupings are
    maximized over, not enumerated. Scores are the tables' packed ints.

    The theorem: with the tables of `_maxsl2_rows`, every case passes,
    for every N, the tie allowed only at slack 2 on a core that holds a 2.
    So the sweep compares each row of the tables with its closed form,
    O(N log N) entries, and evaluates no lemma; `split_tables` and
    `maxsl2_count` are O(N^2) each. If a row differs, the cores are walked
    one by one by `_maxsl2_walk`, so the messages are those of the walk.

    The proof. A case (core, N) with slack = N - sum(core) compares the
    core padded with slack ones, fully grouped, with the core plus an
    extra of parts >= 2 summing to 2 <= s <= slack and slack - s ones; the
    core's own entries are on both sides, so only the gains differ. Entry
    1 of row d and entry s of row 1 are the terms of (1, d) and (s, 1), so
    the padded value is the core's 1-blocks and (slack, 1).
    - Gains. In doubled main parts, e extra parts d gain tables[d][e] on a
      core that lacks d: 2 - d^2, 6 - 2d, 10 - d (+d eps), then e^2 d; and
      tables[d][1+e] - tables[d][1] on a core that holds d: d^2 - 2d + 4,
      d^2 - d + 8 (+d eps), then (1+e)^2 d + d^2 - 2 for e >= 3.
    - Per size. (ed)^2 less each gain is an int polynomial with no
      negative coefficient at d = 2 + y (and e = 3 + x or 4 + x for the
      last gains). Its constant term is > 0, except for "holds, e = 1",
      whose difference is 2y, 0 only at d = 2.
    - Summed. An extra of total s gains at most the sum of (e_d d)^2 over
      its sizes, which is at most s^2. Equality holds only for the extra
      (2,) on a core that holds a 2.
    - Padding. The padding loses ones[slack] - ones[slack - s] =
      k*s*(2*slack - s) >= k*s^2 to the extra, with equality only at
      slack = s.
    - Eps. A strict gap of the main parts is at least k once packed, more
      than the eps of any extra, which is at most s <= N < k.
    So padding wins every case, and the extra (2,) ties with it exactly at
    slack 2 on a core with a 2, where it gains 4k, the entry of two ones,
    as the sweep requires. The tests expand the polynomials with
    `oracles.Poly` and check the closed rows against `split_tables` and
    the gains against the block terms. The count of cases comes from
    `maxsl2_count`.
    """
    tables = split_tables(n_max)
    return Certificate(
        target="maxsl2",
        sweep=f"distinct cores, N <= {n_max}",
        checked_count=maxsl2_count(n_max),
        violations=()
        if tables == _maxsl2_rows(n_max)
        else tuple(_maxsl2_walk(tables, n_max)),
    )
