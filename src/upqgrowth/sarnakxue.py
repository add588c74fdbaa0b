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
        parts = (d,) * (k - 1) + (d - 1, d - 1, 1)
    else:
        parts = (d,) * (k - 1) + (d - 1, r + 1)
    return tuple(sorted(parts, reverse=True))


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


def _qd_terms(d: int, r: int, v: int) -> tuple[int, int]:
    """(A, B) of the tail T = (r) of `verify_qd_bound` at the threshold
    1 <= v < r, in closed form: with j, delta = divmod(d+1-v, 2) and
    c, gamma = divmod(r+1-v, 2), A = r*j*(j-1) - (d-1)*c*(c+gamma-delta)
    and B = c*(r-c)*(d-1-r)."""
    e = d - 1
    j, delta = divmod(d + 1 - v, 2)
    c, gamma = divmod(r + 1 - v, 2)
    return r * j * (j - 1) - e * c * (c + gamma - delta), c * (r - c) * (e - r)


def _qd_prime_terms(d: int, r: int, v: int) -> tuple[int, int]:
    """(A, B) of the tail T' = (d-1, r+1), r <= d-2, of `verify_qd_bound`
    at a threshold 1 <= v <= r + 1, in closed form: with j, delta and the
    counts c1 = (d-v)//2 of the part d-1 and c2, gamma = divmod(r+2-v, 2)
    of the part r+1, A = (r+1)*j*(j-1) - (d-1)*c2*(c2+gamma-delta) and
    B = (r+1)*(c1-c2)^2 + (d-r-2)*c2*(d+r-2*c1)."""
    j, delta = divmod(d + 1 - v, 2)
    c1 = (d - v) // 2
    c2, gamma = divmod(r + 2 - v, 2)
    return (
        (r + 1) * j * (j - 1) - (d - 1) * c2 * (c2 + gamma - delta),
        (r + 1) * (c1 - c2) ** 2 + (d - r - 2) * c2 * (d + r - 2 * c1),
    )


def _run_ends_hold(terms, d: int, r: int, last: int, k_hi: int) -> bool:
    """Whether k*A + B >= 0 for k = 1 and k = k_hi, (A, B) = terms(d, r, v),
    at the least and the largest threshold v of each parity in [1, last]."""
    for v in {1, 2, last - 1, last}:
        if 1 <= v <= last:
            a, b = terms(d, r, v)
            if a + b < 0 or k_hi * a + b < 0:
                return False
    return True


def _qd_family_holds(d: int, r: int, k_hi: int) -> bool:
    """Whether kappa*A + B >= 0 at every threshold of the family (d, r) of
    `verify_qd_bound`: of T (`_qd_terms`) at kappa = 1 and k_hi and, for
    k_hi >= 2, of T' (`_qd_prime_terms`) at kappa = 1 and k_hi - 1; decided
    by the second-difference lemma at the ends of the threshold runs."""
    return _run_ends_hold(_qd_terms, d, r, r - 1, k_hi) and (
        k_hi < 2
        or r == d - 1
        or _run_ends_hold(_qd_prime_terms, d, r, min(r + 1, d - 2), k_hi - 1)
    )


def _profile_dominates(high, low) -> bool:
    """Whether every top-i sum of the profile of `high` is at least that of
    `low`, two partitions of the same total."""
    return not any(map(gt, _profile_prefix(low), _profile_prefix(high)))


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
    N >= 2d, qd_prime(N, d) once. The cases are decided by families: with
    k, r = divmod(N, d), qd(N, d) is d^k + T and qd_prime(N, d) is
    d^(k-1) + T', with T = (r) (empty when r = 0) and T' = (d-1, r+1), or
    (d-1, d-1, 1) when r = d - 1. A family (d, r) holds the
    cases N = k*d + r <= n_max, 1 <= k <= k_hi, and is decided at once by
    the lemmas below (`_qd_family_holds`, and `_profile_dominates` when
    k_hi >= 2). A case whose partitions are not its family's tuples and a
    case of a family that the lemmas reject are walked by `_qd_violations`,
    in the order of the cases, so the messages are the walk's.
    The walk builds each part's balanced profile m - 1, m - 3, ... and
    each total's weights i*(N-i) per case: the lemmas decide every family
    of the real qd and qd_prime, so no case is walked unless a family is
    rejected or qd is patched.

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
    kappa*A + B >= 0 at each threshold v < max(T), and, being linear in
    kappa, that holds for every kappa in [1, kappa_hi] exactly when it
    holds at both ends, kappa = 1 and kappa = kappa_hi: qd's family takes
    kappa = k, qd_prime's kappa = k - 1.

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
      and B = c*(r-c)*(d-1-r) (`_qd_terms`). So the least and the largest
      v of each parity, at most four thresholds, decide T at kappa = 1 and
      kappa = k_hi.
    - T' = (d-1, r+1), r <= d - 2, with c1 = (d-v)//2: for v >= r + 2,
      A = (r+1)*j*(j-1) and B = (r+1)*c1^2, which are never negative. For
      v <= r + 1, c2, gamma = divmod(r+2-v, 2),
      A = (r+1)*j*(j-1) - (d-1)*c2*(c2+gamma-delta) and
      B = (r+1)*(c1-c2)^2 + (d-r-2)*c2*(d+r-2*c1) (`_qd_prime_terms`);
      a = 2 and R = d + r <= 2*(d-1), so the ends of each parity in
      [1, min(r+1, d-2)] decide T' at kappa = 1 and kappa = k_hi - 1.
    - T' = (d-1, d-1, 1): A = j*(j-1) and B = 2*c1^2 at every threshold,
      so the ratio of qd_prime holds with no check.
    A family of one case (k_hi = 1, 2d + r > n_max) has no qd_prime and is
    decided by T at kappa = 1 alone.

    The domination lemma. The top-i sum of the profile of a union U + X is
    the max over a + b = i of sigma_U(a) + sigma_X(b), so
    sigma_X >= sigma_Y pointwise gives sigma_(U+X) >= sigma_(U+Y)
    pointwise. With U = d^(k-1), X = (d) + T and Y = T', one comparison
    per family (`_profile_dominates`) keeps qd_prime under qd for every k.
    A family decided this way costs at most eight closed-form evaluations
    and, with two cases or more, one profile comparison, where its walk
    cost O(N) per case.
    """
    violations = []
    for d in range(2, n_max + 1):
        # r -> (T, T') of a family (d, r) that the lemmas decide, None for
        # one they reject
        families = []
        for r in range(min(d, n_max - d + 1)):
            tail = (r,) if r else ()
            tail2 = (d - 1, d - 1, 1) if r == d - 1 else (d - 1, r + 1)
            k_hi = (n_max - r) // d
            holds = _qd_family_holds(d, r, k_hi) and (
                k_hi < 2 or _profile_dominates((d, *tail), tail2)
            )
            families.append((tail, tail2) if holds else None)
        for n in range(d, n_max + 1):
            k, r = divmod(n, d)
            q = qd(n, d)
            q2 = qd_prime(n, d) if n >= 2 * d else None
            family = families[r]
            if (
                family
                and q == (d,) * k + family[0]
                and (q2 is None or q2 == (d,) * (k - 1) + family[1])
            ):
                continue
            violations += _qd_violations(n, d, q, q2)
    return Certificate(
        target="qd",
        sweep=f"2 <= d <= N <= {n_max}",
        checked_count=qd_count(n_max),
        violations=tuple(violations),
    )


def _block_taylor(k: int, d: int, r0: int, naive: int, slope: int):
    """(c0, c1, c2, c3): the Taylor coefficients, lowest first, at
    y = r - r0 of lhs - rhs of the strict naive comparison of
    `verify_density` over the block N = k*d + r, given the (k, d) term less 2
    and the remainder term slope * r; the formulas are in `verify_density`.
    Each factor is expanded at r0: m = m0 + y and
    N^2 - 1 = t0 + 2*n0*y + y^2.
    """
    n0 = k * d + r0
    m0 = n0 - k
    t0 = n0 * n0 - 1
    a = m0 - d + 1
    p0 = t0 + 1 + naive + slope * r0
    return (
        2 * a * t0 - m0 * p0,
        2 * t0 + 4 * a * n0 - p0 - m0 * (2 * n0 + slope),
        2 * n0 + 2 * a - m0 - slope,
        1,
    )


def _regular_walks(n_max: int, slope: int, affine: bool) -> dict:
    """The regular blocks of `verify_density` that fail its lemma, by d:
    d -> [(k, naive, first, end)], k ascending, each block's cases
    first <= N < end to walk and its naive term less 2. A block (k, d) is
    regular when it starts past the exceptional pairs, at k >= 3 (k >= 4
    for d = 2), so its r0 is 0. Every regular block is listed when the
    remainder terms are not affine.

    One tight loop per d reads each block's naive term once and computes
    the coefficients of `_block_taylor(k, d, 0, naive, slope)` in place:
    with term = naive + 2, n0 = k*d, e = d - 1 and j = k - 2, they are
    c0 = e*(j*n0^2 + 2 - k*term), c1 = n0*(n0 + 2*e*j) - term - k*e*slope
    and c2 = 2*n0 + j*e - slope. As e > 0, c0 > 0 when its cofactor is.
    """
    walks = {}
    for d in range(2, n_max // 3 + 1):  # no d past n_max/3 has k >= 3
        e = d - 1
        for k in range(3 + (d == 2), n_max // d + 1):
            term = _naive_term(k, d)[0]
            n0 = k * d
            j = k - 2
            if not (
                affine
                and j * n0 * n0 + 2 > k * term
                and n0 * (n0 + 2 * e * j) >= term + k * e * slope
                and 2 * n0 + j * e >= slope
            ):
                walks.setdefault(d, []).append(
                    (k, term - 2, n0, min(n0 + d, n_max + 1))
                )
    return walks


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

    The wide range N >= 2d is taken by blocks N = k*d + r, r = 0..d-1, the
    last block cut at n_max. Each d's blocks are decided in two loops. The
    exceptional blocks, k = 2 and (3, 2), hold the exceptional pairs; each
    is walked case by case up to its last exceptional pair, and its rest,
    from r = r0 on, is decided by the lemma below at that r0. Every later
    block is regular: it starts past the exceptional pairs, so r0 = 0, and
    `_regular_walks` decides it in one tight loop with the coefficients at
    r0 = 0 computed in place. A block that fails the lemma is walked like
    the exceptional pairs, after the exceptional blocks and in order of k,
    so the violations come in the order of the cases.

    Each term is read where the sweep needs it: the naive term of (k, d)
    once per block (in `_regular_walks` for a regular block), those of the
    remainder blocks (1, r) once per sweep, and the refined term of (k, d)
    once per exceptional pair, whose remainder is 0 or 1, and that of the
    remainder block (1, 1) once per sweep.

    The lemma: an integer polynomial whose constant term is > 0 and whose
    other coefficients are >= 0 is > 0 at every integer y >= 0. From
    r = r0 on, the strict naive difference
    2(m-d+1)(N^2-1) - (N^2 + naive + rem)*m, naive the (k, d) term less 2
    and rem = slope * r the remainder term, is y^3 + c2*y^2 + c1*y + c0 in
    y = r - r0. With n0 = k*d + r0, m0 = n0 - k, t0 = n0^2 - 1,
    a = m0 - d + 1 and p0 = n0^2 + naive + slope*r0: c0 = 2*a*t0 - m0*p0,
    c1 = 2*t0 + 4*a*n0 - p0 - m0*(2*n0 + slope) and
    c2 = 2*n0 + 2*a - m0 - slope (`_block_taylor`). The remainder terms are
    checked to be affine once per sweep; if they are not, every block is
    walked. The short range d < N < 2d has the difference
    (N-d)(N^2-1) - N(N-d)(N-1) = (N-d)(N-1) = x^2 + (d+1)x + d at
    x = N-d-1, which the lemma passes for every d, so it is decided with
    no evaluation, yet counted in `checked_count`: 639,200 of the 1,277,601
    cases at N = 1600 (whether to count them is the benchmark's question,
    as its checks pin the count). With the `growth` terms every block
    passes, so a sweep decides O(N log N) blocks and walks O(N)
    exceptional pairs instead of O(N^2) cases.
    """
    violations = []
    # the terms of the remainder block (1, r), r < d <= n_max/2; no block
    # when r = 0
    rem_naive = [0] + [_naive_term(1, r)[0] for r in range(1, n_max // 2)]
    rem_refined = ((0, 0), _refined_term(1, 1))
    slope = rem_naive[1] if len(rem_naive) >= 2 else 0
    affine = rem_naive == [slope * r for r in range(len(rem_naive))]
    failing = _regular_walks(n_max, slope, affine)
    for d in range(2, n_max // 2 + 1):  # a d past n_max/2 has no block
        last_exceptional = 2 * d + 1 + (d == 2)
        # (k, naive, first, end): the cases first <= N < end of a block to
        # walk, blocks in order of k; first the exceptional blocks, k = 2
        # and (3, 2), each walked from first to past its exceptional pairs
        walks = []
        for k in range(2, min(3 + (d == 2), n_max // d + 1)):
            naive = _naive_term(k, d)[0] - 2
            first = k * d
            stop = min(first + d, n_max + 1)
            # walk the rest of the block too when its cubic fails the lemma
            end = min(last_exceptional + 1, stop)
            if end < stop:
                c0, c1, c2, _ = _block_taylor(k, d, end - first, naive, slope)
                if not (affine and c0 > 0 and c1 >= 0 and c2 >= 0):
                    end = stop
            walks.append((k, naive, first, end))
        walks += failing.get(d, ())
        for k, naive, first, end in walks:
            for n in range(first, end):
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
                    a, e = _refined_term(k, d)
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


def _maxsl2_bound_holds(tables, n_max: int) -> bool:
    """Whether the lemma of `verify_maxsl2` decides that every case passes:
    its row checks, the extra (2,), one comparison per size on U."""
    k = n_max + 1
    ones = tables.get(1, [0])
    if (
        ones != [k * s * s for s in range(k)]
        or ones != [pack(_refined_term, s, 1, k) for s in range(k)]
        or any(
            tables[d][:2] != [0, pack(_refined_term, 1, d, k)]
            for d in range(2, k)
        )
        # the extra (2,): below padding, and tied with it on a core with a 2
        or (n_max >= 2 and tables[2][1] >= ones[2])
        or (n_max >= 4 and tables[2][2] - tables[2][1] != ones[2])
    ):
        return False
    # the better of joining a core that lacks d and one that holds it (given
    # the row checks, the "holds d" gain alone gives the same verdict)
    rows = {
        d: [max(x, y - row[1]) for x, y in zip(row, row[1:])] + row[-1:]
        for d, row in tables.items()
        if d > 1
    }
    u = extra_tops([0] + [floor_below(tables)] * n_max, range(2, k), rows.get)
    return all(map(gt, ones[3:], u[3:]))


def verify_maxsl2(n_max: int) -> Certificate:
    """The padded partition maximizes growth over all merges and groupings.

    For every distinct-part core Q0 and rank N, the max of the refined bound
    over partitions Q0 + (any partition of the slack) and over all block
    groupings is attained at Q0 padded with ones, fully grouped; the argmax
    partition is unique except for slack 2 with a 2 already present. Each
    partition's best grouping comes from `split_tables`, so the groupings are
    maximized over, not enumerated. Scores are the tables' packed ints.

    The sweep is decided for every core at once by this lemma, which holds
    for any table contents. With ones = tables[1], each core's knapsack
    (see `_maxsl2_walk`) gives best[s], the top over the extras of parts
    >= 2 summing to s, and a case (core, N) with slack = N - sum(core)
    passes when max over 2 <= s <= slack of best[s] + ones[slack - s] is
    below best[0] + ones[slack] (equal when slack is 2 and the core holds
    a 2) and best[0] + ones[slack] is the packed refined term of the core's
    1-blocks and of (slack, 1).

    - Row checks: tables[d][0] = 0 and tables[d][1] is the term of (1, d)
      for 2 <= d <= n_max, and ones[s] = k*s^2, k = n_max + 1, the term of
      (s, 1), for s <= n_max. Then best[0] is the core's term, and each case
      passes once padding wins. The cases of the empty core and of the
      one-part cores compare these same entries.
    - The extra (2,), the only one summing to 2, is checked exactly: it
      gains tables[2][1] < ones[2] on a core without a 2, and ones[2] =
      tables[2][2] - tables[2][1] on a core with one (the tie at slack 2);
      at slack > 2, 4k + k*(slack - 2)^2 < k*slack^2 keeps it below.
    - The dominating knapsack. An extra with e parts d gains tables[d][e]
      when d is not in the core, and tables[d][1+e] - tables[d][1] when it
      is. U = extra_tops([0] + [floor] * n_max, sizes 2..n_max) takes for
      each size the larger of the two (the second where 1 + e <= n_max // d),
      so U[s] >= best[s] - best[0] for every core. Floor entries only raise U.
    - The test: U[s] < ones[s] for 3 <= s <= n_max: ones[slack] -
      ones[slack - s] = k*s*(2*slack - s) grows with slack from ones[s], so
      best[s] + ones[slack - s] < best[0] + ones[slack] at every slack >= s.

    If all of it holds, every case passes. If not, the cores are walked one
    by one by `_maxsl2_walk`, so the messages are those of the walk. The
    count of cases comes from `maxsl2_count`.
    """
    tables = split_tables(n_max)
    return Certificate(
        target="maxsl2",
        sweep=f"distinct cores, N <= {n_max}",
        checked_count=maxsl2_count(n_max),
        violations=()
        if _maxsl2_bound_holds(tables, n_max)
        else tuple(_maxsl2_walk(tables, n_max)),
    )
