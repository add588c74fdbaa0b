"""Density-style integrability exponents and the verification sweeps.

For a partition Q of N the balanced bipartition gives an exponent profile;
its partial sums against i*(N-i) produce the integrability ratio, the
density goal (N^2-1)*(1 - ratio), and the provable/conjectural growth rows.

The verify_* functions sweep stated inequality families and return
certificates listing every violation instead of raising.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain
from operator import add, gt

from .growth import (
    GrowthValue,
    _naive_term,
    _refined_term,
    extra_tops,
    floor_below,
    grouping_score,
    merge_bounds,
    pack,
    partition_bound,
    partition_bound0,
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


def _profile_prefix(parts) -> list[int]:
    """[sigma_0, ..., sigma_N] for a partition of N: sigma_i is the sum of the
    i largest entries of its balanced exponent profile, zero-padded like
    `profile_sum`.

    A part m contributes m - 1, m - 3, ... down m // 2 steps, the profile of
    its balanced block ((m+1)//2, m//2) in `exponent_profile`.
    """
    profile = sorted(
        chain.from_iterable(range(m - 1, 0, -2) for m in parts), reverse=True
    )
    sigma = [0, *accumulate(profile)]
    sigma += [sigma[-1]] * (sum(parts) + 1 - len(sigma))
    return sigma


def _top_ratio(sigma: list[int], n: int) -> tuple[int, int]:
    """The top sigma_i / (i*(n-i)) over 1 <= i <= n/2 as an unreduced
    (num, den); (0, 1) when n = 1."""
    num, den = 0, 1
    for i in range(1, n // 2 + 1):
        s, t = sigma[i], i * (n - i)
        if s * den > num * t:
            num, den = s, t
    return num, den


def max_ratio(parts) -> Fraction:
    """max over 1 <= i <= N/2 of sigma_i / (i*(N-i)) at the balanced profile."""
    parts = tuple(sorted((int(v) for v in parts), reverse=True))
    validate_partition(parts)
    n = sum(parts)
    return Fraction(*_top_ratio(_profile_prefix(parts), n))


def integrability_bound(parts) -> Fraction:
    """Lower bound for 2/p integrability: 1 - max_ratio."""
    return 1 - max_ratio(parts)


def sx_goal(parts) -> Fraction:
    parts = tuple(int(v) for v in parts)
    n = sum(parts)
    return (n * n - 1) * integrability_bound(parts)


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
    parts = tuple(sorted((int(v) for v in parts), reverse=True))
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
    come from `growth.merge_bounds` without listing the coarsenings.
    """
    parts = tuple(sorted((int(v) for v in parts), reverse=True))
    validate_partition(parts)
    n = sum(parts)
    top_prov, top_conj = merge_bounds(parts)
    best_prov = top_prov - 1
    best_conj = top_conj - 1
    goal = sx_goal(parts)
    exceeds = best_prov.main > goal or (
        best_prov.main == goal and best_prov.eps > 0
    )
    return DensityRow(
        q=parts,
        provable=best_prov,
        conjectural=best_conj,
        sx_goal=goal,
        trivial=n * n - 1,
        provable_at_coarsening=partition_bound(parts) < top_prov,
        conjectural_at_coarsening=partition_bound0(parts) < top_conj,
        exceeds_goal=exceeds,
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


def verify_qd_bound(n_max: int = 60) -> Certificate:
    """Closed forms for the extremal-partition ratios, plus domination.

    Each profile is summed once into a prefix array; the ratios are compared
    with their closed forms by cross-multiplying, and qd_prime stays under qd
    when its prefix sums do, index by index up to N.
    """
    violations = []
    checked = 0
    for d in range(2, n_max + 1):
        for n in range(d, n_max + 1):
            k = n // d
            checked += 1
            q = qd(n, d)
            sigma = _profile_prefix(q)
            got = _top_ratio(sigma, sum(q))
            if got[0] * (n - k) != (d - 1) * got[1]:
                violations.append(
                    f"ratio(qd({n},{d})) = {Fraction(*got)} != "
                    f"{Fraction(d - 1, n - k)}"
                )
            if n >= 2 * d:
                q2 = qd_prime(n, d)
                sigma2 = _profile_prefix(q2)
                got2 = _top_ratio(sigma2, sum(q2))
                if got2[0] * (n - k + 1) != (d - 1) * got2[1]:
                    violations.append(
                        f"ratio(qd_prime({n},{d})) = {Fraction(*got2)} != "
                        f"{Fraction(d - 1, n - k + 1)}"
                    )
                if any(map(gt, sigma2, sigma)):
                    violations.append(
                        f"qd_prime({n},{d}) escapes the qd({n},{d}) profile"
                    )
    return Certificate(
        target="qd",
        sweep=f"2 <= d <= N <= {n_max}",
        checked_count=checked,
        violations=tuple(violations),
    )


def verify_density(n_max: int = 60) -> Certificate:
    """Sweep the three density comparisons and recheck the exceptional pairs.

    The naive-bound comparison is expected to fail exactly at N = 2d,
    N = 2d+1 and (N,d) = (6,2); on those pairs the refined bound must
    still beat the goal except at (4,2).

    The comparisons are of int ratios, by cross-multiplying: with trivial =
    N^2 - 1 and k = N // d, the target is N(N-d)/trivial and 1 - (d-1)/m is
    (m-d+1)/m. The bounds are scored on the blocks ((k, d), (1, N mod d)) of
    qd(N, d) as N^2 plus one `growth` block term per block (doubled main
    parts), read from tables built once per d.
    """
    violations = []
    checked = 0
    # the term of the remainder block (1, r), r < d; no block when r = 0
    rem_naive = [0] + [_naive_term(1, r)[0] for r in range(1, n_max)]
    rem_refined = [(0, 0)] + [_refined_term(1, r) for r in range(1, n_max)]
    for d in range(2, n_max + 1):
        # short range, d < N < 2d: only 1 - (d-1)/(N-1) against the target
        short = range(d + 1, min(2 * d, n_max + 1))
        checked += len(short)
        for n in short:
            trivial = n * n - 1
            if not (n - d) * trivial > n * (n - d) * (n - 1):
                violations.append(f"short-range case fails at ({n},{d})")
        ks = range(n_max // d + 1)
        naive = [_naive_term(t, d)[0] for t in ks]
        refined = [_refined_term(t, d) for t in ks]
        last_exceptional = 2 * d + 1 + (d == 2)
        wide = range(2 * d, n_max + 1)
        checked += len(wide)
        for n in wide:
            k, rem = divmod(n, d)
            m = n - k
            trivial = n * n - 1
            target = n * (n - d)
            if not (m - d + 2) * trivial > target * (m + 1):
                violations.append(f"secondary case fails at ({n},{d})")
            exceptional = n <= last_exceptional
            # 1 - (d-1)/m > (rbar - 1) / trivial, rbar2 = 2*rbar
            rbar2 = n * n + naive[k] + rem_naive[rem]
            strict = (m - d + 1) * 2 * trivial > (rbar2 - 2) * m
            if strict == exceptional:
                violations.append(
                    f"naive case at ({n},{d}): strict={strict}, "
                    f"expected exceptional={exceptional}"
                )
            if exceptional:
                # the refined bound less 1 against trivial * (m-d+1)/m
                a, e = refined[k]
                b, f = rem_refined[rem]
                lhs = (n * n + a + b - 2) * m
                rhs = 2 * trivial * (m - d + 1)
                passes = lhs < rhs or (lhs == rhs and e + f < 0)
                if passes != ((n, d) != (4, 2)):
                    violations.append(
                        f"refined recheck at ({n},{d}): passes={passes}"
                    )
    return Certificate(
        target="density",
        sweep=f"2 <= d < N <= {n_max}",
        checked_count=checked,
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


def _maxsl2_violations(core, n: int, tables) -> list[str]:
    """The messages for one failing (core, N) of `verify_maxsl2`.

    Scores every extra partition of the slack, to name the best value and
    list the partitions that reach it.
    """
    slack = n - sum(core)
    padded = core + (1,) * slack
    expected_best = partition_bound(padded)
    top = None
    tops = []
    for extra in partitions_of(slack):
        score = grouping_score(core + extra, tables)
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


def verify_maxsl2(n_max: int = 14) -> Certificate:
    """The padded partition maximizes growth over all merges and groupings.

    For every distinct-part core Q0 and rank N, the max of the refined bound
    over partitions Q0 + (any partition of the slack) and over all block
    groupings is attained at Q0 padded with ones, fully grouped; the argmax
    partition is unique except for slack 2 with a 2 already present. Each
    partition's best grouping comes from `split_tables`, so the groupings are
    maximized over, not enumerated.

    Nor are the partitions of the slack: per core, `growth.extra_tops`
    gives best[s], the top sum of the table entries of the sizes d >= 2,
    core parts included, over the extras of parts >= 2 that sum to s.
    Each N then adds the table entry of the remaining ones. The padded
    partition must reach the top and every extra with a part >= 2 stay
    below it, except (2,) where the tie is allowed, which must reach it.
    Scores are the tables' packed ints, and a case that fails is scored
    again by `_maxsl2_violations` to write its messages.
    """
    violations = []
    checked = 0
    tables = split_tables(n_max)
    k = n_max + 1
    ones = tables[1]
    ones_block = [pack(_refined_term, s, 1, k) for s in range(n_max + 1)]
    floor = floor_below(tables)  # below the core parts' entries too
    for core in _distinct_part_sets(n_max):
        size = sum(core)
        room = n_max - size
        best = extra_tops(
            [sum(tables[d][1] for d in core if d > room)] + [floor] * room,
            lambda d: tables[d][1:] if d in core else tables[d],
        )
        core_blocks = sum(pack(_refined_term, 1, d, k) for d in core)
        for n in range(max(size, 1), n_max + 1):
            checked += 1
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
    return Certificate(
        target="maxsl2",
        sweep=f"distinct cores, N <= {n_max}",
        checked_count=checked,
        violations=tuple(violations),
    )
