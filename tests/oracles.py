"""Naive reference implementations used to freeze expected test values.

Everything here is deliberately brute-force and independent of the package
internals. Each function recomputes its target from first principles so the
fast library versions can be checked against it; the three exceptions,
`qd_walk`, `density_walk` and `maxsl2_walk`, are the case-by-case walks
that the qd certificate's theorem, the density certificate's block
test and the maxsl2 certificate's closed rows replaced, and read
their partitions, terms and tables through `sarnakxue` so that a patched
one reaches both; `threshold_terms` and
`family_holds` are the qd certificate's general threshold scan, which its
closed forms at the ends of the threshold runs replaced; `_qd_terms`,
`_qd_prime_terms`, `_run_ends_hold`, `_qd_family_holds` and
`_profile_dominates` are those closed forms and the per-family decision
that the qd certificate's theorem replaced, kept as what the theorem is
proved on, and `Poly` is the int polynomial that the proof expands;
`_block_taylor` and `_regular_walks` are the density certificate's Taylor
coefficients over a block and its in-place test of the regular blocks,
which the density certificate's theorem replaced and is proved on. The
representation reader `global_rep_from_json` is the one the doubled-int
reader replaced: it reads each value to a Fraction and leaves every check
to the record constructors. `gamma_factor` and `index_congruence` multiply
one `Fraction` factor at a time, as the package did before its int
product.
Run as a script to print the values that the unit tests freeze.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import permutations, product
from math import comb, prod
from operator import add, gt

from upqgrowth import cohomology, sarnakxue


# ---------------------------------------------------------------------------
# bipartition enumeration


def all_bipartitions(p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
    """Every finite sequence of pairs (a,b), max(a,b) > 0, with totals (p,q)."""
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(prefix: list[tuple[int, int]], rp: int, rq: int) -> None:
        if rp == 0 and rq == 0:
            if prefix:
                out.append(tuple(prefix))
            return
        for a in range(rp + 1):
            for b in range(rq + 1):
                if a == 0 and b == 0:
                    continue
                prefix.append((a, b))
                rec(prefix, rp - a, rq - b)
                prefix.pop()

    rec([], p, q)
    return out


def reduced_bipartitions(p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
    """Subset of all_bipartitions where degenerate blocks have max 1."""
    keep = []
    for b in all_bipartitions(p, q):
        if all(x * y > 0 or x + y == 1 for (x, y) in b):
            keep.append(b)
    return keep


def fibers_by_scan(parts: tuple[int, ...], p: int, q: int):
    """Oracle for the beta-fiber enumeration: filter the full scan."""
    hits = [
        b
        for b in all_bipartitions(p, q)
        if tuple(x + y for (x, y) in b) == tuple(parts)
    ]
    # ascending lex on the flattened pair sequence
    return sorted(hits, key=lambda b: tuple(v for pair in b for v in pair))


def fiber_count_by_poly(parts: tuple[int, ...], q: int) -> int:
    """[x^q] prod_i (1 + x + ... + x^{n_i}) by explicit convolution."""
    coeffs = [1]
    for n in parts:
        nxt = [0] * (len(coeffs) + n)
        for i, c in enumerate(coeffs):
            for j in range(n + 1):
                nxt[i + j] += c
        coeffs = nxt
    return coeffs[q] if 0 <= q < len(coeffs) else 0


# ---------------------------------------------------------------------------
# residue sizes


def is_prime_power(q: int) -> bool:
    """Whether q >= 2 has exactly one prime factor, by trial division."""
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return q >= 2


def gamma_factor(ns, ideal) -> Fraction:
    """Product over the primes q and indices n of (1 - q^-i), i = 1..n, and
    of (1 + q^-i), i = 1..-n, for a negative n: one `Fraction` factor at a
    time, as `asymptotics.gamma_factor` took it before its int product."""
    value = Fraction(1)
    for q, _ in ideal:
        for n in ns:
            sign = 1 if n < 0 else -1
            for i in range(1, abs(n) + 1):
                value *= 1 + sign * Fraction(1, q**i)
    return value


def index_congruence(n: int, ideal) -> Fraction:
    """|ideal|^(n^2) * gamma_factor((n,), ideal), the norm a product of q^e."""
    return prod(q**e for q, e in ideal) ** (n * n) * gamma_factor((n,), ideal)


# ---------------------------------------------------------------------------
# Weyl dimension oracle: semistandard tableaux count


def ssyt_count(shape: tuple[int, ...], n: int) -> int:
    """Number of semistandard Young tableaux of the given shape, entries <= n."""
    rows = [r for r in shape if r > 0]
    if not rows:
        return 1

    def rec(r: int, prev: tuple[int, ...]) -> int:
        if r == len(rows):
            return 1
        total = 0
        width = rows[r]
        for row in product(range(1, n + 1), repeat=width):
            if any(row[i] > row[i + 1] for i in range(width - 1)):
                continue  # rows weakly increase
            if prev and any(row[j] <= prev[j] for j in range(width)):
                continue  # columns strictly increase
            total += rec(r + 1, row)
        return total

    return rec(0, ())


def irrep_dim_from_infchar(lam: tuple[Fraction, ...]) -> int:
    """Dimension via tableaux of the highest weight lam - rho, shifted >= 0."""
    n = len(lam)
    rho = [Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    weight = [lam[i] - rho[i] for i in range(n)]
    if any(w.denominator != 1 for w in weight):
        raise ValueError("not integral")
    shift = -min(int(w) for w in weight)
    mu = tuple(int(w) + shift for w in weight)
    return ssyt_count(mu, n)


# ---------------------------------------------------------------------------
# component-group character: full unsimplified exponent


def mr_full_character(b: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Sign vector with exponent p_i*a_{<i} + q_i*(a_{<i}+1) + a_i(a_i-1)/2."""
    signs = []
    before = 0
    for (pi, qi) in b:
        a = pi + qi
        e = pi * before + qi * (before + 1) + a * (a - 1) // 2
        signs.append((-1) ** (e % 2))
        before += a
    return tuple(signs)


# ---------------------------------------------------------------------------
# Hodge-weight scan


def hodge_data(b: tuple[tuple[int, int], ...]):
    """(lowest degree, plus, minus, shift cap) summed out directly."""
    r = len(b)
    p = sum(x for x, _ in b)
    q = sum(y for _, y in b)
    inner = sum(x * y for x, y in b)
    plus = sum(b[i][0] * b[j][1] for i in range(r) for j in range(r) if i < j)
    minus = sum(b[i][0] * b[j][1] for i in range(r) for j in range(r) if i > j)
    return p * q - inner, plus, minus, inner


def is_step_one(seq: tuple[Fraction, ...]) -> bool:
    return all(seq[i] - seq[i + 1] == 1 for i in range(len(seq) - 1))


def adapted(lam: tuple[Fraction, ...], parts: tuple[int, ...]) -> bool:
    pos = 0
    for n in parts:
        if not is_step_one(lam[pos : pos + n]):
            return False
        pos += n
    return True


def character_error(p: int, q: int, b, values) -> str | None:
    """The first complaint about a rep's character, checked in Fractions.

    For a reduced bipartition b with totals (p, q). The order: strictly
    decreasing, length p + q, regular integral (Z for odd rank, Z + 1/2 for
    even), adapted to b. None when the character passes every check.
    """
    lam = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
    if any(lam[i] <= lam[i + 1] for i in range(len(lam) - 1)):
        return f"character must be strictly decreasing: {lam}"
    n = p + q
    if len(lam) != n:
        return "character rank does not match signature"
    offset = Fraction(0) if n % 2 else Fraction(1, 2)
    if any((x - offset).denominator != 1 for x in lam):
        return "infinitesimal character must be regular integral"
    if not adapted(lam, tuple(x + y for x, y in b)):
        return "character is not adapted to the bipartition"
    return None


def reps_with_weight_by_scan(p, q, lam, a, b):
    hits = []
    for bp in reduced_bipartitions(p, q):
        parts = tuple(x + y for x, y in bp)
        if not adapted(lam, parts):
            continue
        low, plus, minus, cap = hodge_data(bp)
        for t in range(cap + 1):
            if (plus + t, minus + t) == (a, b):
                hits.append(bp)
                break
    return sorted(hits, key=lambda bb: tuple(v for pair in bb for v in pair))


# ---------------------------------------------------------------------------
# single-place Arthur-SL2 candidates by adjacent merging

def sl2_by_adjacent_merge(b, lam):
    """All multisets of part sums from groupings of consecutive blocks.

    A group is a single block, or >= 2 consecutive degenerate blocks of the
    same orientation; the merged infinitesimal-character segment must stay a
    step-one progression. Independent of the run-splitting logic under test.
    """
    parts = tuple(x + y for x, y in b)
    n_blocks = len(b)
    starts = []
    pos = 0
    for x in parts:
        starts.append(pos)
        pos += x

    def degenerate_type(i):
        x, y = b[i]
        if (x, y) == (1, 0):
            return "p"
        if (x, y) == (0, 1):
            return "q"
        return None

    results = set()

    def rec(i, acc):
        if i == n_blocks:
            results.add(tuple(sorted(acc, reverse=True)))
            return
        t = degenerate_type(i)
        j_max = i + 1
        if t is not None:
            while j_max < n_blocks and degenerate_type(j_max) == t:
                j_max += 1
        for j in range(i + 1, j_max + 1):
            lo = starts[i]
            hi = starts[j - 1] + parts[j - 1]
            if is_step_one(lam[lo:hi]):
                rec(j, acc + [hi - lo])

    rec(0, [])
    return results


# ---------------------------------------------------------------------------
# growth values over explicit block groupings


def naive_value(groups) -> Fraction:
    n = sum(t * d for t, d in groups)
    return Fraction(n * n + sum(t * t * d for t, d in groups), 2)


def refined_value(groups) -> tuple[Fraction, int]:
    val = naive_value(groups)
    eps = 0
    for t, d in groups:
        if t == 1:
            val -= Fraction(d * d + d, 2) - 1
        elif t == 2:
            val -= 3 * d - 3
        elif t == 3 and d > 1:
            val -= 5 * d - 5
            eps += d
    return val, eps


def conjectural_value(groups) -> tuple[Fraction, int]:
    n = sum(t * d for t, d in groups)
    val = Fraction(n * n - sum(t * t * d * d for t, d in groups), 2)
    for t, d in groups:
        val += t * t + Fraction(t * (t - 1) * (d * d - 1), 2)
    return val, 0


def partitions_of(n: int):
    def rec(rest, mx):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, mx), 0, -1):
            for tail in rec(rest - k, k):
                yield (k,) + tail

    yield from rec(n, n)


def all_groupings(q_parts):
    """Every multiset of (T, d) blocks whose SL2 restriction is q_parts."""
    counts = Counter(q_parts)
    ds = sorted(counts)
    for combo in product(*[list(partitions_of(counts[d])) for d in ds]):
        groups = []
        for d, pt in zip(ds, combo):
            groups.extend((t, d) for t in pt)
        yield tuple(groups)


def best_grouping(q_parts, value=refined_value) -> tuple[Fraction, int]:
    return max(value(g) for g in all_groupings(q_parts))


def one_coarsenings(q_parts):
    ones = sum(1 for x in q_parts if x == 1)
    rest = [x for x in q_parts if x != 1]
    out = set()
    for pt in partitions_of(ones):
        out.add(tuple(sorted(rest + list(pt), reverse=True)))
    return out


# ---------------------------------------------------------------------------
# Sarnak-Xue profiles and the qd / density sweeps, in Fractions


def balanced_profile(q_parts) -> list[int]:
    """Exponents part-1, part-3, ... (part // 2 of them), largest first."""
    profile = []
    for part in q_parts:
        profile.extend(part - 1 - 2 * i for i in range(part // 2))
    return sorted(profile, reverse=True)


def max_ratio(q_parts) -> Fraction:
    """max over 1 <= i <= N/2 of sigma_i / (i(N-i)), one Fraction per i."""
    n = sum(q_parts)
    profile = balanced_profile(q_parts)
    ratio = Fraction(0)
    for i in range(1, n // 2 + 1):
        ratio = max(ratio, Fraction(sum(profile[:i]), i * (n - i)))
    return ratio


def sx_goal(q_parts) -> Fraction:
    """The density goal (N^2 - 1)(1 - max_ratio)."""
    n = sum(q_parts)
    return (n * n - 1) * (1 - max_ratio(q_parts))


def qd(n: int, d: int) -> tuple[int, ...]:
    k, r = divmod(n, d)
    return (d,) * k + ((r,) if r else ())


def qd_prime(n: int, d: int) -> tuple[int, ...]:
    k, r = divmod(n, d)
    if r == d - 1:
        parts = (d,) * (k - 1) + (d - 1, d - 1, 1)
    else:
        parts = (d,) * (k - 1) + (d - 1, r + 1)
    return tuple(sorted(parts, reverse=True))


def grouped(q_parts):
    counts = Counter(q_parts)
    return tuple((counts[d], d) for d in sorted(counts, reverse=True))


def dominant(cands):
    """The top refined value over the candidates, fully grouped, as a
    (Fraction, eps) pair; the smallest maximizer; every maximizer in order."""
    values = [refined_value(grouped(q)) for q in cands]
    best = max(values)
    tops = [q for q, value in zip(cands, values) if value == best]
    return best, min(tops), tops


def qd_sweep(n_max: int) -> tuple[int, list[str]]:
    """(cases, violations) of the qd certificate, every sum recomputed."""
    violations = []
    checked = 0
    for d in range(2, n_max + 1):
        for n in range(d, n_max + 1):
            k = n // d
            checked += 1
            got = max_ratio(qd(n, d))
            want = Fraction(d - 1, n - k)
            if got != want:
                violations.append(f"ratio(qd({n},{d})) = {got} != {want}")
            if n >= 2 * d:
                got2 = max_ratio(qd_prime(n, d))
                want2 = Fraction(d - 1, n - k + 1)
                if got2 != want2:
                    violations.append(
                        f"ratio(qd_prime({n},{d})) = {got2} != {want2}"
                    )
                prof = balanced_profile(qd(n, d))
                prof2 = balanced_profile(qd_prime(n, d))
                if any(
                    sum(prof2[:i]) > sum(prof[:i])
                    for i in range(1, n + 1)
                ):
                    violations.append(
                        f"qd_prime({n},{d}) escapes the qd({n},{d}) profile"
                    )
    return checked, violations


def qd_walk(n_max: int) -> sarnakxue.Certificate:
    """`sarnakxue.verify_qd_bound` walked case by case, as it ran before its
    family lemmas: each profile of qd and qd_prime, read through
    `sarnakxue`, summed into a prefix array and its top ratio scanned."""
    return qd_certificate(n_max, qd_cases(n_max))


def qd_certificate(n_max: int, cases) -> sarnakxue.Certificate:
    """The qd certificate of the walk's cases (N, d, messages) up to n_max."""
    cases = list(cases)
    return sarnakxue.Certificate(
        target="qd",
        sweep=f"2 <= d <= N <= {n_max}",
        checked_count=len(cases),
        violations=tuple(m for _, _, messages in cases for m in messages),
    )


def qd_cases(n_max: int):
    """The qd walk's cases (N, d), d outermost, each with its violation
    messages, which do not depend on n_max."""
    for d in range(2, n_max + 1):
        for n in range(d, n_max + 1):
            k = n // d
            messages = []
            q = sarnakxue.qd(n, d)
            sigma = sarnakxue._profile_prefix(q)
            got = sarnakxue._top_ratio(sigma, sarnakxue._pair_weights(sum(q)))
            if got[0] * (n - k) != (d - 1) * got[1]:
                messages.append(
                    f"ratio(qd({n},{d})) = {Fraction(*got)} != "
                    f"{Fraction(d - 1, n - k)}"
                )
            if n >= 2 * d:
                q2 = sarnakxue.qd_prime(n, d)
                sigma2 = sarnakxue._profile_prefix(q2)
                got2 = sarnakxue._top_ratio(sigma2, sarnakxue._pair_weights(sum(q2)))
                if got2[0] * (n - k + 1) != (d - 1) * got2[1]:
                    messages.append(
                        f"ratio(qd_prime({n},{d})) = {Fraction(*got2)} != "
                        f"{Fraction(d - 1, n - k + 1)}"
                    )
                if any(s2 > s1 for s1, s2 in zip(sigma, sigma2)):
                    messages.append(
                        f"qd_prime({n},{d}) escapes the qd({n},{d}) profile"
                    )
            yield n, d, messages


def threshold_terms(d: int, tail):
    """An iterator of (A, B) at the thresholds v = 1, 2, ... below
    max(tail) of the family d^k + tail of `sarnakxue.verify_qd_bound`,
    whose F at the top-x point of threshold v is k*A + B: with e = d - 1,
    R = sum(tail), j = (d+1-v)//2, j' the sum and s the sum of c*(m-c)
    over the counts c = (m+1-v)//2 > 0 of the parts m of tail,
    A = e*(j*(R-j') + j'*(d-j) - s) - R*j*(d-j) and B = e*j'*(R-j') - R*s.
    The general scan that the sweep's closed forms are checked against."""
    e = d - 1
    total = sum(tail)
    for v in range(1, max(tail, default=0)):
        j = (d + 1 - v) // 2
        jt = s = 0
        for m in tail:
            c = (m + 1 - v) // 2
            if c > 0:
                jt += c
                s += c * (m - c)
        yield (
            e * (j * (total - jt) + jt * (d - j) - s) - total * j * (d - j),
            e * jt * (total - jt) - total * s,
        )


def family_holds(d: int, tail, k_hi: int) -> bool:
    """Whether the top profile ratio of d^k + tail is (d - 1)/(N - k) for
    every 1 <= k <= k_hi, by the ratio lemma of `sarnakxue.verify_qd_bound`:
    k*A + B >= 0 at both ends, k = 1 and k = k_hi, at every threshold of
    `threshold_terms`. The exact scan that `_qd_family_holds`
    decides at the ends of the threshold runs."""
    for a, b in threshold_terms(d, tail):
        if a + b < 0 or k_hi * a + b < 0:
            return False
    return True


def _qd_terms(d: int, r: int, v: int) -> tuple[int, int]:
    """(A, B) of the tail T = (r) of `sarnakxue.verify_qd_bound` at the threshold
    1 <= v < r, in closed form: with j, delta = divmod(d+1-v, 2) and
    c, gamma = divmod(r+1-v, 2), A = r*j*(j-1) - (d-1)*c*(c+gamma-delta)
    and B = c*(r-c)*(d-1-r)."""
    e = d - 1
    j, delta = divmod(d + 1 - v, 2)
    c, gamma = divmod(r + 1 - v, 2)
    return r * j * (j - 1) - e * c * (c + gamma - delta), c * (r - c) * (e - r)


def _qd_prime_terms(d: int, r: int, v: int) -> tuple[int, int]:
    """(A, B) of the tail T' = (d-1, r+1), r <= d-2, of `sarnakxue.verify_qd_bound`
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
    `sarnakxue.verify_qd_bound`: of T (`_qd_terms`) at kappa = 1 and k_hi and, for
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
    prefix = sarnakxue._profile_prefix
    return not any(map(gt, prefix(low), prefix(high)))




class Poly:
    """An int polynomial in n variables: a dict from exponent tuples to
    nonzero int coefficients. It adds, subtracts, multiplies and takes int
    powers, and divides by an int m with remainder when every coefficient
    but the constant one is a multiple of m, so a closed form written with
    divmod and // runs on it unchanged, over one class of residues."""

    def __init__(self, terms: dict, n: int):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def var(cls, i: int, n: int) -> "Poly":
        return cls({tuple(int(k == i) for k in range(n)): 1}, n)

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly({(0,) * self.n: other}, self.n)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms, self.n)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()}, self.n)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        pairs = product(self.terms.items(), self._lift(other).terms.items())
        for (e1, c1), (e2, c2) in pairs:
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(terms, self.n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return prod([self] * k, start=self._lift(1))

    def __divmod__(self, m: int):
        rem = self.terms.get((0,) * self.n, 0) % m
        quotient = {}
        for e, c in (self - rem).terms.items():
            quotient[e], left = divmod(c, m)
            if left:
                raise ValueError(f"{self.terms} is not constant modulo {m}")
        return Poly(quotient, self.n), rem

    def __floordiv__(self, m: int):
        return divmod(self, m)[0]

    def __call__(self, *point) -> int:
        return sum(c * prod(map(pow, point, e)) for e, c in self.terms.items())


def _block_taylor(k: int, d: int, r0: int, naive: int, slope: int):
    """(c0, c1, c2, c3): the Taylor coefficients, lowest first, at
    y = r - r0 of lhs - rhs of the strict naive comparison of
    `sarnakxue.verify_density` over the block N = k*d + r, given the (k, d)
    term less 2 and the remainder term slope * r; the formulas are in its
    docstring. Each factor is expanded at r0: m = m0 + y and
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
    """The regular blocks of `sarnakxue.verify_density` that fail its lemma,
    by d: d -> [(k, naive, first, end)], k ascending, each block's cases
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
            term = sarnakxue._naive_term(k, d)[0]
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


def density_sweep(n_max: int) -> tuple[int, list[str]]:
    """(cases, violations) of the density certificate, in Fractions."""
    violations = []
    checked = 0
    for d in range(2, n_max + 1):
        for n in range(d + 1, n_max + 1):
            checked += 1
            k = n // d
            trivial = Fraction(n * n - 1)
            target = Fraction(n * (n - d), n * n - 1)
            if n < 2 * d:
                if not 1 - Fraction(d - 1, n - 1) > target:
                    violations.append(f"short-range case fails at ({n},{d})")
                continue
            if not 1 - Fraction(d - 1, n - k + 1) > target:
                violations.append(f"secondary case fails at ({n},{d})")
            lhs = 1 - Fraction(d - 1, n - k)
            rbar = naive_value(grouped(qd(n, d)))
            exceptional = n == 2 * d or n == 2 * d + 1 or (n, d) == (6, 2)
            strict = lhs > (rbar - 1) / trivial
            if strict == exceptional:
                violations.append(
                    f"naive case at ({n},{d}): strict={strict}, "
                    f"expected exceptional={exceptional}"
                )
            if exceptional:
                main, eps = refined_value(grouped(qd(n, d)))
                goal = trivial * lhs
                passes = main - 1 < goal or (main - 1 == goal and eps < 0)
                if passes != ((n, d) != (4, 2)):
                    violations.append(
                        f"refined recheck at ({n},{d}): passes={passes}"
                    )
    return checked, violations


def density_walk(n_max: int) -> sarnakxue.Certificate:
    """`sarnakxue.verify_density` walked case by case, every block term read
    through `sarnakxue` at the same places and as often."""
    violations = []
    checked = 0
    rem_naive = [0] + [
        sarnakxue._naive_term(1, r)[0] for r in range(1, n_max // 2)
    ]
    rem_refined = ((0, 0), sarnakxue._refined_term(1, 1))
    for d in range(2, n_max + 1):
        short = range(d + 1, min(2 * d, n_max + 1))
        checked += len(short)
        for n in short:
            trivial = n * n - 1
            if not (n - d) * trivial > n * (n - d) * (n - 1):
                violations.append(f"short-range case fails at ({n},{d})")
        checked += len(range(2 * d, n_max + 1))
        last_exceptional = 2 * d + 1 + (d == 2)
        for k in range(2, n_max // d + 1):
            naive = sarnakxue._naive_term(k, d)[0] - 2
            first = k * d
            stop = min(first + d, n_max + 1)
            for rem, n in zip(rem_naive, range(first, stop)):
                m = n - k
                nn = n * n
                trivial = nn - 1
                if not (m - d + 2) * trivial > n * (n - d) * (m + 1):
                    violations.append(f"secondary case fails at ({n},{d})")
                strict = (m - d + 1) * 2 * trivial > (nn + naive + rem) * m
                if n <= last_exceptional:
                    if strict:
                        violations.append(
                            f"naive case at ({n},{d}): strict=True, "
                            "expected exceptional=True"
                        )
                    a, e = sarnakxue._refined_term(k, d)
                    b, f = rem_refined[n - first]
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
    return sarnakxue.Certificate(
        target="density",
        sweep=f"2 <= d < N <= {n_max}",
        checked_count=checked,
        violations=tuple(violations),
        notes=(
            ("refined recheck fails only at (N,d) = (4,2)",)
            if n_max >= 4
            else ()
        ),
    )


def maxsl2_walk(n_max: int) -> sarnakxue.Certificate:
    """`sarnakxue.verify_maxsl2` walked core by core, one `extra_tops`
    knapsack per core, as it ran before its closed rows; every
    helper is read through `sarnakxue`, so a patched table reaches both."""
    violations = []
    checked = 0
    tables = sarnakxue.split_tables(n_max)
    k = n_max + 1
    ones = tables.get(1, [0])  # no row at n_max = 0, which has no case
    ones_block = [
        sarnakxue.pack(sarnakxue._refined_term, s, 1, k) for s in range(n_max + 1)
    ]
    floor = sarnakxue.floor_below(tables)  # below the core parts' entries too
    for core in sarnakxue._distinct_part_sets(n_max):
        size = sum(core)
        room = n_max - size
        best = sarnakxue.extra_tops(
            [sum(tables[d][1] for d in core if d > room)] + [floor] * room,
            range(2, room + 1),
            lambda d: tables[d][1:] if d in core else tables[d],
        )
        core_blocks = sum(
            sarnakxue.pack(sarnakxue._refined_term, 1, d, k) for d in core
        )
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
                violations.extend(sarnakxue._maxsl2_violations(core, n, tables))
    return sarnakxue.Certificate(
        target="maxsl2",
        sweep=f"distinct cores, N <= {n_max}",
        checked_count=checked,
        violations=tuple(violations),
    )


def merge_bounds(q_parts) -> tuple[tuple[Fraction, int], tuple[Fraction, int]]:
    """Top refined and conjectural values over the one-merge coarsenings of
    q_parts, each with equal parts fully grouped."""
    coarse = one_coarsenings(q_parts)
    return (
        max(refined_value(grouped(qq)) for qq in coarse),
        max(conjectural_value(grouped(qq)) for qq in coarse),
    )


def extra_tops(start, sizes, gains) -> list:
    """Entry s: the top of start[s - x] plus gains(d)[e] for each size d in
    sizes, over every extra of parts in sizes summing to x <= s with e parts
    d, each extra listed and scored on its own; room = len(start) - 1 and
    every size lies in 2..room. A start entry None is never used, and an
    entry no extra reaches is None.
    """
    room = len(start) - 1
    out = []
    for s in range(room + 1):
        scores = []
        for x in range(s + 1):
            if start[s - x] is None:
                continue
            for extra in partitions_of(x):
                if not set(extra) <= set(sizes):
                    continue
                count = Counter(extra)
                gain = sum(gains(d)[count[d]] for d in sizes)
                scores.append(start[s - x] + gain)
        out.append(max(scores, default=None))
    return out


def merged_partitions(beta_plus, run_lengths) -> set[tuple[int, ...]]:
    """beta_plus merged with one partition of each run length, over the full
    product of the runs' partitions."""
    out = set()
    for combo in product(*[list(partitions_of(n)) for n in run_lengths]):
        parts = list(beta_plus)
        for pt in combo:
            parts.extend(pt)
        out.add(tuple(sorted(parts, reverse=True)))
    return out


def value_text(value) -> str:
    """A (main, eps) pair as the library prints it: 7, 7/2+eps, 7-3*eps."""
    main, eps = value
    if eps == 0:
        return str(main)
    count = "" if abs(eps) == 1 else f"{abs(eps)}*"
    return f"{main}{'+' if eps > 0 else '-'}{count}eps"


def maxsl2_cases(n_max: int, value=refined_value) -> list[tuple[int, list[str]]]:
    """(N, violations) for each case of the maxsl2 certificate, by enumeration.

    For every core of distinct parts >= 2 and every N, each partition core +
    extra, extra any partition of the slack, is scored by its best grouping
    under value; the top must be the refined value of the padded partition
    fully grouped, and reached by the padded partition alone, or also by
    core + (2,) when the slack is 2 and the core holds a 2. The cases of a
    smaller n_max are those with a smaller N.
    """
    cores = [
        p
        for total in range(n_max + 1)
        for p in partitions_of(total)
        if 1 not in p and len(set(p)) == len(p)
    ]
    best = {}
    cases = []
    for core in cores:
        size = sum(core)
        for n in range(max(size, 1), n_max + 1):
            slack = n - size
            padded = core + (1,) * slack
            scored = {}
            for extra in partitions_of(slack):
                q = tuple(sorted(core + extra, reverse=True))
                if q not in best:
                    best[q] = best_grouping(q, value)
                scored[q] = best[q]
            top = max(scored.values())
            violations = []
            if top != refined_value(grouped(padded)):
                violations.append(
                    f"core {core}, N={n}: best {value_text(top)} "
                    "not at padded partition"
                )
            argmax = sorted(q for q, v in scored.items() if v == top)
            expected = {padded}
            if slack == 2 and 2 in core:
                expected.add(tuple(sorted(core + (2,), reverse=True)))
            if set(argmax) != expected:
                violations.append(f"core {core}, N={n}: argmax {argmax}")
            cases.append((n, violations))
    return cases


def table_row(q_parts, best=best_grouping):
    """(provable main, eps, italic, conjectural main, italic, goal, trivial);
    best(q, value) scores q at its best grouping, as `best_grouping` does."""
    n = sum(q_parts)
    q_parts = tuple(sorted(q_parts, reverse=True))
    best_r = {qq: best(qq, refined_value) for qq in one_coarsenings(q_parts)}
    best_r0 = {qq: best(qq, conjectural_value) for qq in one_coarsenings(q_parts)}
    top_r = max(best_r.values())
    top_r0 = max(best_r0.values())
    italic_r = best_r[q_parts] < top_r
    italic_r0 = best_r0[q_parts] < top_r0

    return (
        top_r[0] - 1,
        top_r[1],
        italic_r,
        top_r0[0] - 1,
        italic_r0,
        sx_goal(q_parts),
        n * n - 1,
    )


def density_row(q_parts, best=best_grouping) -> sarnakxue.DensityRow:
    """The `sarnakxue.DensityRow` of q_parts from `table_row`, with the
    types the library gives each field."""
    pm, pe, pi, cm, ci, goal, trivial = table_row(q_parts, best)
    return sarnakxue.DensityRow(
        q=tuple(sorted(q_parts, reverse=True)),
        provable=sarnakxue.GrowthValue(pm, pe),
        conjectural=sarnakxue.GrowthValue(cm, 0),
        sx_goal=goal,
        trivial=trivial,
        provable_at_coarsening=pi,
        conjectural_at_coarsening=ci,
        exceeds_goal=pm > goal or (pm == goal and pe > 0),
    )


# ---------------------------------------------------------------------------
# dominant shapes in Fractions: the run decomposition, the placement of parts
# on runs and the shape assembly, as the library did them before it moved to
# doubled ints


def block_expansion(xi: Fraction, d: int) -> tuple[Fraction, ...]:
    if d < 1:
        raise ValueError("block length must be positive")
    return tuple(xi + Fraction(d + 1, 2) - l for l in range(1, d + 1))


def total_character(blocks) -> tuple[Fraction, ...]:
    """Sorted block expansions; a collision raises ValueError with the
    library's IrregularCharacterError text."""
    values: list[Fraction] = []
    for xi, d in blocks:
        values.extend(block_expansion(Fraction(xi), d))
    values.sort(reverse=True)
    for a, b in zip(values, values[1:]):
        if a == b:
            raise ValueError(f"total character has a repeated entry {a}")
    return tuple(values)


def run_data(blocks, lam):
    """(beta_plus, runs, big) of one place: the block sums > 1 descending,
    the maximal step-one runs of same-side degenerate blocks (p runs, then q
    runs) and (length, centre) per mixed block."""
    beta_plus, big = [], []
    runs = {"p": [], "q": []}
    current, kind = [], None
    pos = 0
    for x, y in blocks:
        n = x + y
        seg = lam[pos : pos + n]
        pos += n
        if n > 1:
            if current:
                runs[kind].append(tuple(current))
            current, kind = [], None
            beta_plus.append(n)
            big.append((n, (seg[0] + seg[-1]) / 2))
            continue
        side = "p" if x == 1 else "q"
        if side == kind and current[-1] - seg[0] == 1:
            current.append(seg[0])
        else:
            if current:
                runs[kind].append(tuple(current))
            current, kind = [seg[0]], side
    if current:
        runs[kind].append(tuple(current))
    return (
        tuple(sorted(beta_plus, reverse=True)),
        tuple(runs["p"] + runs["q"]),
        tuple(big),
    )


def _submultisets_with_sum(counter: Counter, target: int):
    vals = sorted(counter, reverse=True)

    def rec(i, remaining, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        if i == len(vals):
            return
        v = vals[i]
        for k in range(min(counter[v], remaining // v), -1, -1):
            yield from rec(i + 1, remaining - v * k, acc + [v] * k)

    yield from rec(0, target, [])


def _distributions(leftover: Counter, run_lengths):
    if not run_lengths:
        if sum(leftover.values()) == 0:
            yield []
        return
    for sub in _submultisets_with_sum(leftover, run_lengths[0]):
        for tail in _distributions(leftover - Counter(sub), run_lengths[1:]):
            yield [sub] + tail


def _chunkings(run_values, sub):
    for arr in sorted(set(permutations(sub))):
        s = 0
        chunks = []
        for c in arr:
            chunks.append((c, (run_values[s] + run_values[s + c - 1]) / 2))
            s += c
        yield tuple(chunks)


def local_assignments(place, q_parts):
    """Every placement of q_parts on the place: (length, centre) pairs."""
    beta_plus, runs, big = place
    leftover = Counter(q_parts)
    leftover.subtract(beta_plus)
    if min(leftover.values(), default=0) < 0:
        return []
    out = []
    for alloc in _distributions(+leftover, [len(r) for r in runs]):
        pools = [list(_chunkings(r, sub)) for r, sub in zip(runs, alloc)]
        for combo in product(*pools):
            out.append(big + tuple(ch for chunks in combo for ch in chunks))
    return out


def shape_blocks(places, tops, rank: int) -> list[tuple]:
    """Every shape realizing a partition in tops.

    places holds (blocks, lam) per place. A shape is a tuple of blocks
    (T, d, centres per place, eta), d descending; the shapes are
    deduplicated and sorted by (d, T, eta, centres) per block, and each
    must expand to lam at every place.
    """
    data = [run_data(blocks, lam) for blocks, lam in places]
    shapes = []
    for q_parts in tops:
        mult = Counter(q_parts)
        pools = [local_assignments(place, q_parts) for place in data]
        for combo in product(*pools):
            shape = tuple(
                (
                    mult[d],
                    d,
                    tuple(
                        tuple(sorted((c for dd, c in a if dd == d), reverse=True))
                        for a in combo
                    ),
                    -1 if (rank - d) % 2 else 1,
                )
                for d in sorted(mult, reverse=True)
            )
            shapes.append(shape)
    unique = list(dict.fromkeys(shapes))
    unique.sort(key=lambda shape: [(d, t, eta, cs) for t, d, cs, eta in shape])
    for shape in unique:
        for v, (_, lam) in enumerate(places):
            pairs = [(c, d) for t, d, cs, eta in shape for c in cs[v]]
            if total_character(pairs) != tuple(lam):
                raise AssertionError("shape does not rebuild the character")
    return unique


def dominant_shapes(places, tops, rank: int) -> list[dict]:
    """`shape_blocks` in `delta-max` JSON form."""
    return [
        {
            "blocks": [
                [t, d, [[str(c) for c in place] for place in cs], eta]
                for t, d, cs, eta in shape
            ]
        }
        for shape in shape_blocks(places, tops, rank)
    ]


# ---------------------------------------------------------------------------
# the odd-GSK parity test in Fractions, as the library did it before it read
# each long block's own centre: every stretch of the shape is rebuilt and
# sorted at each place, and each stretch is matched against the segments


def chi4(a: int) -> int:
    return 0 if a % 4 in (0, 1) else 1


def stretch_q(place, values) -> int:
    """q-weight of a value stretch in a place (p, q, bipartition, lam)."""
    _, _, blocks, lam = place
    vset = set(values)
    deg_lookup = {}
    i = 0
    for x, y in blocks:
        n = x + y
        seg = lam[i : i + n]
        i += n
        if n > 1:
            if set(seg) == vset:
                return y
            if set(seg) & vset:
                raise ValueError("stretch straddles a nondegenerate block boundary")
        else:
            deg_lookup[seg[0]] = y
    if not vset <= set(deg_lookup):
        raise ValueError("stretch values missing from the local character")
    return sum(deg_lookup[v] for v in values)


def is_odd_gsk(blocks) -> bool:
    """Shape blocks (T, d, ...) of pairwise distinct odd lengths, one of them
    1, and T = 1 on every longer block."""
    pairs = sorted(((t, d) for t, d, *_ in blocks), key=lambda td: td[1])
    ds = [d for _, d in pairs]
    gsk = (
        len(set(ds)) == len(ds)
        and ds[0] == 1
        and all(t == 1 for t, d in pairs if d > 1)
    )
    return gsk and all(d % 2 == 1 for d in ds)


def parity_test(places, blocks) -> bool:
    """The odd-GSK parity test of places (p, q, bipartition, lam) and shape
    blocks (T, d, centres per place, eta), with the library's messages."""
    if not is_odd_gsk(blocks):
        raise ValueError("parity test only applies to odd GSK shapes")
    if len(blocks[0][2]) != len(places):
        raise ValueError("shape and representation disagree on places")
    n = places[0][0] + places[0][1]
    unram = (n * (n - 1) // 2) * len(places) + sum(q for _, q, _, _ in places)
    if unram % 2:
        return False
    for d in [d for _, d, _, _ in blocks if d > 1]:
        t = 0
        for v, place in enumerate(places):
            parts = sorted(
                (
                    (block_expansion(c, bd), bd)
                    for _, bd, centres, _ in blocks
                    for c in centres[v]
                ),
                key=lambda vd: vd[0][0],
                reverse=True,
            )
            idx = next(i for i, (_, dd) in enumerate(parts) if dd == d)
            t += idx + stretch_q(place, parts[idx][0]) + chi4(d)
        if t % 2:
            return False
    return True


def weyl_dimension(lam) -> Fraction:
    """Product over i < j of (lam_i - lam_j) / (j - i)."""
    n = len(lam)
    return prod(
        (Fraction(lam[i] - lam[j], j - i) for i in range(n) for j in range(i + 1, n)),
        start=Fraction(1),
    )


def leading_term(places, tops, convention: str = "binom"):
    """(exponent, L-indices, coeff, symbols, zero) of the places (p, q,
    bipartition, lam) whose dominant SL(2)-types are tops, summed shape by
    shape as the library did before it folded the places one at a time.

    Every shape of the product of the places' placements passes
    `parity_test` or not, and a passing one adds the Weyl dimension of its
    1-block over the packet size at each place. The refusals carry the
    library's messages.
    """
    rank = places[0][0] + places[0][1]
    shapes = shape_blocks([(b, lam) for _, _, b, lam in places], tops, rank)
    if not all(is_odd_gsk(s) for s in shapes):
        raise ValueError("dominant shapes are not all odd GSK")
    types = {tuple(sorted(d for t, d, _, _ in s for _ in range(t))) for s in shapes}
    if len(types) != 1:
        raise ValueError("dominant SL(2)-type is not unique")
    pairs = sorted(((t, d) for t, d, _, _ in shapes[0]), key=lambda td: td[1])
    t1, k = pairs[0][0], len(pairs)
    size = rank if convention == "example1" else comb(t1, t1 // 2)
    coeff = Fraction(0)
    for s in shapes:
        if parity_test(places, s):
            (ones,) = [cs for _, d, cs, _ in s if d == 1]
            coeff += prod((weyl_dimension(lam) / size for lam in ones), start=1)
    return (
        refined_value(grouped(types.pop())),
        (t1,) + (1,) * (k - 1) + (-1,) * (k - 1),
        coeff,
        (f"VOL_RATIO(U({t1})xU(1)^{k - 1})",),
        coeff == 0,
    )


# ---------------------------------------------------------------------------
# the representation's JSON reader as it was before the doubled-int reader:
# every value read to a Fraction, then checked by the LocalRep constructor


def fraction_from_json(value) -> Fraction:
    r"""Fraction(value), with the ASCII texts -?\d+ and -?\d+/2 read by int,
    and a text or Decimal whose exponent in scientific notation is 4300 or
    more in size refused."""
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        negative = num[:1] == "-"
        digits = num[negative:]
        if digits.isdigit() and (not slash or den == "2"):
            n = -int(digits) if negative else int(digits)
            return Fraction(n, 2) if slash else Fraction(n)
    if isinstance(value, (str, Decimal)):
        value = str(value)
        head, e, tail = value.lower().rpartition("e")
        if not e:
            head, tail = tail, "0"
        try:
            size = abs(Decimal(head).adjusted() + int(tail))
        except (ArithmeticError, ValueError):
            size = 0
        if size >= 4300:
            raise ValueError(
                "infchar entries take exponents below 4300 in scientific "
                "notation"
            )
    return Fraction(value)


def local_rep_from_json(data: dict) -> cohomology.LocalRep:
    data = cohomology._container_from_json(data, dict, "each place")
    for field in ("signature", "bipartition", "infchar"):
        if field not in data:
            raise ValueError(f'missing field "{field}"')
    signature = cohomology._pair_from_json(data["signature"], "signature")
    p, q = (cohomology._int_from_json(v, "signature") for v in signature)
    blocks = []
    bipartition = cohomology._container_from_json(
        data["bipartition"], list, "bipartition"
    )
    for entry in bipartition:
        x, y = cohomology._pair_from_json(entry, "each bipartition entry")
        blocks.append(
            (
                cohomology._int_from_json(x, "bipartition"),
                cohomology._int_from_json(y, "bipartition"),
            )
        )
    infchar = cohomology._container_from_json(data["infchar"], list, "infchar")
    if any(type(s) is bool for s in infchar):
        raise ValueError("infchar entries must be numbers, got boolean")
    lam = tuple(fraction_from_json(s) for s in infchar)
    return cohomology.LocalRep(p=p, q=q, blocks=tuple(blocks), lam=lam)


def global_rep_from_json(data: dict) -> cohomology.GlobalRep:
    data = cohomology._container_from_json(data, dict, "the representation")
    if "places" in data:
        places = cohomology._container_from_json(data["places"], list, "places")
        places = tuple(local_rep_from_json(d) for d in places)
    else:
        places = (local_rep_from_json(data),)
    return cohomology.GlobalRep(places=places)


# ---------------------------------------------------------------------------


def main() -> None:
    show = print
    show("fibers (2) totals (1,1):", fibers_by_scan((2,), 1, 1))
    show("fibers (1,1) totals (1,1):", fibers_by_scan((1, 1), 1, 1))
    show("fibers (3) totals (3,0):", fibers_by_scan((3,), 3, 0))
    show(
        "fiber counts match poly, rank <= 6:",
        all(
            len(fibers_by_scan(parts, p, sum(parts) - p)) ==
            fiber_count_by_poly(parts, sum(parts) - p)
            for total in range(1, 7)
            for parts in _compositions(total)
            for p in range(total + 1)
        ),
    )
    show("weyl (3/2,-3/2):", irrep_dim_from_infchar((Fraction(3, 2), Fraction(-3, 2))))
    show(
        "weyl (2,0,-2):",
        irrep_dim_from_infchar((Fraction(2), Fraction(0), Fraction(-2))),
    )
    rho3 = (Fraction(1), Fraction(0), Fraction(-1))
    show("reps U(2,1) rho (0,1):", reps_with_weight_by_scan(2, 1, rho3, 0, 1))
    rho2 = (Fraction(1, 2), Fraction(-1, 2))
    show("reps U(1,1) rho (1,1):", reps_with_weight_by_scan(1, 1, rho2, 1, 1))
    show("mr sign ((1,0),):", mr_full_character(((1, 0),)))
    show("mr sign ((2,1),(1,0)):", mr_full_character(((2, 1), (1, 0))))

    rho7 = tuple(Fraction(6 - 2 * i, 2) for i in range(7))
    b61 = ((1, 1),) + ((1, 0),) * 5
    show("sl2 merge U(6,1) ((1,1),(1,0)^5):", sorted(sl2_by_adjacent_merge(b61, rho7), reverse=True))

    show("R(2,2):", best_grouping((2, 2)))
    show("R(2,1,1):", best_grouping((2, 1, 1)))
    show("R(2,2,2,2,1,1) at Q:", best_grouping((2, 2, 2, 2, 1, 1)))
    show("R(2,2,2,2,2):", best_grouping((2, 2, 2, 2, 2)))
    for q_parts in [
        (2, 2), (2, 2, 1), (2, 2, 2), (2, 2, 1, 1), (3, 3), (2, 2, 2, 1),
        (3, 3, 1), (3, 2, 2), (2, 2, 2, 2), (2, 2, 2, 1, 1), (4, 4),
        (3, 3, 3), (3, 2, 2, 2), (5, 5), (2, 2, 2, 2, 2), (2, 2, 2, 2, 1, 1),
    ]:
        show("row", q_parts, table_row(q_parts))


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


if __name__ == "__main__":
    main()
