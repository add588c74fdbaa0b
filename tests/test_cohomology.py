"""Hodge profiles, degree ranges, and the representation records."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from upqgrowth import cohomology as ch
from upqgrowth.infchar import format_rational, rho


def test_local_rep_validation():
    ch.LocalRep(p=2, q=1, blocks=((1, 1), (1, 0)), lam=rho(3))
    with pytest.raises(ValueError):
        ch.LocalRep(p=2, q=1, blocks=((2, 0), (0, 1)), lam=rho(3))  # not reduced
    with pytest.raises(ValueError):
        ch.LocalRep(p=2, q=2, blocks=((1, 1), (1, 0)), lam=rho(3))  # totals
    with pytest.raises(ValueError):
        ch.LocalRep(p=2, q=1, blocks=((1, 1), (1, 0)), lam=(1, 0, -1, -2))
    with pytest.raises(ValueError):
        # character with a gap inside the mixed block
        ch.LocalRep(p=2, q=1, blocks=((2, 1),), lam=(3, 1, 0))


@st.composite
def _rep_and_character(draw):
    """(p, q, reduced bipartition, character values), the character often
    adapted and regular integral, then often broken in one place."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(0, n))
    every = oracles.reduced_bipartitions(p, n - p)
    # half the time one with a mixed block, whose values must step by 1
    mixed = [b for b in every if any(x and y for x, y in b)]
    blocks = draw(st.sampled_from(mixed if mixed and draw(st.booleans()) else every))
    top = n - 1 + 2 * draw(st.integers(-3, 3))  # doubled, parity of n - 1
    twice: list[int] = []
    for x, y in blocks:
        if twice:
            top = twice[-1] - 2 * draw(st.integers(1, 3))
        twice += [top - 2 * i for i in range(x + y)]
    lam = [Fraction(v, 2) for v in twice]
    i = draw(st.integers(0, n - 1))
    flaw = draw(
        st.sampled_from(
            ["none", "equal", "parity", "third", "step", "gap", "drop", "extra"]
        )
    )
    if flaw == "equal" and n > 1:
        lam[i] = lam[i - 1] if i else lam[1]
    elif flaw == "parity":
        lam[i] += Fraction(1, 2)
    elif flaw == "third":
        lam[i] += Fraction(draw(st.sampled_from([1, 2, -1])), 3)
    elif flaw == "step":
        lam[i] += 1
    elif flaw == "gap":  # a step of 2 inside a block of two or more values
        starts = {sum(x + y for x, y in blocks[:j]) for j in range(len(blocks))}
        inside = [j for j in range(n) if j not in starts]
        j = draw(st.sampled_from(inside)) if inside else 0
        lam[j:] = [v - 1 for v in lam[j:]]
    elif flaw == "drop":
        del lam[i]
    elif flaw == "extra":
        lam.insert(i + 1, lam[i] - draw(st.sampled_from([Fraction(1, 2), 1, 2])))
    # the same value as a Fraction, its text, or an int when it is one
    values = [
        draw(
            st.sampled_from(
                [v, format_rational(v)] + ([int(v)] if v.denominator == 1 else [])
            )
        )
        for v in lam
    ]
    return p, n - p, blocks, values


@given(_rep_and_character())
@example((2, 1, ((2, 1),), ["3", "1", "0"]))  # a gap inside the block
@example((2, 2, ((1, 1), (1, 1)), ["7/2", "5/2", "1/2", "-1/2"]))
@example((2, 2, ((1, 1), (1, 1)), ["7/2", "3/2", "1/2", "-1/2"]))
def test_local_rep_character_checks_match_fraction_oracle(case):
    p, q, blocks, values = case
    want = oracles.character_error(p, q, blocks, values)
    try:
        rep = ch.LocalRep(p=p, q=q, blocks=blocks, lam=values)
    except ValueError as e:
        assert str(e) == want
    else:
        assert want is None
        assert rep.lam == tuple(Fraction(v) for v in values)
        assert all(type(x) is Fraction for x in rep.lam)


def test_global_rep_rank_check():
    a = ch.LocalRep(p=1, q=1, blocks=((1, 1),), lam=rho(2))
    b = ch.LocalRep(p=2, q=1, blocks=((2, 1),), lam=rho(3))
    with pytest.raises(ValueError):
        ch.GlobalRep((a, b))
    assert ch.GlobalRep((a, a)).rank == 2


def test_hodge_profile_values():
    prof = ch.hodge_profile(((1, 1), (1, 0)))
    assert (prof.lowest, prof.plus, prof.minus, prof.maxshift) == (1, 0, 1, 1)
    assert prof.highest == 3
    assert prof.weight_in_degree(1) == (0, 1)
    assert prof.weight_in_degree(3) == (1, 2)
    with pytest.raises(ValueError):
        prof.weight_in_degree(2)


def test_hodge_profile_against_oracle():
    for p in range(0, 4):
        for q in range(0, 4):
            if p == q == 0:
                continue
            for b in oracles.reduced_bipartitions(p, q):
                low, plus, minus, cap = oracles.hodge_data(b)
                prof = ch.hodge_profile(b)
                assert (prof.lowest, prof.plus, prof.minus, prof.maxshift) == (
                    low, plus, minus, cap,
                )


def test_swapping_sides_swaps_weights():
    for b in oracles.reduced_bipartitions(3, 2):
        swapped = tuple((y, x) for x, y in b)
        a, c = ch.hodge_profile(b), ch.hodge_profile(swapped)
        assert (a.plus, a.minus) == (c.minus, c.plus)
        assert a.lowest == c.lowest


def test_degrees_are_arithmetic():
    prof = ch.hodge_profile(((2, 2), (1, 0)))
    degs = [d for d in range(0, 30) if prof.contains_degree(d)]
    assert degs == [prof.lowest + 2 * t for t in range(prof.maxshift + 1)]


def test_lowest_degree_frozen():
    assert ch.lowest_degree(3, 7, 1) == 4
    assert ch.lowest_degree(3, 7, 3) == 10
    assert ch.lowest_degree(5, 6, 1) == 1


def test_lowest_degree_branches_agree_at_crossover():
    for d in (3, 5, 7):
        r = (d - 1) // 2
        for n in range(d, 14):
            if 2 * r > n:
                continue
            # both closed forms coincide where the regimes meet
            assert ch.lowest_degree(d, n, r) == r * (n - d)
            assert ch.lowest_degree(d, n, r) == r * (n - r) - (d * d - 1) // 4


def test_lowest_degree_validation():
    with pytest.raises(ValueError):
        ch.lowest_degree(2, 7, 1)
    with pytest.raises(ValueError):
        ch.lowest_degree(1, 7, 1)
    with pytest.raises(ValueError):
        ch.lowest_degree(9, 7, 1)
    with pytest.raises(ValueError):
        ch.lowest_degree(3, 7, 4)


def test_reps_in_degree_consistent_with_weights():
    # R+ + R- = R, so the weight (a, b) of a class lies in degree a + b
    for n in range(1, 7):
        for p in range(n + 1):
            q = n - p
            lam = rho(n)
            for deg in range(2 * p * q + 1):
                by_weight = {
                    b
                    for a in range(deg + 1)
                    for b in oracles.reps_with_weight_by_scan(p, q, lam, a, deg - a)
                }
                got = set(ch.reps_in_degree(p, q, lam, deg))
                assert got == by_weight, (p, q, deg)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5))
def test_json_round_trip(p, q):
    if p + q == 0:
        return
    n = p + q
    rep = ch.LocalRep(p=p, q=q, blocks=((1, 0),) * p + ((0, 1),) * q, lam=rho(n))
    data = {
        "signature": [p, q],
        "bipartition": [[1, 0]] * p + [[0, 1]] * q,
        "infchar": [format_rational(v) for v in rho(n)],
    }
    assert ch.local_rep_from_json(data) == rep
    g = ch.GlobalRep((rep, rep))
    assert ch.global_rep_from_json({"places": [data, data]}) == g


def test_bare_local_json_accepted_as_global():
    rep = ch.LocalRep(p=1, q=1, blocks=((1, 1),), lam=rho(2))
    data = {"signature": [1, 1], "bipartition": [[1, 1]], "infchar": ["1/2", "-1/2"]}
    g = ch.global_rep_from_json(data)
    assert g.places == (rep,)


def _outcome(parse, value):
    try:
        out = parse(value)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)
    return type(out), out


@settings(max_examples=500)
@given(
    st.one_of(
        st.from_regex(r"\A-?[0-9]{1,8}(/[0-9]{1,2})?\Z"),
        st.from_regex(r"\A-?[0-9]{1,3}/[0-9]\Z"),
        st.text(alphabet="-+0123456789/ _.eE\t", max_size=8),
        st.text(max_size=6),
        st.integers(),
        st.floats(),
        st.booleans(),
        st.none(),
    )
)
@example("-0/2")
@example("7/3")
@example("1/0")
@example("007/2")
@example("1/02")
@example(" 1/2")
@example("1_0/2")
@example("+1/2")
@example("١/2")  # an Arabic-Indic digit, which Fraction reads
@example("²/2")  # a digit to str.isdigit, to neither int nor Fraction
@example("-" + "9" * 5000 + "/2")  # over int's digit limit
@example("9" * 4300)
def test_fraction_from_json_matches_fraction(value):
    assert _outcome(ch._fraction_from_json, value) == _outcome(Fraction, value)
