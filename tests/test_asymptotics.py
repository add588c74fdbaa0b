"""Euler-type factors, congruence indices, and leading-term constants."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from upqgrowth import asymptotics
from upqgrowth.asymptotics import (
    LeadingTerm,
    euler_digits,
    gamma_factor,
    ideal_norm,
    index_congruence,
    index_list,
    leading_term,
    packet_size,
)
from upqgrowth.cohomology import GlobalRep, LocalRep
from upqgrowth.growth import GrowthValue, dominant, refined_bound, sl2_candidates
from upqgrowth.infchar import rho
from upqgrowth.shapes import delta_max


# --- ideals and gamma factors --------------------------------------------------


def test_ideal_norm():
    assert ideal_norm([(2, 1), (3, 2)]) == 18
    assert ideal_norm([(5, 1)]) == 5
    for bad in ([], [(1, 1)], [(2, 0)]):
        with pytest.raises(ValueError):
            ideal_norm(bad)


def test_gamma_factor_values():
    assert gamma_factor((2,), [(2, 1), (3, 1)]) == Fraction(2, 9)
    assert gamma_factor((-1,), [(2, 1)]) == Fraction(3, 2)
    assert gamma_factor((0,), [(5, 1)]) == 1
    assert gamma_factor((1, 1), [(2, 1)]) == Fraction(1, 4)


def test_gamma_factor_multiplicative():
    ns = (3, -2, 1)
    assert gamma_factor(ns, [(2, 1), (5, 1)]) == gamma_factor(
        ns, [(2, 1)]
    ) * gamma_factor(ns, [(5, 1)])
    assert gamma_factor((3, -2), [(3, 1)]) == gamma_factor(
        (3,), [(3, 1)]
    ) * gamma_factor((-2,), [(3, 1)])


def test_gamma_ignores_exponent_uses_residue_size():
    # the exponent enters norms, not gamma factors
    assert gamma_factor((2,), [(3, 5)]) == gamma_factor((2,), [(3, 1)])


# --- congruence indices ---------------------------------------------------------


def test_index_congruence_is_gl_order():
    for q in (2, 3, 4, 5, 7, 9):
        for n in range(1, 6):
            order = 1
            for i in range(n):
                order *= q**n - q**i
            assert index_congruence(n, [(q, 1)]) == order


def test_index_congruence_prime_power():
    # rank 1 at (q, e): q^(e-1) * (q - 1)
    assert index_congruence(1, [(2, 3)]) == 4
    assert index_congruence(1, [(3, 2)]) == 6
    # an iterator is read once, though the norm and the gamma factor both need it
    assert index_congruence(2, iter([(3, 1)])) == 48
    with pytest.raises(ValueError):
        index_congruence(0, [(2, 1)])


def _digits(x: Fraction) -> int:
    return max(len(str(abs(x.numerator))), len(str(x.denominator)))


_IDEALS = st.lists(
    st.tuples(st.sampled_from([2, 3, 4, 9, 13]), st.integers(1, 3)),
    min_size=1,
    max_size=3,
)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=3), _IDEALS)
@example([-1] * 8000, [(2, 1)])  # each factor 3/2: the bound is met exactly
@example([20, 20, 20], [(13, 3), (9, 3), (4, 3)])
def test_euler_digits_bound_gamma_factor(ns, ideal):
    assert _digits(gamma_factor(ns, ideal)) <= euler_digits(ns, ideal)


@given(st.integers(1, 12), _IDEALS)
@example(12, [(13, 3), (9, 3), (4, 3)])
def test_euler_digits_bound_index_congruence(n, ideal):
    assert _digits(index_congruence(n, ideal)) <= euler_digits((n,), ideal, n)


def test_euler_digits_reads_only_exponents():
    # 2^(10^12) would not fit in memory; it has 301029995664 digits
    assert 301029995664 <= euler_digits((), [(2, 10**12)], 1) < 301030000000
    assert euler_digits((10**6,), [(3, 1)]) > 10**11
    with pytest.raises(ValueError):
        euler_digits((1,), [(1, 1)])


def test_index_list():
    assert index_list(((4, 1), (1, 3))) == (4, 1, -1)
    assert index_list(((3, 1),)) == (3,)
    assert index_list(((2, 1), (1, 3), (1, 5))) == (2, 1, 1, -1, -1)
    with pytest.raises(ValueError):
        index_list(((1, 2),))  # no length-1 block


def test_index_list_accepts_shapes():
    rep = LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=rho(7))
    s = delta_max(GlobalRep((rep,))).shapes[0]
    assert index_list(s) == (4, 1, -1)


def _gsk_block_lists(max_rank):
    for t1 in range(1, 6):
        for k_extra in range(0, 3):
            for ds in combinations(range(2, 9), k_extra):
                pairs = ((t1, 1),) + tuple((1, d) for d in ds)
                if sum(t * d for t, d in pairs) <= max_rank:
                    yield pairs


def test_norm_power_times_gamma_identity():
    # |I|^R * Gamma_L(I) factors through the per-block congruence indices
    ideals = ([(2, 1)], [(3, 2)], [(2, 1), (7, 1)])
    for pairs in _gsk_block_lists(9):
        t1 = pairs[0][0]
        ds = [d for _, d in pairs[1:]]
        k = len(pairs)
        n = t1 + sum(ds)
        r = refined_bound(pairs)
        assert r.eps == 0
        shift = (n * n - t1 * t1 - sum(d * d for d in ds)) // 2
        for ideal in ideals:
            norm = ideal_norm(ideal)
            lhs = norm**r.main * gamma_factor(index_list(pairs), ideal)
            rhs = (
                Fraction(norm) ** shift
                * gamma_factor((-1,), ideal) ** (k - 1)
                * index_congruence(t1, ideal)
                * index_congruence(1, ideal) ** (k - 1)
            )
            assert lhs == rhs


# --- packet sizes and leading terms ---------------------------------------------


def test_packet_size():
    assert [packet_size(t) for t in range(1, 6)] == [1, 2, 3, 6, 10]
    assert packet_size(3, "example1", ambient=7) == 7
    with pytest.raises(ValueError):
        packet_size(0)
    with pytest.raises(ValueError):
        packet_size(2, "example1")
    with pytest.raises(ValueError):
        packet_size(2, "median")


def _rep_passing():
    return GlobalRep(
        (LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=rho(7)),)
    )


def _rep_vanishing():
    blocks = ((1, 0), (2, 1)) + ((1, 0),) * 3
    return GlobalRep((LocalRep(p=6, q=1, blocks=blocks, lam=rho(7)),))


def test_leading_term_values():
    lt = leading_term(_rep_passing())
    assert lt.exponent.main == 29 and lt.exponent.eps == 0
    assert lt.indices == (4, 1, -1)
    assert lt.coeff == Fraction(1, 6)
    assert lt.symbols == ("VOL_RATIO(U(4)xU(1)^1)",)
    assert lt.zero is False


def test_leading_term_json():
    lt = leading_term(_rep_passing())
    assert lt.to_json() == {
        "exponent": {"main": "29", "eps": 0},
        "L": [4, 1, -1],
        "coeff": "1/6",
        "symbols": ["VOL_RATIO(U(4)xU(1)^1)"],
        "zero": False,
    }


def test_leading_term_vanishes():
    lt = leading_term(_rep_vanishing())
    assert lt.coeff == 0
    assert lt.zero is True
    # the exponent and indices still describe the dominant shape
    assert lt.exponent.main == 29
    assert lt.indices == (4, 1, -1)


def test_leading_term_needs_odd_gsk():
    rho7 = rho(7)
    r1 = LocalRep(p=6, q=1, blocks=((1, 1),) + ((1, 0),) * 5, lam=rho7)
    r2 = LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=rho7)
    with pytest.raises(ValueError):
        leading_term(GlobalRep((r1, r2)))  # length-2 blocks appear
    with pytest.raises(ValueError):
        leading_term(GlobalRep((r1,)))


def test_leading_term_example1_convention():
    lt = leading_term(_rep_passing(), convention="example1")
    assert lt.coeff == Fraction(1, 7)


def test_leading_term_structure():
    lt = leading_term(_rep_passing())
    assert isinstance(lt, LeadingTerm)


# --- the places folded one at a time ------------------------------------------


def _alternating(places):
    # rank 14: a length-3 and a length-5 mixed block, each above a run of
    # ones, take turns; the one dominant type (5, 3, 1^6) has 7 placements
    # at every place, so its shapes number 7^places
    a = LocalRep(p=13, q=1, blocks=((2, 1),) + ((1, 0),) * 11, lam=rho(14))
    b = LocalRep(p=13, q=1, blocks=((4, 1),) + ((1, 0),) * 9, lam=rho(14))
    return GlobalRep(tuple((a, b)[v % 2] for v in range(places)))


_MIXED_LENGTHS = [(2,), (3,), (5,), (7,), (2, 3), (2, 5), (3, 5), (3, 7), (5, 7)]


@st.composite
def _mixed_block_reps(draw):
    # 1-4 places of rank n at rho(n); every place holds mixed blocks of the
    # same one or two lengths among 2, 3, 5 and 7, each split at random and
    # placed at random among degenerate blocks, most of them (1, 0)
    lengths = draw(st.sampled_from(_MIXED_LENGTHS))
    n = draw(st.integers(sum(lengths) + 1, max(sum(lengths) + 1, 10)))
    ones = st.sampled_from(((1, 0),) * 3 + ((0, 1),))
    places = []
    for _ in range(draw(st.integers(1, 4))):
        blocks = [draw(ones) for _ in range(n - sum(lengths))]
        for d in lengths:
            x = draw(st.integers(1, d - 1))
            blocks.insert(draw(st.integers(0, len(blocks))), (x, d - x))
        p = sum(x for x, _ in blocks)
        places.append(LocalRep(p=p, q=n - p, blocks=tuple(blocks), lam=rho(n)))
    return GlobalRep(tuple(places))


def _outcome(call, *args):
    try:
        return tuple(call(*args))
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(_mixed_block_reps(), st.sampled_from(["binom", "example1"]))
@example(_rep_passing(), "binom")
@example(_rep_vanishing(), "binom")
@example(_alternating(3), "binom")
@example(_alternating(2), "example1")
def test_leading_term_matches_shape_by_shape_oracle(rep, convention):
    # the fold over the places against the sum over every dominant shape,
    # refusals included
    got = _outcome(leading_term, rep, convention)
    cands = sl2_candidates(rep)
    if not cands:
        assert got == "no common SL(2)-type across the places"
        return
    tops = dominant(cands)[2]
    assert got == _outcome(oracles.leading_term, rep.places, tops, convention)


def test_leading_term_reads_each_placement_once(monkeypatch):
    # the place parity runs once per placement and long block at each place:
    # 6 places x 7 placements x 2 long blocks, not once per each of the
    # 7^6 = 117,649 shapes; the coefficient is the one their sum gave
    rep = _alternating(6)
    calls = []
    place_parity = asymptotics._place_parity

    def counted(*args):
        calls.append(args)
        return place_parity(*args)

    monkeypatch.setattr(asymptotics, "_place_parity", counted)
    lt = leading_term(rep)
    assert len(calls) == 6 * 7 * 2
    assert lt.indices == (6, 1, 1, -1, -1)
    assert lt.coeff == Fraction(555452686314709569107, 1000000)


def test_five_place_coefficient_frozen():
    # the sum over the 16,807 shapes, as the shape-by-shape code gave it
    lt = leading_term(_alternating(5))
    assert lt.exponent == GrowthValue(101)
    assert lt.indices == (6, 1, 1, -1, -1)
    assert lt.coeff == Fraction(135408116049635709, 25000)
    assert lt.symbols == ("VOL_RATIO(U(6)xU(1)^2)",)
    assert lt.zero is False


# --- elementary volume constants -------------------------------------------------


