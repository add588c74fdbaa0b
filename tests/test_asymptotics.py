"""Euler-type factors, congruence indices, and leading-term constants."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from upqgrowth import asymptotics, shapes
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
from upqgrowth.shapes import delta_max, sl2_partition


# --- ideals and gamma factors --------------------------------------------------


def test_ideal_norm():
    assert ideal_norm([(2, 1), (3, 2)]) == 18
    assert ideal_norm([(5, 1)]) == 5
    for bad in ([], [(1, 1)], [(2, 0)]):
        with pytest.raises(ValueError):
            ideal_norm(bad)


@pytest.mark.parametrize(
    "q",
    [
        6,
        10,
        2 * 3**40,
        41 * 43,
        43 * 47,
        43**2 * 47,
        (10**12 + 39) * (10**12 + 61),
        3825123056546413051,  # a strong pseudoprime to the primes up to 23
        318665857834031151167461,  # to the primes up to 37
    ],
)
def test_ideal_refuses_a_residue_size_that_is_no_prime_power(q):
    line = f"residue size {q} is not a prime power: no field has {q} elements"
    for ideal in ([(q, 1)], [(2, 1), (q, 3)]):
        with pytest.raises(ValueError) as e:
            ideal_norm(ideal)
        assert str(e.value) == line


def test_ideal_takes_every_prime_power():
    # 4 and 9 as residue fields, and two primes of norm 2
    assert ideal_norm([(4, 1), (9, 2)]) == 324
    assert index_congruence(1, [(2, 1), (2, 1)]) == 1
    for q in (43**2, 43**14, 1009**8, (10**12 + 39) ** 2, 2**89 - 1, 7**300):
        assert ideal_norm([(q, 1)]) == q


@given(st.integers(2, 10**4))
def test_prime_power_test_matches_trial_division(q):
    assert asymptotics._is_prime_power(q) == oracles.is_prime_power(q)


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
def _mixed_block_reps(draw, max_places=4):
    # 1-max_places places of rank n at rho(n); every place holds mixed
    # blocks of the same one or two lengths among 2, 3, 5 and 7, each split
    # at random and placed at random among degenerate blocks, most of them
    # (1, 0)
    lengths = draw(st.sampled_from(_MIXED_LENGTHS))
    n = draw(st.integers(sum(lengths) + 1, max(sum(lengths) + 1, 10)))
    ones = st.sampled_from(((1, 0),) * 3 + ((0, 1),))
    places = []
    for _ in range(draw(st.integers(1, max_places))):
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
    places = [(r.p, r.q, r.blocks, r.lam) for r in rep.places]
    assert got == _outcome(oracles.leading_term, places, tops, convention)


@settings(max_examples=100, deadline=None)
@given(_mixed_block_reps(max_places=2))
@example(_rep_passing())
@example(_rep_vanishing())
@example(_alternating(2))
def test_leading_term_reads_the_delta_max_decision(rep):
    # both read shapes.dominant_placements: wherever leading_term returns,
    # its exponent is delta_max's bound and its one dominant type is the
    # SL(2)-type of every delta_max shape
    try:
        lt = leading_term(rep)
    except ValueError:
        return
    dm = delta_max(rep)
    assert lt.exponent == dm.bound
    assert dm.shapes
    assert {sl2_partition(s) for s in dm.shapes} == {dm.q_argmax}
    assert {index_list(s) for s in dm.shapes} == {lt.indices}


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


def test_leading_term_refuses_two_odd_gsk_types(monkeypatch):
    # no rep of the sizes searched has two odd-GSK maximizers, so the
    # dominance step of shapes.dominant_placements is patched to return two
    # common odd-GSK types of one place; the fold and the shape-by-shape
    # oracle refuse them alike
    place = LocalRep(p=8, q=1, blocks=((2, 1),) + ((1, 0),) * 6, lam=rho(9))
    rep = GlobalRep((place,))
    tops = [(5, 3, 1), (3,) + (1,) * 6]
    assert set(tops) <= set(sl2_candidates(rep))
    bound = dominant(sl2_candidates(rep))[0]
    monkeypatch.setattr(shapes, "dominant", lambda cands: (bound, tops[0], tops))
    _, _, _, placed = shapes.dominant_placements(rep)
    assert [len(pools) for _, pools in placed] == [1, 1]
    refusal = "dominant SL(2)-type is not unique"
    assert _outcome(leading_term, rep) == refusal
    places = [(place.p, place.q, place.blocks, place.lam)]
    assert _outcome(oracles.leading_term, places, tops) == refusal


def _places_at_rho(n):
    """One place of rank n at rho(n) per reduced bipartition."""
    return [
        LocalRep(p=p, q=n - p, blocks=blocks, lam=rho(n))
        for p in range(n + 1)
        for blocks in oracles.reduced_bipartitions(p, n - p)
    ]


@pytest.mark.parametrize("places, n_max", [(1, 9), (2, 5)])
def test_no_rep_at_rho_has_two_odd_gsk_dominant_types(places, n_max):
    # the claim of leading_term's docstring, over every rep it names, each
    # unordered tuple of places once; the other refusals (not all odd GSK,
    # no common type) are allowed
    refusal = "dominant SL(2)-type is not unique"
    for n in range(2, n_max + 1):
        for rep in combinations_with_replacement(_places_at_rho(n), places):
            assert _outcome(leading_term, GlobalRep(rep)) != refusal, rep


def test_five_place_coefficient_frozen():
    # the sum over the 16,807 shapes, as the shape-by-shape code gave it
    lt = leading_term(_alternating(5))
    assert lt.exponent == GrowthValue(101)
    assert lt.indices == (6, 1, 1, -1, -1)
    assert lt.coeff == Fraction(135408116049635709, 25000)
    assert lt.symbols == ("VOL_RATIO(U(6)xU(1)^2)",)
    assert lt.zero is False


# --- elementary volume constants -------------------------------------------------


