from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from upqgrowth import infchar as ic
from upqgrowth.cohomology import LocalRep, reps_in_degree
from upqgrowth.partitions import block_sums


def test_rho():
    assert ic.rho(3) == (1, 0, -1)
    assert ic.rho(2) == (Fraction(1, 2), Fraction(-1, 2))
    assert ic.rho(1) == (0,)


def test_nondecreasing_character_refused():
    # each reader of a character refuses it with LocalRep's text
    for lam in [(1, 1), (0, 1), ("1/2", "1/2"), (Fraction(1, 3), Fraction(1, 2))]:
        text = f"character must be strictly decreasing: {tuple(map(Fraction, lam))}"
        for read in (ic.weyl_dim, lambda lam: reps_in_degree(2, 0, lam, 0)):
            with pytest.raises(ValueError) as refused:
                read(lam)
            assert str(refused.value) == text


def test_huge_exponent_refused():
    # as LocalRep refuses it, before Fraction builds 10**4300 in full
    for read in (ic.weyl_dim, lambda lam: reps_in_degree(1, 1, lam, 1)):
        with pytest.raises(
            ValueError, match="infchar entries take exponents below 4300"
        ):
            read(("1e4300", 0))


def _singletons(lam):
    """A rep of one (1,0) block per value of lam."""
    return LocalRep(p=len(lam), q=0, blocks=((1, 0),) * len(lam), lam=lam)


def test_regular_integral():
    # LocalRep is where the check lives, on the doubled values
    _singletons(ic.rho(5))
    _singletons(ic.rho(4))
    for lam in (
        (Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2)),
        (1, 0, -1, -2),  # even rank wants half-integers
    ):
        with pytest.raises(ValueError, match="must be regular integral"):
            _singletons(lam)


def test_adapted():
    # on doubled values: rho(7) doubled is 6, 4, ..., -6
    twice = list(range(6, -7, -2))
    assert ic.adapted2(twice, (7,))
    assert ic.adapted2(twice, (2, 5))
    assert ic.adapted2(twice, (1,) * 7)
    assert ic.adapted2(twice, (3, 3, 1))
    # rank mismatch is just "not adapted"
    assert not ic.adapted2(twice, (3, 3))
    assert not ic.adapted2(twice, (7, 1))
    gap = [6, 4, 0]
    assert not ic.adapted2(gap, (3,))
    assert not ic.adapted2([6, 2, 0], (3,))
    assert ic.adapted2(gap, (2, 1))
    # every step counts, not the span: 6 - 2 = 2 * (3 - 1)
    assert not ic.adapted2([6, 5, 2], (3,))
    assert ic.adapted2([Fraction(8, 3), Fraction(2, 3)], (2,))


@st.composite
def _characters(draw):
    """(p, q, lam, degree): lam strictly decreasing of rank p + q, its
    values and steps of denominators 1 to 4, a step of 1 drawn often so
    that adapted bipartitions are common; given as Fractions or as texts."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(0, n))
    fractions = st.builds(Fraction, st.integers(1, 8), st.integers(1, 4))
    value = draw(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)))
    lam = [value]
    for _ in range(n - 1):
        lam.append(lam[-1] - draw(st.one_of(st.just(Fraction(1)), fractions)))
    if draw(st.booleans()):
        lam = [ic.format_rational(v) for v in lam]
    return p, n - p, tuple(lam), draw(st.integers(0, 2 * p * (n - p)))


@given(_characters())
@example((2, 1, ("1", "0", "-1"), 2))
@example((1, 2, (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)), 2))
@example((2, 1, (3, 2, 0), 1))
def test_readers_match_scan(case):
    # reps_in_degree against a scan through the oracles' adaptedness in
    # Fractions, and weyl_dim against the product in Fractions
    p, q, lam, degree = case
    values = tuple(map(Fraction, lam))
    want = []
    for blocks in oracles.reduced_bipartitions(p, q):
        low, _, _, cap = oracles.hodge_data(blocks)
        if oracles.adapted(values, block_sums(blocks)) and degree in range(
            low, low + 2 * cap + 1, 2
        ):
            want.append(blocks)
    got = reps_in_degree(p, q, lam, degree)
    assert sorted(got) == sorted(want)
    dim = ic.weyl_dim(lam)
    assert dim == oracles.weyl_dimension(values)
    assert type(dim) is Fraction


def test_block_expansion():
    # the oracles' expansion, which their character and parity test rebuild
    # each block with
    assert oracles.block_expansion(Fraction(0), 3) == (1, 0, -1)
    assert oracles.block_expansion(Fraction(1, 2), 2) == (1, 0)
    assert oracles.block_expansion(Fraction(5), 1) == (5,)


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=7),
)
def test_block_expansion_centered(two_xi, d):
    xi = Fraction(two_xi, 2)
    vals = oracles.block_expansion(xi, d)
    assert len(vals) == d
    assert sum(vals) / d == xi
    assert oracles.is_step_one(vals)


def test_total_character():
    assert ic.total_character([(0, 3), (Fraction(5, 2), 2)]) == (3, 2, 1, 0, -1)


def test_total_character_collision():
    with pytest.raises(ic.IrregularCharacterError):
        ic.total_character([(0, 3), (1, 1)])


centres = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3))
)


@given(st.lists(st.tuples(centres, st.integers(1, 5)), max_size=6))
@example([])
@example([(Fraction(1, 3), 1), (Fraction(4, 3), 3)])  # collide at 1/3
@example([(Fraction(1, 2), 2), (Fraction(0), 1)])  # collide at 0
@example([(Fraction(1, 2), 4), (Fraction(1, 3), 3)])  # no collision
def test_total_character_matches_oracle(blocks):
    # denominators 1, 2 and 3 scale by 2, 4, 6 or 12; collisions are common
    try:
        want = oracles.total_character(blocks)
    except ValueError as e:
        with pytest.raises(ic.IrregularCharacterError) as got:
            ic.total_character(blocks)
        assert str(got.value) == str(e)
    else:
        got = ic.total_character(blocks)
        assert got == want
        assert all(type(v) is Fraction for v in got)


def test_total_character_rejects_empty_block():
    with pytest.raises(ValueError, match="block length must be positive"):
        ic.total_character([(0, 1), (1, 0)])


def test_weyl_dim_frozen():
    assert ic.weyl_dim((Fraction(3, 2), Fraction(-3, 2))) == 3
    assert ic.weyl_dim((2, 0, -2)) == 8
    for n in range(1, 7):
        assert ic.weyl_dim(ic.rho(n)) == 1


def test_weyl_dim_matches_tableau_count():
    # tableau oracle needs an integral dominant weight after the rho shift
    cases = [
        (Fraction(3, 2), Fraction(-3, 2)),
        (Fraction(5, 2), Fraction(-1, 2)),
        (2, 0, -2),
        (3, 1, -1),
        (4, 0, -1),
        (Fraction(7, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(-5, 2)),
    ]
    for lam in cases:
        lam = tuple(Fraction(v) for v in lam)
        assert ic.weyl_dim(lam) == oracles.irrep_dim_from_infchar(lam)


def test_rational_formatting():
    assert ic.format_rational(Fraction(3)) == "3"
    assert ic.format_rational(Fraction(-7, 2)) == "-7/2"
