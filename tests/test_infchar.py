from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from upqgrowth import infchar as ic


def test_rho():
    assert ic.rho(3) == (1, 0, -1)
    assert ic.rho(2) == (Fraction(1, 2), Fraction(-1, 2))
    assert ic.rho(1) == (0,)


def test_as_character_rejects_nondecreasing():
    with pytest.raises(ValueError):
        ic.as_character((1, 1))
    with pytest.raises(ValueError):
        ic.as_character((0, 1))


def test_regular_integral():
    assert ic.is_regular_integral(ic.rho(5))
    assert ic.is_regular_integral(ic.rho(4))
    assert not ic.is_regular_integral((Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2)))
    assert not ic.is_regular_integral((1, 0, -1, -2))  # even rank wants half-integers


def test_adapted():
    lam = ic.rho(7)
    assert ic.is_adapted(lam, (7,))
    assert ic.is_adapted(lam, (2, 5))
    assert ic.is_adapted(lam, (1,) * 7)
    assert ic.is_adapted(lam, (3, 3, 1))
    # rank mismatch is just "not adapted"
    assert not ic.is_adapted(lam, (3, 3))
    gap = (Fraction(3), Fraction(2), Fraction(0))
    assert not ic.is_adapted(gap, (3,))
    assert ic.is_adapted(gap, (2, 1))


def test_block_expansion():
    assert ic.block_expansion(Fraction(0), 3) == (1, 0, -1)
    assert ic.block_expansion(Fraction(1, 2), 2) == (1, 0)
    assert ic.block_expansion(Fraction(5), 1) == (5,)


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=7),
)
def test_block_expansion_centered(two_xi, d):
    xi = Fraction(two_xi, 2)
    vals = ic.block_expansion(xi, d)
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
    assert ic.parse_rational("-7/2") == Fraction(-7, 2)
