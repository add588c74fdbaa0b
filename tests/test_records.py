"""The eleven immutable records: repr text, equality and hash by field,
refusal of assignment, GrowthValue order and arithmetic, defaults.

The repr texts are frozen: `verify_table1` prints DensityRow reprs in its
violations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from upqgrowth import asymptotics, cohomology, sarnakxue, shapes
from upqgrowth.growth import GrowthValue

DATA = Path(__file__).resolve().parent / "data"

LOCAL = cohomology.LocalRep(p=2, q=1, blocks=((1, 0), (1, 1)), lam=(2, 0, -1))
GLOBAL = cohomology.GlobalRep(places=(LOCAL,))
DELTA = shapes.delta_max(GLOBAL)
SHAPE = DELTA.shapes[0]
# differs from LOCAL in lam only
LOCAL2 = cohomology.LocalRep(p=2, q=1, blocks=((1, 0), (1, 1)), lam=(3, 1, 0))


def _odd_block_term(convention):
    with open(DATA / "odd_block_rep.json") as fh:
        rep = cohomology.global_rep_from_json(json.load(fh))
    return asymptotics.leading_term(rep, convention)


LOCAL_TEXT = (
    "LocalRep(p=2, q=1, blocks=((1, 0), (1, 1)), "
    "lam=(Fraction(2, 1), Fraction(0, 1), Fraction(-1, 1)))"
)
BLOCK_TEXTS = (
    "ShapeBlock(T=1, d=2, centers=((Fraction(-1, 2),),), eta=-1)",
    "ShapeBlock(T=1, d=1, centers=((Fraction(2, 1),),), eta=1)",
)
SHAPE_TEXT = f"Shape(blocks=({BLOCK_TEXTS[0]}, {BLOCK_TEXTS[1]}))"

# (record, another of its type, its field names in order, its repr)
RECORDS = [
    (LOCAL, LOCAL2, ("p", "q", "blocks", "lam"), LOCAL_TEXT),
    (
        GLOBAL,
        cohomology.GlobalRep((LOCAL, LOCAL)),
        ("places",),
        f"GlobalRep(places=({LOCAL_TEXT},))",
    ),
    (
        cohomology.hodge_profile(((1, 1), (1, 0))),
        cohomology.hodge_profile(((1, 0), (1, 1))),
        ("lowest", "plus", "minus", "maxshift"),
        "HodgeProfile(lowest=1, plus=0, minus=1, maxshift=1)",
    ),
    (
        GrowthValue(Fraction(7, 2), 1),
        GrowthValue(Fraction(7, 2)),
        ("main", "eps"),
        "GrowthValue(main=Fraction(7, 2), eps=1)",
    ),
    (
        DELTA,
        shapes.delta_max(cohomology.GlobalRep((LOCAL2,))),
        ("candidates", "bound", "q_argmax", "shapes"),
        "DeltaMax(candidates=((2, 1),), "
        "bound=GrowthValue(main=Fraction(4, 1), eps=0), "
        f"q_argmax=(2, 1), shapes=({SHAPE_TEXT},))",
    ),
    (
        SHAPE.blocks[0],
        SHAPE.blocks[1],
        ("T", "d", "centers", "eta"),
        BLOCK_TEXTS[0],
    ),
    (
        SHAPE,
        shapes.Shape(SHAPE.blocks[::-1]),
        ("blocks",),
        SHAPE_TEXT,
    ),
    (
        shapes.local_run_data(LOCAL),
        shapes.local_run_data(LOCAL2),
        ("beta_plus", "p_runs", "q_runs", "big", "lam2"),
        "RunData(beta_plus=(2,), p_runs=((4,),), q_runs=(), big=((2, -1),), "
        "lam2=(4, 0, -2))",
    ),
    (
        sarnakxue.sx_row((2, 2)),
        sarnakxue.sx_row((3, 3)),
        (
            "q", "provable", "conjectural", "sx_goal", "trivial",
            "provable_at_coarsening", "conjectural_at_coarsening",
            "exceeds_goal",
        ),
        "DensityRow(q=(2, 2), provable=GrowthValue(main=Fraction(8, 1), eps=0), "
        "conjectural=GrowthValue(main=Fraction(6, 1), eps=0), "
        "sx_goal=Fraction(15, 2), trivial=15, provable_at_coarsening=False, "
        "conjectural_at_coarsening=False, exceeds_goal=True)",
    ),
    (
        sarnakxue.verify_table1(),
        sarnakxue.verify_qd_bound(3),
        ("target", "sweep", "checked_count", "violations", "notes"),
        "Certificate(target='table', sweep='16 reference rows', "
        "checked_count=16, violations=(), notes=())",
    ),
    (
        _odd_block_term("binom"),
        _odd_block_term("example1"),
        ("exponent", "indices", "coeff", "symbols", "zero"),
        "LeadingTerm(exponent=GrowthValue(main=Fraction(25, 1), eps=0), "
        "indices=(3, 1, -1), coeff=Fraction(1, 9), "
        "symbols=('VOL_RATIO(U(3)xU(1)^1)',), zero=False)",
    ),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, other, names, text", RECORDS, ids=IDS)
def test_repr_is_frozen(record, other, names, text):
    assert repr(record) == text
    if type(record) is not GrowthValue:  # which prints as a growth exponent
        assert str(record) == text


@pytest.mark.parametrize("record, other, names, text", RECORDS, ids=IDS)
def test_equality_and_hash_by_field(record, other, names, text):
    values = {name: getattr(record, name) for name in names}
    again = type(record)(**values)
    assert again is not record
    assert again == record
    assert hash(again) == hash(record) == hash(tuple(values.values()))
    assert type(other) is type(record)
    assert other != record
    assert {record, again, other} == {record, other}


@pytest.mark.parametrize("record, other, names, text", RECORDS, ids=IDS)
def test_assignment_is_refused(record, other, names, text):
    with pytest.raises(AttributeError):
        setattr(record, names[0], getattr(record, names[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_growth_value_order():
    a = GrowthValue(1)
    b = GrowthValue(1, 1)
    c = GrowthValue(Fraction(3, 2), -5)
    assert a < b < c
    assert max([b, c, a]) == c
    assert sorted([c, a, b]) == [a, b, c]
    assert GrowthValue(2) == GrowthValue(Fraction(2), 0)
    assert type(GrowthValue(3).main) is Fraction
    assert GrowthValue(3).eps == 0


def test_growth_value_arithmetic():
    a = GrowthValue(Fraction(1, 2), 1)
    b = GrowthValue(1, 2)
    assert a + b == GrowthValue(Fraction(3, 2), 3)
    assert a - b == GrowthValue(Fraction(-1, 2), -1)
    assert a + 1 == GrowthValue(Fraction(3, 2), 1)
    assert a - Fraction(1, 2) == GrowthValue(0, 1)
    for value in (a + b, a - b, a + 1, a - 1):
        assert type(value) is GrowthValue
        assert type(value.main) is Fraction
    assert str(a - b) == "-1/2-eps"
    assert str(a + b) == "3/2+3*eps"


def test_certificate_default_notes():
    cert = sarnakxue.Certificate("qd", "none", 0, ())
    assert cert.notes == ()
    assert cert == sarnakxue.Certificate("qd", "none", 0, (), ())
    assert not cert.ok  # nothing checked
    assert sarnakxue.Certificate("qd", "one", 1, ()).ok
    assert not sarnakxue.Certificate("qd", "one", 1, ("bad",)).ok

