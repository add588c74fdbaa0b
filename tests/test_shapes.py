"""Shape enumeration: run splitting, candidate types, dominant shapes."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

import oracles
from strategies import global_reps, rep_text
from upqgrowth import cli, infchar, shapes as shapes_module
from upqgrowth.cohomology import GlobalRep, LocalRep, global_rep_from_json
from upqgrowth.growth import (
    GrowthValue,
    RunData,
    dominant,
    partition_bound,
    rep_bound,
)
from upqgrowth.infchar import IrregularCharacterError, format_rational, rho
from upqgrowth.partitions import partitions_of, reduced_bipartitions
from upqgrowth.shapes import (
    DeltaMax,
    Shape,
    ShapeBlock,
    delta_max,
    is_gsk,
    is_odd_gsk,
    local_run_data,
    odd_gsk_parity_test,
    q_can,
    sato_tate_group,
    shape_to_json,
    sl2_candidates,
    sl2_partition,
    _stretch_q,
)

RHO7 = rho(7)
DATA = Path(__file__).resolve().parent / "data"
# rank 9, 3 places, 12 dominant shapes
WIDE12 = global_rep_from_json(json.loads((DATA / "wide12_rep.json").read_text()))


def _halved(centers2):
    # a block's doubled centres per place, as the Fractions they double
    return tuple(tuple(Fraction(c2, 2) for c2 in row) for row in centers2)


def _total_character(shape: Shape, place: int = 0):
    # the oracle's sorted block expansions of the shape at one place
    return oracles.total_character(
        (c, b.d) for b in shape.blocks for c in _halved(b.centers2)[place]
    )


def _rep71():
    # rank-7 place: one (1,1) block then five (1,0) blocks
    return LocalRep(p=6, q=1, blocks=((1, 1),) + ((1, 0),) * 5, lam=RHO7)


def _rep72():
    # rank-7 place: one (2,1) block then four (1,0) blocks
    return LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=RHO7)


# --- candidate enumeration ---------------------------------------------------


def test_candidates_match_merge_oracle():
    count = 0
    for n in range(1, 8):
        lam = rho(n)
        for p in range(n + 1):
            for b in reduced_bipartitions(p, n - p):
                rep = LocalRep(p=p, q=n - p, blocks=b, lam=lam)
                g = GlobalRep((rep,))
                cands = sl2_candidates(g)
                assert set(cands) == oracles.sl2_by_adjacent_merge(b, lam)
                # the one-pass record agrees with the separate entry points
                dm = delta_max(g)
                assert list(dm.candidates) == cands
                assert (dm.bound, dm.q_argmax) == rep_bound(g)
                tops = {q for q in cands if partition_bound(q) == dm.bound}
                types = {sl2_partition(s) for s in dm.shapes}
                assert types <= tops
                assert dm.q_argmax in types
                count += 1
    assert count > 200


def test_orientation_change_breaks_runs():
    rep = LocalRep(p=2, q=1, blocks=((1, 0), (0, 1), (1, 0)), lam=(1, 0, -1))
    data = local_run_data(rep)
    # doubled values: two p runs of one and a q run of one between them
    assert (data.p_runs, data.q_runs, data.beta_plus) == (((2,), (-2,)), ((0,),), ())
    assert sl2_candidates(GlobalRep((rep,))) == [(1, 1, 1)]


def test_character_gap_breaks_runs():
    lam = (Fraction(3, 2), Fraction(-1, 2))
    rep = LocalRep(p=2, q=0, blocks=((1, 0), (1, 0)), lam=lam)
    assert sl2_candidates(GlobalRep((rep,))) == [(1, 1)]


def test_intervening_block_breaks_runs():
    # degenerate blocks on both sides of a mixed block never merge
    rep = LocalRep(
        p=3, q=1, blocks=((1, 0), (1, 1), (1, 0)), lam=rho(4)
    )
    got = set(sl2_candidates(GlobalRep((rep,))))
    assert got == {(2, 1, 1)}


@pytest.mark.parametrize("runs, length", [(4, 6), (6, 5)])
def test_candidate_fold_matches_product_of_runs(runs, length):
    # a mixed block, then runs of degenerate blocks on alternating sides
    blocks = ((1, 1),)
    for i in range(runs):
        blocks += ((1, 0) if i % 2 == 0 else (0, 1),) * length
    p = sum(x for x, _ in blocks)
    n = 2 + runs * length
    rep = LocalRep(p=p, q=n - p, blocks=blocks, lam=rho(n))
    data = local_run_data(rep)
    assert [len(r) for r in data.p_runs + data.q_runs] == [length] * runs
    want = oracles.merged_partitions((2,), [length] * runs)
    assert sl2_candidates(GlobalRep((rep,))) == sorted(want, reverse=True)


def test_frozen_candidates_rank_seven():
    assert sl2_candidates(GlobalRep((_rep71(),))) == [
        (5, 2),
        (4, 2, 1),
        (3, 2, 2),
        (3, 2, 1, 1),
        (2, 2, 2, 1),
        (2, 2, 1, 1, 1),
        (2, 1, 1, 1, 1, 1),
    ]
    assert sl2_candidates(GlobalRep((_rep72(),))) == [
        (4, 3),
        (3, 3, 1),
        (3, 2, 2),
        (3, 2, 1, 1),
        (3, 1, 1, 1, 1),
    ]


def test_candidates_contain_nondegenerate_sums():
    for n in range(1, 8):
        lam = rho(n)
        for p in range(n + 1):
            for b in reduced_bipartitions(p, n - p):
                rep = LocalRep(p=p, q=n - p, blocks=b, lam=lam)
                beta = local_run_data(rep).beta_plus
                for cand in sl2_candidates(GlobalRep((rep,))):
                    assert not Counter(beta) - Counter(cand)


def test_two_place_intersection():
    g = GlobalRep((_rep71(), _rep72()))
    assert sl2_candidates(g) == [(3, 2, 2), (3, 2, 1, 1)]


# --- canonical partition -----------------------------------------------------


def test_q_can_values():
    assert q_can(GlobalRep((_rep71(),))) == (2, 1, 1, 1, 1, 1)
    assert q_can(GlobalRep((_rep72(),))) == (3, 1, 1, 1, 1)
    assert q_can(GlobalRep((_rep71(), _rep72()))) == (3, 2, 1, 1)


def test_q_can_single_place_is_candidate():
    for n in range(1, 8):
        lam = rho(n)
        for p in range(n + 1):
            for b in reduced_bipartitions(p, n - p):
                rep = LocalRep(p=p, q=n - p, blocks=b, lam=lam)
                g = GlobalRep((rep,))
                assert q_can(g) in sl2_candidates(g)


def test_q_can_overflow_is_none():
    a = LocalRep(p=2, q=1, blocks=((2, 1),), lam=(1, 0, -1))
    b = LocalRep(p=2, q=1, blocks=((1, 1), (1, 0)), lam=(1, 0, -1))
    g = GlobalRep((a, b))
    assert q_can(g) is None
    assert sl2_candidates(g) == []
    with pytest.raises(ValueError):
        delta_max(g)


# --- dominant shapes ---------------------------------------------------------


def test_single_place_dominant_shape():
    g = GlobalRep((_rep72(),))
    shapes = delta_max(g).shapes
    assert len(shapes) == 1
    s = shapes[0]
    assert sl2_partition(s) == (3, 1, 1, 1, 1)
    assert [(b.T, b.d, b.eta) for b in s.blocks] == [(1, 3, 1), (4, 1, 1)]
    assert s.blocks[0].centers2 == ((4,),)
    assert s.blocks[1].centers2 == ((0, -2, -4, -6),)
    assert _total_character(s) == RHO7


def test_two_place_tie_shapes():
    # the two maximizers score equally, so both families of shapes appear
    g = GlobalRep((_rep71(), _rep72()))
    shapes = delta_max(g).shapes
    assert len(shapes) == 11
    counts = Counter(sl2_partition(s) for s in shapes)
    assert counts == {(3, 2, 1, 1): 9, (3, 2, 2): 2}
    s0 = shapes[0]
    assert [(b.T, b.d, b.eta) for b in s0.blocks] == [
        (1, 3, 1),
        (1, 2, -1),
        (2, 1, 1),
    ]
    assert s0.blocks[0].centers2 == ((-4,), (4,))
    assert s0.blocks[1].centers2 == ((5,), (-5,))
    assert s0.blocks[2].centers2 == ((2, 0), (0, -2))
    for s in shapes:
        for v in range(2):
            assert _total_character(s, v) == RHO7


def test_shapes_deduplicated_and_sorted():
    g = GlobalRep((_rep71(), _rep72()))
    shapes = delta_max(g).shapes
    assert len(set(shapes)) == len(shapes)


@settings(max_examples=200)
@given(global_reps())
@example(GlobalRep((_rep71(), _rep72())))
@example(WIDE12)
def test_run_data_matches_oracle(rep):
    # the one-walk split in doubled ints against the Fraction walk
    for local in rep.places:
        data = local_run_data(local)
        beta_plus, runs, big = oracles.run_data(local.blocks, local.lam)
        assert data.beta_plus == beta_plus
        assert data.p_runs + data.q_runs == tuple(
            tuple(2 * v for v in run) for run in runs
        )
        assert data.big == tuple((n, 2 * c) for n, c in big)


@settings(max_examples=200)
@given(global_reps())
@example(GlobalRep((_rep71(), _rep72())))
@example(GlobalRep((_rep71(), _rep71(), _rep72())))
@example(WIDE12)
def test_dominant_shapes_match_oracle(rep):
    # the doubled-int assembly against the Fraction one, order included
    cands = sl2_candidates(rep)
    assume(cands)
    tops = dominant(cands)[2]
    places = [(local.blocks, local.lam) for local in rep.places]
    want = oracles.dominant_shapes(places, tops, rep.rank)
    target(float(len(want)))  # steer towards reps with many shapes
    assert delta_max(rep).to_json()["shapes"] == want


@st.composite
def _leftovers_and_runs(draw):
    # up to 4 runs of length <= 8; the leftover is one partition per run
    # merged, which splits at least once, or drawn freely, which may split
    # nowhere
    lengths = draw(st.lists(st.integers(1, 8), max_size=4))
    if draw(st.booleans()):
        parts = [x for n in lengths for x in draw(st.sampled_from(partitions_of(n)))]
    else:
        parts = draw(st.lists(st.integers(1, 9), max_size=12))
    return Counter(parts), lengths


@settings(max_examples=300)
@given(_leftovers_and_runs())
@example((Counter({3: 1}), [1, 2]))  # a part longer than every run
@example((Counter({2: 2, 1: 4}), [4, 2, 2]))
def test_distributions_match_oracle(case):
    # each run's splits read from partitions_of against the sub-multiset
    # recursion, order included
    leftover, lengths = case
    got = list(shapes_module._distributions(leftover, lengths))
    assert got == list(oracles._distributions(leftover, lengths))


@settings(max_examples=200)
@given(global_reps())
@example(GlobalRep((_rep71(), _rep72())))
@example(WIDE12)
def test_place_groupings_are_distinct(rep):
    # a chunk's (d, centre) fixes its values, so distinct assignments of a
    # place never share a grouping and _place_centres needs no dedup
    for q_parts in sl2_candidates(rep):
        ds = sorted(set(q_parts), reverse=True)
        for local in rep.places:
            data = local_run_data(local)
            groups = shapes_module._place_centres(data, q_parts, ds)
            assert len(set(groups)) == len(groups)
            # a common type is beta_plus plus one partition per run here,
            # so it has a grouping at every place
            assert groups


@settings(max_examples=200)
@given(global_reps())
@example(GlobalRep((_rep71(), _rep72())))
@example(GlobalRep((_rep71(), _rep71(), _rep72())))
@example(WIDE12)
def test_unchecked_shapes_match_checked(rep):
    # delta_max builds its proved shapes without the checks; rebuilding
    # them through every check gives equal shapes that hash alike
    assume(sl2_candidates(rep))
    for s in delta_max(rep).shapes:
        checked = Shape(
            tuple(
                ShapeBlock(T=b.T, d=b.d, centers=_halved(b.centers2), eta=b.eta)
                for b in s.blocks
            )
        )
        assert checked == s
        assert hash(checked) == hash(s)
        for b in s.blocks:
            assert all(type(c) is int for place in b.centers2 for c in place)


def test_delta_max_checks_no_fraction_character(monkeypatch, capsys):
    # the int rebuild check is the only character check of a dominant shape:
    # neither the Fraction character nor a record constructor's check runs
    def refuse(*args):
        raise AssertionError("a character or record check called")

    monkeypatch.setattr(infchar, "total_character", refuse)
    monkeypatch.setattr(Shape, "__new__", refuse)
    monkeypatch.setattr(ShapeBlock, "__new__", refuse)
    assert cli.run(["delta-max", "--rep", str(DATA / "wide12_rep.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (DATA / "wide12_delta_max.json").read_text()


def test_broken_centre_is_internal_error(monkeypatch, capsys, tmp_path):
    # one chunk's doubled centre off by 2 must trip the rebuild check
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"places": [
        {"signature": [6, 1], "bipartition": [[1, 1]] + [[1, 0]] * 5,
         "infchar": [str(v) for v in RHO7]},
        {"signature": [6, 1], "bipartition": [[2, 1]] + [[1, 0]] * 4,
         "infchar": [str(v) for v in RHO7]},
    ]}))
    assert cli.run(["delta-max", "--rep", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["shapes"]) == 11

    chunkings = shapes_module._chunkings
    shifted = []

    def shift_first_chunk(run2, sub):
        for chunks in chunkings(run2, sub):
            if not shifted:
                (c, c2), *rest = chunks
                chunks = ((c, c2 + 2), *rest)
                shifted.append(c)
            yield chunks

    monkeypatch.setattr(shapes_module, "_chunkings", shift_first_chunk)
    assert cli.run(["delta-max", "--rep", str(path)]) == 3
    out, err = capsys.readouterr()
    assert shifted
    assert out == ""
    assert err == "internal error: shape does not rebuild the character\n"


def _drop_last_chunk(chunks):
    # the bottom value of the run is left uncovered
    return chunks[:-1]


def _lengthen_last_chunk(chunks):
    # the last chunk keeps its top value and runs one value past the run
    *rest, (c, c2) = chunks
    return (*rest, (c + 1, c2 - 1))


@pytest.mark.parametrize(
    "mutate", [_drop_last_chunk, _lengthen_last_chunk], ids=["uncovered", "overrun"]
)
def test_broken_tiling_is_internal_error(mutate, monkeypatch, capsys, tmp_path):
    # every run ends at the bottom of its place's character here, so a
    # placement that stops short or runs past its end must trip the tiling
    # check, never an IndexError
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"places": [
        {"signature": [6, 1], "bipartition": [[1, 1]] + [[1, 0]] * 5,
         "infchar": [str(v) for v in RHO7]},
        {"signature": [6, 1], "bipartition": [[2, 1]] + [[1, 0]] * 4,
         "infchar": [str(v) for v in RHO7]},
    ]}))
    chunkings = shapes_module._chunkings
    monkeypatch.setattr(
        shapes_module,
        "_chunkings",
        lambda run2, sub: map(mutate, chunkings(run2, sub)),
    )
    assert cli.run(["delta-max", "--rep", str(path)]) == 3
    assert capsys.readouterr() == (
        "",
        "internal error: shape does not rebuild the character\n",
    )


def test_tiling_check_sees_a_gap():
    # a chunk whose top value and length fit the character but whose values
    # step over a gap in it
    data = RunData(beta_plus=(3,), p_runs=(), q_runs=(), big=((3, 2),), lam2=(4, 2, -2))
    with pytest.raises(AssertionError, match="shape does not rebuild the character"):
        shapes_module._place_centres(data, (3,), [3])
    assert shapes_module._place_centres(data._replace(lam2=(4, 2, 0)), (3,), [3]) == [
        ((2,),)
    ]


def test_shared_blocks_print_once_each():
    # one block object in two shapes, next to an equal block that is
    # another object: each prints as json.dumps prints its dict
    half = (Fraction(1, 2),), (Fraction(-1, 2),)
    shared = ShapeBlock(1, 2, half, -1)
    twin = ShapeBlock(1, 2, ((Fraction(1, 2),), (Fraction(-1, 2),)), -1)
    low = ShapeBlock(1, 1, ((Fraction(-1),), (Fraction(1),)), 1)
    lower = ShapeBlock(1, 1, ((Fraction(-1),), (Fraction(-2),)), 1)
    assert shared == twin and shared is not twin
    record = DeltaMax(
        ((2, 1), (1, 1, 1)),
        GrowthValue(Fraction(3), 0),
        (2, 1),
        (Shape((shared, low)), Shape((shared, lower)), Shape((twin, lower))),
    )
    first = [1, 2, [["1/2"], ["-1/2"]], -1]
    want = {
        "bound": {"main": "3", "eps": 0},
        "candidates": [[2, 1], [1, 1, 1]],
        "q_argmax": [2, 1],
        "shapes": [
            {"blocks": [first, [1, 1, [["-1"], ["1"]], 1]]},
            {"blocks": [first, [1, 1, [["-1"], ["-2"]], 1]]},
            {"blocks": [first, [1, 1, [["-1"], ["-2"]], 1]]},
        ],
    }
    assert record.to_text() == json.dumps(want, sort_keys=True, indent=2)
    assert record.to_json() == want


def test_wide_rep_output_frozen(capsys):
    # rank 9, 3 places, 12 shapes; the bytes the Fraction assembly printed
    assert cli.run(["delta-max", "--rep", str(DATA / "wide12_rep.json")]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["shapes"]) == 12
    assert out == (DATA / "wide12_delta_max.json").read_text()


def test_rank14_rep_output_frozen(capsys):
    # rank 14, 2 places, 72 shapes; the second place's run of 12 is cut in the
    # 9 orderings of (4, 1^8), so the bytes pin what _chunkings yields
    assert cli.run(["delta-max", "--rep", str(DATA / "rank14_rep.json")]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["shapes"]) == 72
    assert out == (DATA / "rank14_delta_max.json").read_text()


@settings(max_examples=200)
@given(global_reps())
@example(GlobalRep((_rep71(), _rep72())))
@example(WIDE12)
def test_delta_max_prints_what_json_dumps_prints(rep):
    # the CLI writes the record straight from its shapes, and to_json reads
    # that text back; json.dumps of the dict is the oracle of the format,
    # bytes and order included, and a dict built here from the scoring and
    # the Fraction assembly is the oracle of the values
    cands = sl2_candidates(rep)
    assume(cands)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.StringIO(rep_text(rep)))
        with contextlib.redirect_stdout(out):
            assert cli.run(["delta-max", "--rep", "-"]) == 0
    record = delta_max(rep).to_json()
    assert out.getvalue() == json.dumps(record, sort_keys=True, indent=2) + "\n"
    bound, q_argmax, tops = dominant(cands)
    places = [(local.blocks, local.lam) for local in rep.places]
    assert json.loads(out.getvalue()) == {
        "bound": {"main": format_rational(bound.main), "eps": bound.eps},
        "q_argmax": list(q_argmax),
        "candidates": [list(q) for q in cands],
        "shapes": oracles.dominant_shapes(places, tops, rep.rank),
    }


def _unchecked_shape(*blocks) -> Shape:
    # (T, d, centres per place, eta) blocks, with none of the checks
    return tuple.__new__(
        Shape, (tuple(tuple.__new__(ShapeBlock, b) for b in blocks),)
    )


@pytest.mark.parametrize(
    "record, want",
    [
        (
            DeltaMax((), GrowthValue(Fraction(0), 0), (), ()),
            {
                "bound": {"main": "0", "eps": 0},
                "q_argmax": [],
                "candidates": [],
                "shapes": [],
            },
        ),
        (
            DeltaMax(
                ((3,), ()),
                GrowthValue(Fraction(-7, 2), -1),
                (3,),
                (
                    _unchecked_shape(),
                    _unchecked_shape((1, 1, ((),), 1), (2, 3, (), -1)),
                ),
            ),
            {
                "bound": {"main": "-7/2", "eps": -1},
                "q_argmax": [3],
                "candidates": [[3], []],
                "shapes": [
                    {"blocks": []},
                    {"blocks": [[1, 1, [[]], 1], [2, 3, [], -1]]},
                ],
            },
        ),
        (
            DeltaMax(
                ((2, 1), (1, 1, 1)),
                GrowthValue(Fraction(5, 2), 1),
                (2, 1),
                (
                    Shape(
                        (
                            ShapeBlock(
                                1, 2, ((Fraction(1, 2),), (Fraction(-1, 2),)), -1
                            ),
                            ShapeBlock(
                                1, 1, ((Fraction(-1),), (Fraction(1),)), 1
                            ),
                        )
                    ),
                ),
            ),
            {
                "bound": {"main": "5/2", "eps": 1},
                "q_argmax": [2, 1],
                "candidates": [[2, 1], [1, 1, 1]],
                "shapes": [
                    {
                        "blocks": [
                            [1, 2, [["1/2"], ["-1/2"]], -1],
                            [1, 1, [["-1"], ["1"]], 1],
                        ]
                    }
                ],
            },
        ),
    ],
    ids=["empty", "empty-tuples", "two-places"],
)
def test_to_json_of_hand_built_records(record, want):
    # the dicts the record and shape converters built before they read the
    # text back, empty tuples included
    assert record.to_json() == want
    assert [shape_to_json(s) for s in record.shapes] == want["shapes"]


# --- block predicates and Sato-Tate factors ----------------------------------


def test_gsk_predicates():
    assert is_gsk(((3, 1),))
    assert is_gsk(((2, 1), (1, 3), (1, 5)))
    assert is_odd_gsk(((2, 1), (1, 3), (1, 5)))
    assert not is_gsk(((1, 2),))  # no length-1 block
    assert not is_gsk(((2, 1), (2, 3)))  # repeated long block
    assert not is_gsk(((1, 1), (1, 2), (1, 2)))  # duplicate lengths
    assert is_gsk(((1, 1), (1, 2), (1, 4)))
    assert not is_odd_gsk(((1, 1), (1, 2), (1, 4)))


def test_sato_tate():
    s = delta_max(GlobalRep((_rep72(),))).shapes[0]
    assert sato_tate_group(s) == ((1, 1), (4, 1))
    g = GlobalRep((_rep71(), _rep72()))
    assert sato_tate_group(delta_max(g).shapes[0]) == ((1, 1), (1, 1), (2, 1))


# --- parity test -------------------------------------------------------------


def test_parity_pass():
    g = GlobalRep((_rep72(),))
    s = delta_max(g).shapes[0]
    assert odd_gsk_parity_test(g, s) is True


def test_parity_fail():
    # shifting the mixed block one step right flips the position index
    rep = LocalRep(
        p=6, q=1, blocks=((1, 0), (2, 1)) + ((1, 0),) * 3, lam=RHO7
    )
    g = GlobalRep((rep,))
    shapes = delta_max(g).shapes
    assert len(shapes) == 1
    assert sl2_partition(shapes[0]) == (3, 1, 1, 1, 1)
    assert odd_gsk_parity_test(g, shapes[0]) is False


def test_parity_requires_odd_gsk():
    g = GlobalRep((_rep71(), _rep72()))
    s = delta_max(g).shapes[0]  # contains a length-2 block
    with pytest.raises(ValueError):
        odd_gsk_parity_test(g, s)


def test_stretch_straddle_rejected():
    # values 3/2, 1/2, -1/2 in the mixed block, then -3/2 in a (1,0) block;
    # each centre is given doubled
    rep = LocalRep(p=3, q=1, blocks=((2, 1), (1, 0)), lam=rho(4))
    with pytest.raises(ValueError, match="straddles"):
        _stretch_q(rep, 0, 2)  # 1/2, -1/2: part of the mixed block
    with pytest.raises(ValueError, match="straddles"):
        _stretch_q(rep, -2, 2)  # -1/2, -3/2: across its boundary
    assert _stretch_q(rep, 1, 3) == 1  # the mixed block exactly
    assert _stretch_q(rep, -3, 1) == 0
    with pytest.raises(ValueError, match="missing from the local character"):
        _stretch_q(rep, 0, 3)  # 1, 0, -1: between the block's values


def test_stretch_missing_values_rejected():
    rep = LocalRep(p=2, q=2, blocks=((1, 0), (0, 1)) * 2, lam=rho(4))
    assert _stretch_q(rep, 0, 4) == 2  # the (0,1) values 1/2, -3/2
    assert _stretch_q(rep, 1, 3) == 1  # 3/2, 1/2, -1/2
    for c2, d in [
        (-3, 3),  # -1/2, -3/2 and -5/2, which lam lacks
        (5, 1),  # above the character
        (0, 1),  # between two values
        (0, 3),  # 1, 0 and -1: no value of lam
    ]:
        with pytest.raises(ValueError, match="missing from the local character"):
            _stretch_q(rep, c2, d)


def test_parity_test_hands_int_centres(monkeypatch):
    # each place's parity compares the block's centre and every stretch's
    # with the int lam2, so all of them must reach it as doubled ints: on a
    # shape from delta_max and on the same shape rebuilt from its texts
    place_parity = shapes_module._place_parity
    seen = []

    def spy(local, stretches, d, c2):
        seen.append(c2)
        seen.extend(x2 for _, x2 in stretches)
        return place_parity(local, stretches, d, c2)

    monkeypatch.setattr(shapes_module, "_place_parity", spy)
    rep = global_rep_from_json(json.loads((DATA / "odd_block_rep.json").read_text()))
    (shape,) = delta_max(rep).shapes
    rebuilt = Shape(
        ShapeBlock(t, d, centers, eta)
        for t, d, centers, eta in shape_to_json(shape)["blocks"]
    )
    for s in (shape, rebuilt):
        seen.clear()
        assert odd_gsk_parity_test(rep, s) is True
        assert seen and all(type(c) is int for c in seen)


def _with_character_shifted(places, k):
    return GlobalRep(
        tuple(LocalRep(r.p, r.q, r.blocks, [x + k for x in r.lam]) for r in places)
    )


def _outcome(parity_test, *args):
    try:
        return parity_test(*args)
    except ValueError as e:
        return type(e), str(e)


def test_parity_test_matches_fraction_oracle():
    # every dominant shape of the one-place reps of rank <= 7 with character
    # rho(n), and of the two-place reps of neighbours in that list; each is
    # tested on its own rep, on its rep with every character shifted by 1
    # (stretches straddle or miss) and by n (no value in common), and on the
    # next rep in the list (after the last one-place rep, a two-place one)
    outcomes = Counter()
    for n in range(1, 8):
        locs = [
            LocalRep(p, n - p, b, rho(n))
            for p in range(n + 1)
            for b in reduced_bipartitions(p, n - p)
        ]
        reps = [GlobalRep((r,)) for r in locs]
        reps += [GlobalRep(pair) for pair in zip(locs, locs[1:])]
        for i, g in enumerate(reps):
            try:
                shapes = delta_max(g).shapes
            except ValueError:  # no common SL(2)-type across the places
                continue
            others = [
                g,
                _with_character_shifted(g.places, 1),
                _with_character_shifted(g.places, n),
                *reps[i + 1 : i + 2],
            ]
            for shape in shapes:
                for h in others:
                    got = _outcome(odd_gsk_parity_test, h, shape)
                    places = [(r.p, r.q, r.blocks, r.lam) for r in h.places]
                    blocks = [
                        (b.T, b.d, _halved(b.centers2), b.eta) for b in shape.blocks
                    ]
                    want = _outcome(oracles.parity_test, places, blocks)
                    assert got == want, (h, shape)
                    outcomes[got if type(got) is bool else got[1]] += 1
    assert sum(outcomes.values()) == 10369
    assert outcomes[True] == 1237 and outcomes[False] == 1341
    # every refusal of the parity test occurs
    assert len(outcomes) == 6


# --- validation and serialization --------------------------------------------


def test_shape_block_validation():
    with pytest.raises(ValueError):
        ShapeBlock(T=2, d=1, centers=((Fraction(0),),), eta=1)  # wrong count
    with pytest.raises(ValueError):
        ShapeBlock(
            T=2, d=1, centers=((Fraction(0), Fraction(0)),), eta=1
        )  # not strictly decreasing
    with pytest.raises(ValueError):
        ShapeBlock(T=1, d=1, centers=((Fraction(0),),), eta=0)
    with pytest.raises(ValueError):
        ShapeBlock(T=1, d=0, centers=((),), eta=1)
    # centres are read as LocalRep reads its character: integers and
    # half-integers only, and no exponent of 4300 or more in size
    for bad in (Fraction(1, 3), "1/3", Decimal("0.25"), 0.1):
        with pytest.raises(
            ValueError, match="^centers must be integers or half-integers$"
        ):
            ShapeBlock(T=1, d=1, centers=((bad,),), eta=1)
    for huge in ("1e4300", "-1E-4300", Decimal("1e5000")):
        with pytest.raises(ValueError, match="exponents below 4300"):
            ShapeBlock(T=1, d=1, centers=((huge,),), eta=1)
    # a block refused for its count or order keeps that text
    with pytest.raises(ValueError, match="needs 2 centers"):
        ShapeBlock(T=2, d=1, centers=(("1/3",),), eta=1)
    with pytest.raises(ValueError, match="strictly decreasing"):
        ShapeBlock(T=2, d=1, centers=(("1/3", "1/3"),), eta=1)


@st.composite
def _doubled_blocks(draw):
    # 1-4 blocks over 1-3 places: (T, d, rows of T distinct doubled
    # centres, descending, eta), in a range narrow enough that strings
    # often collide
    places = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.integers(1, 3))
        rows = [
            sorted(draw(st.sets(st.integers(-9, 9), min_size=t, max_size=t)))[::-1]
            for _ in range(places)
        ]
        blocks.append((t, draw(st.integers(1, 4)), rows, draw(st.sampled_from((1, -1)))))
    return blocks


@settings(max_examples=300)
@given(_doubled_blocks(), st.booleans())
@example([(1, 2, [[1], [1]], 1), (1, 1, [[4], [0]], 1)], False)  # place 2 collides
@example([(2, 3, [[4, -4]], 1), (1, 1, [[-1]], -1)], True)  # parities differ
def test_shape_regularity_matches_fraction_oracle(blocks, as_text):
    # Shape's int repeat scan accepts and refuses the shapes that the
    # oracle's sorted Fraction expansions do, place by place, with its text
    def halve(c2):
        c = Fraction(c2, 2)
        return format_rational(c) if as_text else c

    def oracle():
        for v in range(len(blocks[0][2])):
            oracles.total_character(
                (Fraction(c2, 2), d) for _, d, rows, _ in blocks for c2 in rows[v]
            )

    def shape():
        Shape(
            ShapeBlock(t, d, [list(map(halve, row)) for row in rows], eta)
            for t, d, rows, eta in blocks
        )

    got, want = _outcome(shape), _outcome(oracle)
    target(float(got is None))
    assert (got and got[1]) == (want and want[1])
    assert got is None or got[0] is IrregularCharacterError


def test_shape_validation():
    b1 = ShapeBlock(T=1, d=2, centers=((Fraction(1, 2),),), eta=1)
    b2 = ShapeBlock(T=1, d=1, centers=((Fraction(0),), (Fraction(0),)), eta=1)
    with pytest.raises(ValueError):
        Shape(blocks=(b1, b2))  # place counts disagree
    # two strings collide; the repeated entry is printed as
    # format_rational prints it
    for blocks, entry in [
        ((b1, b1), "1"),
        ((ShapeBlock(1, 1, (("-3/2",),), 1),) * 2, "-3/2"),
        ((ShapeBlock(1, 3, ((-1,),), 1), ShapeBlock(1, 1, ((-2,),), 1)), "-2"),
    ]:
        with pytest.raises(
            IrregularCharacterError,
            match=f"^total character has a repeated entry {entry}$",
        ):
            Shape(blocks=blocks)
    with pytest.raises(ValueError):
        Shape(blocks=())


def test_shape_rank_and_places():
    s = delta_max(GlobalRep((_rep71(), _rep72()))).shapes[0]
    assert s.rank == 7
    assert s.places == 2


def test_shape_json_round_trip():
    for g in (GlobalRep((_rep72(),)), GlobalRep((_rep71(), _rep72()))):
        for s in delta_max(g).shapes:
            data = json.loads(json.dumps(shape_to_json(s)))
            blocks = tuple(
                ShapeBlock(T=t, d=d, centers=tuple(map(tuple, centers)), eta=eta)
                for t, d, centers, eta in data["blocks"]
            )
            assert Shape(blocks=blocks) == s


def test_shape_json_format():
    s = delta_max(GlobalRep((_rep72(),))).shapes[0]
    assert shape_to_json(s) == {
        "blocks": [
            [1, 3, [["2"]], 1],
            [4, 1, [["0", "-1", "-2", "-3"]], 1],
        ]
    }
