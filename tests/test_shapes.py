"""Shape enumeration: run splitting, candidate types, dominant shapes."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

import oracles
from upqgrowth import cli, shapes as shapes_module
from upqgrowth.cohomology import GlobalRep, LocalRep, global_rep_from_json
from upqgrowth.growth import dominant, partition_bound, rep_bound
from upqgrowth.infchar import IrregularCharacterError, rho
from upqgrowth.partitions import reduced_bipartitions
from upqgrowth.shapes import (
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
    total_infchar,
    _stretch_q,
)

RHO7 = rho(7)
DATA = Path(__file__).resolve().parent / "data"
# rank 9, 3 places, 12 dominant shapes
WIDE12 = global_rep_from_json(json.loads((DATA / "wide12_rep.json").read_text()))


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
    assert s.blocks[0].centers == ((Fraction(2),),)
    assert s.blocks[1].centers == (
        (Fraction(0), Fraction(-1), Fraction(-2), Fraction(-3)),
    )
    assert total_infchar(s) == RHO7


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
    assert s0.blocks[0].centers == ((Fraction(-2),), (Fraction(2),))
    assert s0.blocks[1].centers == (
        (Fraction(5, 2),),
        (Fraction(-5, 2),),
    )
    assert s0.blocks[2].centers == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(-1)),
    )
    for s in shapes:
        for v in range(2):
            assert total_infchar(s, v) == RHO7


def test_shapes_deduplicated_and_sorted():
    g = GlobalRep((_rep71(), _rep72()))
    shapes = delta_max(g).shapes
    assert len(set(shapes)) == len(shapes)


@st.composite
def global_reps(draw, n_max=8):
    """Reps of rank <= n_max with 1-3 places. A place is a row of segments,
    each a run of same-side degenerate blocks or one mixed block, with a
    regular integral character adapted to it; the gap between segments is
    mostly 1, so runs often join and chunk in many ways."""
    n = draw(st.integers(1, n_max))
    places = []
    for _ in range(draw(st.integers(1, 3))):
        blocks, lam = [], []
        top = Fraction(n - 1, 2) + draw(st.integers(-2, 2))
        while len(lam) < n:
            room = n - len(lam)
            if room > 1 and draw(st.booleans()):
                s = draw(st.integers(2, room))
                x = draw(st.integers(1, s - 1))
                segment = [(x, s - x)]
            else:
                side = draw(st.sampled_from(((1, 0), (0, 1))))
                s = draw(st.integers(1, room))
                segment = [side] * s
            if lam:
                top = lam[-1] - draw(st.sampled_from((1, 1, 2)))
            blocks += segment
            lam.extend(top - i for i in range(s))
        p = sum(x for x, _ in blocks)
        places.append(LocalRep(p=p, q=n - p, blocks=tuple(blocks), lam=tuple(lam)))
    return GlobalRep(tuple(places))


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
                ShapeBlock(T=b.T, d=b.d, centers=b.centers, eta=b.eta)
                for b in s.blocks
            )
        )
        assert checked == s
        assert hash(checked) == hash(s)
        for b in s.blocks:
            assert all(type(c) is Fraction for place in b.centers for c in place)


def test_delta_max_checks_no_fraction_character(monkeypatch, capsys):
    # the int rebuild check is the only character check of a dominant shape
    def refuse(*args):
        raise AssertionError("Fraction character check called")

    monkeypatch.setattr(shapes_module.infchar, "total_character", refuse)
    monkeypatch.setattr(shapes_module, "total_infchar", refuse)
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
    rep = LocalRep(p=3, q=1, blocks=((2, 1), (1, 0)), lam=rho(4))
    top = rho(4)[:3]
    with pytest.raises(ValueError):
        _stretch_q(rep, top[1:])  # overlaps the mixed block partially
    assert _stretch_q(rep, top) == 1
    assert _stretch_q(rep, (Fraction(-3, 2),)) == 0


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


def test_shape_validation():
    b1 = ShapeBlock(T=1, d=2, centers=((Fraction(1, 2),),), eta=1)
    b2 = ShapeBlock(T=1, d=1, centers=((Fraction(0),), (Fraction(0),)), eta=1)
    with pytest.raises(ValueError):
        Shape(blocks=(b1, b2))  # place counts disagree
    with pytest.raises(IrregularCharacterError):
        # two copies of the same string collide
        Shape(blocks=(b1, b1))
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
