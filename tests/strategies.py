"""Hypothesis strategies and writers shared by the test modules."""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import strategies as st

from upqgrowth.cohomology import GlobalRep, LocalRep
from upqgrowth.infchar import format_rational


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


def rep_text(rep: GlobalRep) -> str:
    """The representation as the CLI reads it."""
    return json.dumps({"places": [
        {
            "signature": [local.p, local.q],
            "bipartition": [list(block) for block in local.blocks],
            "infchar": [format_rational(v) for v in local.lam],
        }
        for local in rep.places
    ]})
