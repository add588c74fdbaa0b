"""From a representation to its dominant growth shape and main term.

Given a representation at each archimedean place, the library enumerates the
candidate SL(2) shapes, scores them with the refined growth bound, and keeps
the maximizers.  When the winners are odd generalized Saito-Kurokawa shapes
the multiplicity count has an exact main term whose coefficient depends on a
component-group parity test.
"""

from __future__ import annotations

from upqgrowth import (
    GlobalRep,
    LocalRep,
    delta_max,
    index_congruence,
    leading_term,
    q_can,
    rep_bound,
    rho,
    sl2_candidates,
    sl2_partition,
)

# A two-place rank-7 example on U(6,1) x U(6,1).  The per-place candidate
# lists differ, and only two SL(2) partitions survive at both places.
lam = rho(7)
rep = GlobalRep(
    (
        LocalRep(p=6, q=1, blocks=((1, 1),) + ((1, 0),) * 5, lam=lam),
        LocalRep(p=6, q=1, blocks=((2, 1),) + ((1, 0),) * 4, lam=lam),
    )
)

print("candidate SL(2) partitions:", sl2_candidates(rep))
print("canonical candidate:       ", q_can(rep))
value, witness = rep_bound(rep)
print(f"growth exponent {value} attained at {witness}")
# Two partitions tie here; the reported witness is the lexicographically
# smaller one.  The full list of maximizing shapes shows both.
shapes = delta_max(rep).shapes
print(f"{len(shapes)} dominant shapes, SL(2) types "
      f"{sorted({sl2_partition(s) for s in shapes})}")

# A one-place family where the main term is exact: U(N-1,1) with one block
# of length k (odd) among degenerate blocks.  The coefficient flips on and
# off with the block offset because the component-group character does.
print()
n, k = 7, 3
print(f"U({n - 1},1) reps with a length-{k} block, varying the offset r:")
print("  count ~ coeff * volume * norm^(exponent-1) * Gamma_L(ideal)")
for r in range(0, n - k + 1):
    blocks = ((1, 0),) * r + ((k - 1, 1),) + ((1, 0),) * (n - k - r)
    family = GlobalRep((LocalRep(p=n - 1, q=1, blocks=blocks, lam=rho(n)),))
    term = leading_term(family)
    print(f"  r={r}: exponent {term.exponent}, L-indices {term.indices},"
          f" coefficient {term.coeff}")

# The congruence-subgroup index entering the same count, at a split prime of
# residue degree one, is the order of the general linear group over the
# residue field.
print()
for q in (2, 3):
    print(f"index at a degree-one prime over {q}, rank 2:",
          index_congruence(2, ((q, 1),)))
