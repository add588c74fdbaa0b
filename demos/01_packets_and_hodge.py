"""Tour of the local layer: bipartitions, packets, and Hodge profiles.

A cohomological representation of U(p,q) is encoded by an ordered tuple of
blocks (p_i, q_i) with sum (p, q), reduced so that no two degenerate blocks
(those with p_i*q_i = 0) are adjacent.  Run this file to see the encoding,
the packet fibers, and the cohomology ranges for U(2,1).
"""

from __future__ import annotations

from upqgrowth import (
    bipartitions_with_block_sums,
    block_sums,
    hodge_profile,
    reduced_bipartitions,
    reps_in_degree,
    rho,
)

P, Q = 2, 1

print(f"All reduced bipartitions for U({P},{Q}):")
for blocks in reduced_bipartitions(P, Q):
    prof = hodge_profile(blocks)
    degrees = [prof.lowest + 2 * t for t in range(prof.maxshift + 1)]
    print(f"  {blocks!s:24} block sums {block_sums(blocks)!s:10} "
          f"cohomology degrees {degrees}")

# The packet over a given tuple of block sums collects every bipartition
# refining it; its size is the product of the per-block binomials.
print()
for sums in ((3,), (2, 1), (1, 1, 1)):
    members = bipartitions_with_block_sums(sums, P, Q)
    print(f"packet over block sums {sums}: {len(members)} member(s)")
    for m in members:
        print(f"  {m}")

# Fixing an infinitesimal character (here the weight of the trivial
# representation) and a cohomological degree cuts the list down to the
# representations actually contributing there.
lam = rho(P + Q)
print()
print(f"infinitesimal character {lam}")
for degree in range(0, 3):
    reps = reps_in_degree(P, Q, lam, degree)
    print(f"degree {degree}: {len(reps)} contributor(s) {reps}")
