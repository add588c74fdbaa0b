"""Density exponents for congruence towers, row by row.

For a partition Q of N the library computes three exact quantities: the
provable growth exponent, the conjectural one, and the density goal
(N^2 - 1)(1 - max_ratio).  Both exponents come in the R - 1 normalization,
one less than the best score R over Q and its one-merge coarsenings.  The
shipped reference table freezes the sixteen rows used as a regression
target; this demo recomputes a few rows from scratch and prints the whole
table.
"""

from __future__ import annotations

from upqgrowth import (
    REFERENCE_TABLE,
    integrability_bound,
    max_ratio,
    partition_bound,
    qd,
    sx_row,
    verify_table1,
)

example = (2, 2)
print(f"worked row Q = {example}")
print(f"  raw partition score      {partition_bound(example)}")
print(f"  max sigma_i/(i(N-i))     {max_ratio(example)}")
print(f"  2/p integrability bound  {integrability_bound(example)}")
row = sx_row(example)
print(f"  provable exponent        {row.provable} (R-1, R the top score of Q and its merges)")
print(f"  conjectural exponent     {row.conjectural}")
print(f"  density goal             {row.sx_goal}")
print(f"  trivial bound N^2-1      {row.trivial}")

# qd(N, d) is the extremal partition with all parts <= d; it maximizes the
# ratio above among such partitions, which is what drives the density
# argument for level towers with bounded part size.
print()
print("extremal partitions qd(10, d):", [qd(10, d) for d in (2, 3, 4)])

print()
print("full reference table (exponents printed in the R-1 normalization):")
header = f"{'Q':18} {'provable':>12} {'conjectural':>12} {'goal':>10} {'trivial':>8}"
print(header)
for r in REFERENCE_TABLE:
    prov = f"{r.provable.main}" + ("*" if r.provable.eps else "")
    prov += " (c)" if r.provable_at_coarsening else ""
    conj = f"{r.conjectural.main}" + (" (c)" if r.conjectural_at_coarsening else "")
    goal = f"{float(r.sx_goal):.2f}"
    print(f"{str(r.q):18} {prov:>12} {conj:>12} {goal:>10} {r.trivial:>8}")
print("(* marks an epsilon in the exponent; (c) marks a value attained at a"
      " one-merge coarsening of Q, needed because size-1 parts can recombine)")

cert = verify_table1()
print()
print(f"recomputation against the frozen table: ok={cert.ok},"
      f" {cert.checked_count} rows checked")
