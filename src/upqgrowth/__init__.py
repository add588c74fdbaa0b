"""Exact combinatorics of cohomological representations of real unitary
groups: packets, SL(2) shapes, growth exponents, and density bounds.

The names below are the ones the README tour and demos/ use; everything
else is imported from its own module (upqgrowth.growth, upqgrowth.shapes,
...)."""

from .cohomology import GlobalRep, LocalRep, hodge_profile, reps_in_degree
from .growth import GrowthValue, partition_bound, rep_bound
from .infchar import rho
from .partitions import (
    bipartitions_with_block_sums,
    block_sums,
    reduced_bipartitions,
)
from .sarnakxue import (
    REFERENCE_TABLE,
    integrability_bound,
    max_ratio,
    qd,
    sx_row,
    verify_table1,
)
from .shapes import delta_max, q_can, sl2_candidates, sl2_partition
from .asymptotics import index_congruence, leading_term

__version__ = "0.1.0"

__all__ = [
    "GlobalRep",
    "GrowthValue",
    "LocalRep",
    "REFERENCE_TABLE",
    "bipartitions_with_block_sums",
    "block_sums",
    "delta_max",
    "hodge_profile",
    "index_congruence",
    "integrability_bound",
    "leading_term",
    "max_ratio",
    "partition_bound",
    "q_can",
    "qd",
    "reduced_bipartitions",
    "rep_bound",
    "reps_in_degree",
    "rho",
    "sl2_candidates",
    "sl2_partition",
    "sx_row",
    "verify_table1",
]
