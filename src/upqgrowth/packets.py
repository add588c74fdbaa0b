"""Packet membership and component-group sign characters.

The packet over an ordered partition P with signature (p, q) is the set of
reduced bipartitions whose block sums equal P (enumerated by
`partitions.bipartitions_with_block_sums`).  Its component group is
generated by one sign per part, and each member B of the packet determines a
character on those generators.
"""

from __future__ import annotations

from .partitions import (
    Bipartition,
    block_sums,
    validate_bipartition,
    validate_partition,
)


def chi4(a: int) -> int:
    """0 when a = 0 or 1 mod 4, else 1.  Parity of a*(a-1)/2."""
    return 0 if a % 4 in (0, 1) else 1


def component_character(
    blocks: Bipartition, parts: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """Sign of each component-group generator on the member `blocks`.

    The i-th sign is (-1) ** (a_i * a_<i + q_i + chi4(a_i)) where a_i is the
    i-th block sum and a_<i the total rank before it.
    """
    validate_bipartition(blocks)
    sums = block_sums(blocks)
    if parts is not None:
        validate_partition(parts)
        if tuple(parts) != sums:
            raise ValueError(
                f"block sums {sums} do not match the packet partition {tuple(parts)}"
            )
    out: list[int] = []
    before = 0
    for (x, y), a in zip(blocks, sums):
        e = a * before + y + chi4(a)
        out.append(-1 if e % 2 else 1)
        before += a
    return tuple(out)
