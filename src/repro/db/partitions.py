"""Data partitions ("relations") over the object space.

Lazy transfer's first round goes partition by partition (section 4.7):
"we suggest that in the first round data are transferred per data
partition (e.g., per relation).  In case of failures during this round,
the new peer site does not need to restart but simply continue the
transfer for those partitions the joiner has not yet received."

Section 4.3's coarse transfer locks "e.g., on relations" are not
offered: an object lock goes back the moment its object is captured,
so a coarse lock would only save lock-manager calls while making
writers wait (EXPERIMENTS.md E12).

Objects are assigned to partitions by a stable hash, so every site
agrees on the mapping without any coordination.
"""

from __future__ import annotations

import zlib
from typing import List


def partition_of(obj: str, partition_count: int) -> str:
    """Stable partition name for an object (same at every site)."""
    if partition_count <= 0:
        raise ValueError("partition_count must be positive")
    index = zlib.crc32(obj.encode("utf-8")) % partition_count
    return f"part{index}"


def partition_names(partition_count: int) -> List[str]:
    return [f"part{i}" for i in range(partition_count)]

