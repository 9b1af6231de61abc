"""Primary-view policies (section 2.1).

The paper's default: "any view with a majority of sites is a primary
view (the number of sites is assumed to be static and known)".  It also
notes that "extending our discussion to ... other definitions of
primary view (e.g., a view containing a majority of the previous
primary view) is straightforward" — this module provides both.

The *dynamic-linear* policy threads a primary lineage through the
system: a view is primary iff it contains a majority of the members of
the most recent primary view (bootstrapping from a majority of the
static universe).  Because any two majorities of the same set
intersect, at most one chain of primaries can exist — but the policy
tolerates shrinkage: after primary {S1..S5} -> {S3,S4,S5}, the view
{S3,S4} (a majority of three, though only 2 of 5) is still primary.

Primacy is decided by the membership-round coordinator from the
lineage claims collected in the flush, and shipped in the SYNC message,
so all installers of a view agree on its primacy by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class PrimaryLineage:
    """One member's knowledge of the most recent primary view."""

    generation: int
    members: Tuple[str, ...]


def most_recent(claims: Sequence[Optional[PrimaryLineage]]) -> Optional[PrimaryLineage]:
    """The highest-generation lineage claim among the participants."""
    best: Optional[PrimaryLineage] = None
    for claim in claims:
        if claim is None:
            continue
        if best is None or claim.generation > best.generation:
            best = claim
    return best


#: The policies a ``GCSConfig.primary_policy`` can name: ``static`` —
#: the paper's default, a majority of the static universe — and
#: ``dynamic_linear`` — a majority of the previous primary view
#: (bootstrap: of the universe).
PRIMARY_POLICIES = ("static", "dynamic_linear")


def unknown_policy(policy: str) -> ValueError:
    return ValueError(f"unknown primary policy {policy!r}; "
                      f"known: {sorted(PRIMARY_POLICIES)}")


def is_primary(policy: str, members: Sequence[str], universe_size: int,
               claims: Sequence[Optional[PrimaryLineage]]) -> bool:
    """Is a freshly formed view of ``members`` primary under ``policy``,
    given the lineage ``claims`` its members flushed?"""
    if policy not in PRIMARY_POLICIES:
        raise unknown_policy(policy)
    lineage = most_recent(claims) if policy == "dynamic_linear" else None
    if lineage is None:
        return 2 * len(members) > universe_size
    overlap = len(set(members) & set(lineage.members))
    return 2 * overlap > len(lineage.members)
