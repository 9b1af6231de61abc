"""Replication-level multicast payloads (carried inside GCS messages)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True, slots=True)
class RequestId:
    """Durable identity of one logical client request.

    ``(client_id, seq)`` names the request for its whole life; ``attempt``
    distinguishes resubmissions of the *same* request after a failover or
    a definitive abort.  The replicated outcome table is keyed by
    ``(client_id, seq)`` only — two attempts of one request must never
    both commit.
    """

    client_id: str
    seq: int
    attempt: int = 0

    @property
    def key(self) -> Tuple[str, int]:
        return (self.client_id, self.seq)

    def __repr__(self) -> str:
        return f"<Req {self.client_id}:{self.seq}#{self.attempt}>"


@dataclass(frozen=True)
class TransactionMessage:
    """The single per-transaction message of the replica control protocol.

    Sent with the uniform total-order multicast at the end of the local
    read phase; carries "all write operations and the identifiers of the
    objects read along with the respective version numbers".
    """

    origin: str
    local_id: str
    read_set: Tuple[Tuple[str, int], ...]  # (object, version read)
    write_set: Tuple[Tuple[str, Any], ...]  # (object, new value)
    #: Conservative protocol only (NodeConfig.protocol="conservative"):
    #: objects to read *at delivery time* at the origin, under shared
    #: locks ordered by the total order.  The certification protocol
    #: (the paper's section 2.2 default) reads locally before sending
    #: and ships versions in ``read_set`` instead.
    deferred_reads: Tuple[str, ...] = ()
    #: Client-session requests carry their durable id so every site can
    #: run the exactly-once dedup check at delivery time.  ``None`` for
    #: anonymous (non-session) transactions, which keep at-most-once
    #: semantics only.
    request: Optional[RequestId] = None

    def reads(self) -> Dict[str, int]:
        # Memoized: every site of the view calls this on the *same*
        # in-process instance several times per delivery.  Writing via
        # __dict__ sidesteps the frozen-dataclass setattr guard; eq and
        # hash still see only the declared fields.  Callers never mutate
        # the returned mapping.
        cached = self.__dict__.get("_reads")
        if cached is None:
            cached = self.__dict__["_reads"] = dict(self.read_set)
        return cached

    def writes(self) -> Dict[str, Any]:
        cached = self.__dict__.get("_writes")
        if cached is None:
            cached = self.__dict__["_writes"] = dict(self.write_set)
        return cached


@dataclass(frozen=True)
class UpToDateAnnouncement:
    """Plain-VS sub-protocol: a joiner announces it finished catching up.

    Under plain virtual synchrony "a member of a primary view is not
    necessarily an up-to-date member" (section 5), so completion must be
    announced explicitly; under EVS the SubviewMerge replaces this.
    The announcement also carries the site's cover gid, which feeds the
    RecTable garbage collection (section 4.5, step II).
    """

    site: str
    cover_gid: int


@dataclass(frozen=True)
class CoverAnnouncement:
    """Periodic exchange of cover gids for RecTable garbage collection."""

    site: str
    cover_gid: int


@dataclass(frozen=True)
class ConfigChange:
    """Logless backend: a configuration write in the total-order stream.

    The active configuration is replicated *state* — a member set plus a
    version counter — not a dedicated membership log entry.  Every site
    applies the change at delivery iff ``base_version`` equals its
    current config version (a compare-and-swap resolved by the total
    order); a mismatch means the proposal raced a concurrent change and
    is discarded as stale, everywhere, deterministically.  ``replace``
    (when not ``None``) installs the given member set wholesale — the
    creation protocol uses it; otherwise the new member set is
    ``(members - remove) | add``.
    """

    proposer: str
    base_version: int
    add: Tuple[str, ...] = ()
    remove: Tuple[str, ...] = ()
    replace: Optional[Tuple[str, ...]] = None
    #: Human-readable provenance ("join", "repair", "creation") for
    #: traces and tests; never consulted by the apply rule.
    reason: str = ""


@dataclass(frozen=True)
class LastRoundDelimiter:
    """Lazy transfer's delimiter transaction (section 4.7), multicast by
    the peer of session ``session_id`` when its rounds end.  Where the
    total order delivers it is the last round's synchronization point:
    the peer captures the state as of it, and the joiner enqueues every
    transaction delivered after it."""

    session_id: str


@dataclass(frozen=True)
class CreationReport:
    """One site's contribution to the creation protocol (section 3).

    ``committed_above_cover`` carries the after-images of transactions
    this site committed beyond its cover, so the elected source site can
    complete its state: every transaction at or below the maximum cover
    is already in the max-cover site's database, and every committed
    transaction above it appears in at least one report.
    """

    site: str
    cover_gid: int
    last_delivered_gid: int
    committed_above_cover: Tuple[Tuple[int, Tuple[Tuple[str, Any], ...]], ...]
    #: Settled client-request outcomes known to this site, as
    #: ``(client_id, seq, attempt, gid, committed)`` rows, so the elected
    #: creation source also completes the exactly-once outcome table.
    outcomes: Tuple[Tuple[str, int, int, int, bool], ...] = ()
    #: What decides whether a majority's reports suffice
    #: (``ReconfigManager.majority_covers``): the newest primary view
    #: this site knew of before the creation view (a PrimaryLineage; None
    #: until it has been in a primary view since its last restart), and
    #: the newest primary view it was an up-to-date member of.
    lineage: Any = None
    utd_lineage: Any = None
