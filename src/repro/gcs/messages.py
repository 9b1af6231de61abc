"""Wire messages of the group communication system.

All GCS traffic is built from these dataclasses, sent as plain unicast
payloads through :class:`repro.net.Network`.  Application payloads are
opaque to the GCS (carried inside :class:`Data` / :class:`Ordered`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gcs.view import View, ViewId

#: A round identifier: (epoch, initiator).  Higher epoch wins; on equal
#: epochs the round with the *smaller* initiator id has priority.
RoundId = Tuple[int, str]


def round_priority(round_id: RoundId) -> Tuple[int, Tuple[int, ...]]:
    """Sort key so that ``max`` picks the winning round.

    Smaller initiator ids beat larger ones at equal epoch, hence the
    negated character ordering.
    """
    epoch, initiator = round_id
    return (epoch, tuple(-ord(c) for c in initiator))


@dataclass(frozen=True)
class Presence:
    """Periodic beacon: heartbeat within the view + discovery across views."""

    sender: str
    view_id: ViewId
    view_members: Tuple[str, ...]
    epoch: int


class Data:
    """A multicast request sent by the originator to the view sequencer.

    A hot-path message (one per submitted transaction): a plain
    ``__slots__`` class rather than a frozen dataclass, because frozen
    dataclasses pay one ``object.__setattr__`` call per field per
    construction.  Field order, equality and repr match the previous
    dataclass form.
    """

    __slots__ = ("sender", "msg_id", "view_id", "payload")

    def __init__(self, sender: str, msg_id: int, view_id: ViewId,
                 payload: Any) -> None:
        self.sender = sender
        self.msg_id = msg_id
        self.view_id = view_id
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Data(sender={self.sender!r}, msg_id={self.msg_id!r}, "
                f"view_id={self.view_id!r}, payload={self.payload!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Data:
            return NotImplemented
        return (self.sender == other.sender and self.msg_id == other.msg_id
                and self.view_id == other.view_id
                and self.payload == other.payload)

    def __hash__(self) -> int:
        return hash((self.sender, self.msg_id, self.view_id))


class Ordered:
    """A sequenced message, multicast by the sequencer to all view members.

    Hot path (one per sequenced message, plus retransmissions): a
    ``__slots__`` class for the same reason as :class:`Data`.
    """

    __slots__ = ("view_id", "seq", "gseq", "sender", "msg_id", "payload")

    def __init__(self, view_id: ViewId, seq: int, gseq: int, sender: str,
                 msg_id: int, payload: Any) -> None:
        self.view_id = view_id
        self.seq = seq
        self.gseq = gseq
        self.sender = sender
        self.msg_id = msg_id
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Ordered(view_id={self.view_id!r}, seq={self.seq!r}, "
                f"gseq={self.gseq!r}, sender={self.sender!r}, "
                f"msg_id={self.msg_id!r}, payload={self.payload!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Ordered:
            return NotImplemented
        return (self.view_id == other.view_id and self.seq == other.seq
                and self.gseq == other.gseq and self.sender == other.sender
                and self.msg_id == other.msg_id
                and self.payload == other.payload)

    def __hash__(self) -> int:
        return hash((self.view_id, self.seq, self.gseq))


class OrderedBatch:
    """Several Ordered messages coalesced into one wire message.

    The sequencer stages the Ordered messages it produces within one
    delivery round (one simulator tick) and ships a single batch per
    member instead of one message per Ordered.  Loss of the batch loses
    all contained messages at once; the per-seq NAK/retransmission path
    (which always uses plain :class:`Ordered`) repairs the gap exactly as
    it would for individually lost messages.

    Deliberately mutable: the sequencer puts the (empty) batch on the
    wire when it sequences the first message of a round — reserving the
    delivery slot that message would have had unbatched, so same-tick
    event ordering at the receivers is identical in both modes — and
    seals ``items``/``ack_high`` at end of tick, before any delivery can
    fire.

    ``ack_high`` piggybacks the sequencer's cumulative ack (-1 = none):
    its own highwater advances when it sequences, and the ack it would
    broadcast travels at the same tick as the batch anyway, so it rides
    along instead of being a separate wire message.
    """

    __slots__ = ("view_id", "items", "ack_high")

    def __init__(self, view_id: ViewId, items: Tuple[Ordered, ...],
                 ack_high: int = -1) -> None:
        self.view_id = view_id
        self.items = items
        self.ack_high = ack_high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OrderedBatch(view_id={self.view_id!r}, "
                f"items={self.items!r}, ack_high={self.ack_high!r})")


class Ack:
    """Cumulative acknowledgement: 'I hold all Ordered up to highwater'.

    The single most frequent wire message — a ``__slots__`` class.
    """

    __slots__ = ("sender", "view_id", "highwater")

    def __init__(self, sender: str, view_id: ViewId, highwater: int) -> None:
        self.sender = sender
        self.view_id = view_id
        self.highwater = highwater

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Ack(sender={self.sender!r}, view_id={self.view_id!r}, "
                f"highwater={self.highwater!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Ack:
            return NotImplemented
        return (self.sender == other.sender and self.view_id == other.view_id
                and self.highwater == other.highwater)

    def __hash__(self) -> int:
        return hash((self.sender, self.view_id, self.highwater))


class Nak:
    """Request to the sequencer for retransmission of missing sequence numbers."""

    __slots__ = ("sender", "view_id", "missing")

    def __init__(self, sender: str, view_id: ViewId,
                 missing: Tuple[int, ...]) -> None:
        self.sender = sender
        self.view_id = view_id
        self.missing = missing

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Nak(sender={self.sender!r}, view_id={self.view_id!r}, "
                f"missing={self.missing!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Nak:
            return NotImplemented
        return (self.sender == other.sender and self.view_id == other.view_id
                and self.missing == other.missing)

    def __hash__(self) -> int:
        return hash((self.sender, self.view_id, self.missing))


@dataclass(frozen=True)
class AckSolicit:
    """Request for the receiver's cumulative :class:`Ack`, from a member
    whose held messages have waited a whole maintenance period on the
    delivery horizon."""

    sender: str
    view_id: ViewId


@dataclass(frozen=True)
class Propose:
    """Phase 1 of a membership round: the initiator proposes a composition."""

    round_id: RoundId
    members: Tuple[str, ...]


@dataclass(frozen=True)
class FlushReply:
    """Phase 2: a participant's flush contribution.

    ``received`` carries every Ordered message the participant holds
    that some member may lack (:meth:`ViewTotalOrder.flush_cut`), so the
    initiator can compute the synchronization set for virtual synchrony.
    ``app_state`` is opaque per-layer state (EVS structure, replication
    status) exchanged through the view change.
    """

    round_id: RoundId
    sender: str
    prev_view: View
    delivered_seq: int
    next_gseq: int
    received: Tuple[Ordered, ...]
    app_state: Dict[str, Any] = field(default_factory=dict)
    #: This member's delivery horizon in the previous view: the highest
    #: sequence number it knows the view's delivery quorum holds.  When
    #: the *new* view is not primary, only the union prefix up to the
    #: group's best horizon may be delivered — a prefix some member of
    #: the previous view may deliver anyway, and which the next primary
    #: view therefore carries (section 2.1's uniformity adaptation).
    stable_seq: int = -1
    #: This member's knowledge of the most recent primary view (a
    #: PrimaryLineage or None); feeds the dynamic primary-view policy.
    lineage: Any = None


@dataclass(frozen=True)
class FlushNack:
    """A participant refuses a round because it is engaged in a better one."""

    round_id: RoundId
    sender: str
    better_round: RoundId


@dataclass(frozen=True)
class RoundAbort:
    """The initiator abandoned a round (missing FLUSH replies).

    Participants frozen for the round resume their previous view
    immediately instead of sitting blocked until ``round_timeout`` —
    under membership churn (a flapping joiner re-triggering rounds) that
    wait is the difference between a brief hiccup and seconds of total
    delivery outage in the surviving majority.
    """

    round_id: RoundId


@dataclass(frozen=True)
class Sync:
    """Phase 3: install the new view.

    ``sync_messages`` maps previous-view id to the full union of Ordered
    messages gathered from that view's survivors; each participant
    delivers its missing gap-free prefix before installing.
    ``states`` maps node id to the ``app_state`` it reported in FLUSH.
    """

    round_id: RoundId
    view: View
    base_gseq: int
    sync_messages: Dict[ViewId, Tuple[Ordered, ...]]
    states: Dict[str, Dict[str, Any]]
    #: Primacy of the new view, decided by the coordinator from the
    #: configured policy and the collected lineage claims, so that all
    #: installers agree by construction.
    primary: bool = False
    lineage: Any = None
    #: Members whose delivery position after SYNC is behind the agreed
    #: base gseq: the lineage delivered messages they never saw, so the
    #: application must not treat them as up to date.  Every member when
    #: the flush cannot vouch for the newest primary view's deliveries
    #: (the direct-member rule of :mod:`repro.gcs.membership`).
    stale: Tuple[str, ...] = ()


@dataclass(frozen=True)
class EvsRequest:
    """An EVS merge primitive, multicast totally ordered within the view.

    ``kind`` is ``"subview_set_merge"`` or ``"subview_merge"``;
    ``targets`` holds the subview-set (resp. subview) identifiers to merge.
    """

    kind: str
    targets: Tuple[Any, ...]
