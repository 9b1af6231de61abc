"""Strategy interface shared by all data transfer schemes."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.reconfig.transfer import LastRoundReady, PeerTransferSession, TransferAccept

#: Sentinel cover used when the joiner has no database at all (a new
#: site): every object is stale relative to it, so filtered strategies
#: degrade to a full transfer, which the paper notes is "the only
#: solution in the case of a new site".
NO_COVER = -(2**60)


class TransferStrategy:
    """One data-transfer scheme; a single instance may drive many sessions.

    Per-session state lives in ``session.strategy_state`` (a dict created
    in :meth:`on_session_created`), never on the strategy itself.
    """

    #: Registry name (also sent in the TransferOffer).
    name = "abstract"
    #: Lazy strategies make the joiner discard messages until the last
    #: round; eager ones make it enqueue from the synchronization point.
    lazy = False

    def on_session_created(self, session: "PeerTransferSession") -> None:
        """Called synchronously at the synchronization point: acquire
        whatever locks or snapshots pin the state as of ``sync_gid``."""
        session.strategy_state = {}

    def begin(self, session: "PeerTransferSession", accept: "TransferAccept") -> None:
        """The joiner accepted: start (or continue) streaming."""
        raise NotImplementedError

    def on_last_round_ready(self, session: "PeerTransferSession", msg: "LastRoundReady") -> None:
        """Lazy only: the joiner switched to enqueue mode."""

    def on_session_closed(self, session: "PeerTransferSession") -> None:
        """Completion or cancellation: drop snapshots etc. (locks are
        released by the session itself)."""

    # ------------------------------------------------------------------
    @staticmethod
    def effective_cover(accept: "TransferAccept") -> int:
        return NO_COVER if accept.needs_full else accept.cover_gid

    @staticmethod
    def stale_objects_since(session: "PeerTransferSession", cover_gid: int):
        """Objects a joiner covered through ``cover_gid`` must receive.

        Answers from the RecTable when it is still complete for that
        cover.  When garbage collection has purged records above the
        joiner's cover — possible when a stabilization start regresses a
        site's cover below an earlier announcement, breaking the
        monotonicity section 4.5's GC rule relies on — the table would
        silently under-report, so fall back to scanning the store's
        version tags, which always name the last committed writer.
        """
        db = session.db
        rectable = db.rectable
        rectable.ensure_current()
        if rectable.can_answer(cover_gid):
            return sorted(
                obj for obj in rectable.changed_since(cover_gid) if obj in db.store
            )
        return sorted(
            obj for obj in db.store.objects() if db.store.version(obj) > cover_gid
        )
