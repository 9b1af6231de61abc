"""The data transfer strategies of sections 4.1 and 4.3-4.7.

Every strategy answers the same three questions differently:

* *what* to send — the whole database, only the objects the joiner's
  cover transaction proves stale, or round-by-round deltas;
* *how* to synchronize with concurrent transactions — long read locks
  (4.3/4.4), a briefly-held database lock downgraded via RecTable (4.5),
  a multiversion snapshot without any locks (4.6), or the lazy
  delimiter transaction (4.7);
* *what the joiner must enqueue* — everything after the synchronization
  point (eager strategies) or only the tail after the delimiter (lazy).

All sessions must be created synchronously inside a totally ordered
event handler (a view change, an e-view change, or a delivered
announcement), with ``sync_gid`` equal to that event's position in the
total order; the lock/snapshot acquisitions in ``on_session_created``
then land *before* any later-delivered writer, which is what makes the
transferred state exactly the state as of the synchronization point.
"""

from repro.reconfig.strategies.base import TransferStrategy
from repro.reconfig.strategies.full import FullTransferStrategy
from repro.reconfig.strategies.gcs_transfer import GcsLevelTransferStrategy
from repro.reconfig.strategies.lazy import LazyTransferStrategy
from repro.reconfig.strategies.log_filter import LogFilterStrategy
from repro.reconfig.strategies.rectable import RecTableStrategy
from repro.reconfig.strategies.version_check import VersionCheckStrategy

_REGISTRY = {
    cls.name: cls
    for cls in (
        FullTransferStrategy,
        VersionCheckStrategy,
        RecTableStrategy,
        LogFilterStrategy,
        LazyTransferStrategy,
        GcsLevelTransferStrategy,
    )
}


def strategy_by_name(name: str) -> TransferStrategy:
    """Instantiate a strategy from its registry name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; known: {sorted(_REGISTRY)}") from None


ALL_STRATEGY_NAMES = tuple(sorted(_REGISTRY))

__all__ = [
    "ALL_STRATEGY_NAMES",
    "FullTransferStrategy",
    "GcsLevelTransferStrategy",
    "LazyTransferStrategy",
    "LogFilterStrategy",
    "RecTableStrategy",
    "TransferStrategy",
    "VersionCheckStrategy",
    "strategy_by_name",
]
