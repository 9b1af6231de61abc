"""Online reconfiguration: data transfer strategies and managers.

This package implements section 4 (the suite of data transfer
strategies) and section 5 (cascading reconfigurations) of the paper:

* :mod:`repro.reconfig.transfer` — the point-to-point transfer channel
  between peer and joiner ("the data transfer need not occur through the
  group communication platform but could, e.g., be performed via TCP");
* :mod:`repro.reconfig.strategies` — the five database-level transfer
  strategies (sections 4.3-4.7) plus the GCS-level baseline the paper
  rejects (section 4.1);
* :mod:`repro.reconfig.manager` — cascading reconfiguration under plain
  virtual synchrony, including the explicit up-to-date announcement
  sub-protocol that plain VS requires (section 5's Figure 1 analysis)
  and the creation protocol after a total failure (section 3);
* :mod:`repro.reconfig.evs_manager` — the EVS-based manager implementing
  the rules of section 5.2 (Subview-SetMerge starts the transfer,
  SubviewMerge is the final synchronization point);
* :mod:`repro.reconfig.logless` — an alternative backend that keeps the
  member configuration as replicated state in the total-order stream
  (versioned config object, compare-and-swap apply rule) instead of
  membership log entries;
* :mod:`repro.reconfig.backends` — the registry the cluster builder,
  CLI and conformance harness select backends from
  (docs/RECONFIG_BACKENDS.md).
"""

from repro.reconfig.backends import (
    ALL_BACKEND_NAMES,
    ReconfigBackend,
    backend_by_name,
)
from repro.reconfig.evs_manager import EvsReconfigManager
from repro.reconfig.logless import LoglessReconfigManager, ReplicatedConfig
from repro.reconfig.manager import VsReconfigManager
from repro.reconfig.strategies import (
    FullTransferStrategy,
    GcsLevelTransferStrategy,
    LazyTransferStrategy,
    LogFilterStrategy,
    RecTableStrategy,
    TransferStrategy,
    VersionCheckStrategy,
    strategy_by_name,
)

__all__ = [
    "ALL_BACKEND_NAMES",
    "EvsReconfigManager",
    "FullTransferStrategy",
    "GcsLevelTransferStrategy",
    "LazyTransferStrategy",
    "LogFilterStrategy",
    "LoglessReconfigManager",
    "RecTableStrategy",
    "ReconfigBackend",
    "ReplicatedConfig",
    "TransferStrategy",
    "VersionCheckStrategy",
    "VsReconfigManager",
    "backend_by_name",
    "strategy_by_name",
]
