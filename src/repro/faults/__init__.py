"""Fault injection: network injectors, storage fault models, chaos.

The subpackage groups everything that deliberately breaks a cluster:

* :mod:`repro.faults.injectors` — composable network-level injectors
  (duplication, reordering, one-way link degradation, latency spikes)
  plugged into :class:`repro.net.Network`;
* :mod:`repro.faults.storage` — crash-time WAL damage
  (:class:`TornTailFaults`), detected at recovery via per-record
  checksums, and CRC-valid stable-state damage
  (:class:`StableStateCorruptor`) for self-stabilization starts;
* :mod:`repro.faults.campaign` — the campaign engine: the one run
  life-cycle (build, instrument, inject, quiesce, check, report) the
  chaos, endurance and schedule-search drivers share;
* :mod:`repro.faults.chaos` — the seeded randomized chaos driver that
  combines all of the above and asserts the global invariants.
"""

from repro.faults.chaos import ChaosConfig, ChaosEngine, ChaosReport, run_chaos
from repro.faults.injectors import (
    DuplicateInjector,
    FaultInjector,
    LatencySpikeInjector,
    OneWayLinkInjector,
    ReorderInjector,
    site_of,
)
from repro.faults.storage import StableStateCorruptor, TornTailFaults

__all__ = [
    "ChaosConfig",
    "ChaosEngine",
    "ChaosReport",
    "DuplicateInjector",
    "FaultInjector",
    "LatencySpikeInjector",
    "OneWayLinkInjector",
    "ReorderInjector",
    "StableStateCorruptor",
    "TornTailFaults",
    "run_chaos",
    "site_of",
]
