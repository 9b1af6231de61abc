#!/usr/bin/env python3
"""The Θ study: false suspicions against detection time, per detector.

    PYTHONPATH=src python tools/theta_study.py

Runs a five-member group (GCS only, the default 0.5–2 ms links and
50 ms beacons) under each network condition below, with each detector:
the beacon-counting rule at Θ = 2, 3 and 4, and the 0.22 s timeout it
replaced (``tests/detectors.py``).  Each cell reports

* *extra views*: view installations after the group formed, summed over
  the quiet runs, in which nothing fails — each one a false suspicion;
* *crash ms*: mean sim-ms from the crash of the sequencer S1 to the
  first survivor's install of a view without it, over the crash trials.

Prints the markdown table that EXPERIMENTS.md "Θ study" holds.  Every run
is seeded, so the table is the same on every run (about 35 s on one core).
"""

from __future__ import annotations

import os
import statistics
import sys
from typing import Callable, Dict, List, Tuple

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from repro.faults.injectors import (  # noqa: E402
    LatencySpikeInjector,
    OneWayLinkInjector,
    ReorderInjector,
)
from repro.gcs import failure_detector  # noqa: E402
from repro.gcs.member import GroupMember  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.sim.core import Simulator  # noqa: E402
from tests.detectors import use_timeout_detector  # noqa: E402

SITES = ("S1", "S2", "S3", "S4", "S5")
#: The group forms before this; conditions start here.
FORMED_S = 2.0
QUIET_SEEDS = range(3)
QUIET_S = 30.0
CRASH_SEEDS = range(8)


class Loss:
    """Network injector: drop each message with probability ``rate``."""

    def __init__(self, rate: float) -> None:
        self.rate = rate

    def transform(self, src, dst, payload, delays, rng, now):
        return [delay for delay in delays if rng.random() >= self.rate]


#: Network condition -> the injectors that make it, from FORMED_S on.
CONDITIONS: Dict[str, Callable[[], List]] = {
    "fault-free": lambda: [],
    "jitter": lambda: [ReorderInjector(rate=1.0, max_extra=0.02)],
    "loss 5 %": lambda: [Loss(0.05)],
    "latency spike": lambda: [LatencySpikeInjector(rate=0.002, spike=0.2,
                                                   burst_duration=0.3)],
    "one-way degradation": lambda: [OneWayLinkInjector("S2", "S1", loss_rate=0.5,
                                                       extra_latency=0.02)],
}

#: Row label -> how to install the detector.
DETECTORS: Dict[str, Callable[[pytest.MonkeyPatch], None]] = {
    **{f"Θ = {theta}": (lambda mp, theta=theta:
                        mp.setattr(failure_detector, "THETA", theta))
       for theta in (2, 3, 4)},
    "timeout 0.22 s": lambda mp: use_timeout_detector(mp, timeout=0.22),
}


def _group(seed: int, condition: str) -> Tuple[Simulator, Dict[str, GroupMember], List]:
    sim = Simulator(seed=seed)
    network = Network(sim)
    members = {site: GroupMember(sim, network, site, SITES) for site in SITES}
    for member in members.values():
        member.install_log = []  # (time, view), by _record_installs
        member.start()
    sim.run(until=FORMED_S)
    for injector in CONDITIONS[condition]():
        network.add_injector(injector)
    return sim, members, [len(m.views_installed) for m in members.values()]


def extra_views(condition: str) -> int:
    """Distinct views installed after the group formed, quiet runs summed."""
    total = 0
    for seed in QUIET_SEEDS:
        sim, members, before = _group(seed, condition)
        sim.run(until=FORMED_S + QUIET_S)
        total += len({view.view_id for member, count in zip(members.values(), before)
                      for view in member.views_installed[count:]})
    return total


def crash_ms(condition: str) -> float:
    """Mean sim-ms from the sequencer's crash to the first install without it."""
    delays = []
    for seed in CRASH_SEEDS:
        sim, members, _ = _group(seed, condition)
        sim.run(until=FORMED_S + 1.0 + 0.0061 * seed)  # spread the beacon phase
        crashed = sim.now
        members["S1"].crash()
        sim.run(until=crashed + 3.0)
        installs = [sim_time for site, member in members.items() if site != "S1"
                    for sim_time in _install_times(member, crashed)]
        delays.append((min(installs) - crashed) * 1000.0)
    return statistics.mean(delays)


def _install_times(member: GroupMember, after: float) -> List[float]:
    return [t for t, view in member.install_log if t > after and "S1" not in view.members]


def _record_installs(mp: pytest.MonkeyPatch) -> None:
    real = GroupMember.install_view

    def install_view(self, view, *args, **kwargs):
        self.install_log.append((self.sim.now, view))
        return real(self, view, *args, **kwargs)

    mp.setattr(GroupMember, "install_view", install_view)


def main() -> int:
    header = "| detector | " + " | ".join(CONDITIONS) + " |"
    print(header)
    print("|---" * (len(CONDITIONS) + 1) + "|")
    for label, install in DETECTORS.items():
        mp = pytest.MonkeyPatch()
        try:
            install(mp)
            _record_installs(mp)
            cells = [f"{extra_views(c)} / {crash_ms(c):.0f}" for c in CONDITIONS]
        finally:
            mp.undo()
        print(f"| {label} | " + " | ".join(cells) + " |")
    print()
    print(f"Each cell: extra views over {len(QUIET_SEEDS)} × {QUIET_S:.0f} s quiet runs"
          f" / mean crash-to-install sim-ms over {len(CRASH_SEEDS)} crashes of S1.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
