"""Comparing reconfiguration backends on one campaign fleet.

``repro chaos --seeds S --mode evs,logless`` runs the same pinned
storms on every backend it names: one fleet cell per (mode, seed), all
in one ``repro.fleet.run_fleet`` call, each judged by its own invariant
battery.  This module holds what only such a comparison needs: the
``--mode`` list, and the per-backend phase table printed under the
fleet's rows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.faults.campaign import CampaignConfig
from repro.obs.epochs import merge_epoch_summaries, render_phase_comparison
from repro.reconfig.backends import backend_by_name


def parse_mode_spec(spec: str) -> List[str]:
    """The backends a ``repro chaos --mode`` value names: one registry
    name or a comma list of distinct ones (raises ValueError listing the
    known backends)."""
    modes = spec.split(",")
    for mode in modes:
        backend_by_name(mode)  # raises on unknown names
    if len(set(modes)) < len(modes):
        raise ValueError(f"a backend is named twice in {spec!r}")
    return modes


def phase_comparison(cells: Sequence[CampaignConfig],
                     payloads: Sequence[dict]) -> Optional[str]:
    """Reconfiguration downtime by phase, one column per backend, summed
    over that backend's cells; None for a one-backend fleet or one whose
    cells saw no reconfiguration epoch."""
    modes = list(dict.fromkeys(config.mode for config in cells))
    if len(modes) < 2:
        return None
    summaries = {mode: merge_epoch_summaries(
        [payload.get("epochs") or {}
         for config, payload in zip(cells, payloads)
         if config.mode == mode]) for mode in modes}
    if not any(summary["count"] for summary in summaries.values()):
        return None
    return ("reconfiguration downtime by phase "
            "(summed over each backend's seeds)\n"
            + render_phase_comparison(summaries))
