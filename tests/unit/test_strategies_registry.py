"""Unit tests for the strategy registry and shared strategy helpers."""

import pytest

from repro.reconfig.strategies import (
    ALL_STRATEGY_NAMES,
    FullTransferStrategy,
    GcsLevelTransferStrategy,
    LazyTransferStrategy,
    LogFilterStrategy,
    RecTableStrategy,
    VersionCheckStrategy,
    strategy_by_name,
)
from repro.reconfig.strategies.base import NO_COVER, TransferStrategy
from repro.reconfig.transfer import TransferAccept


class TestRegistry:
    def test_all_paper_strategies_present(self):
        assert set(ALL_STRATEGY_NAMES) == {
            "full",
            "version_check",
            "rectable",
            "log_filter",
            "lazy",
            "gcs_level",
        }

    @pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
    def test_by_name_roundtrip(self, name):
        """The name selects a strategy fully: none takes a constructor
        argument (tuning lives in ``NodeConfig``)."""
        strategy = strategy_by_name(name)
        assert strategy.name == name
        with pytest.raises(TypeError):
            type(strategy)(1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            strategy_by_name("osmosis")

    def test_lazy_flag(self):
        assert LazyTransferStrategy().lazy
        for cls in (FullTransferStrategy, VersionCheckStrategy, RecTableStrategy,
                    LogFilterStrategy, GcsLevelTransferStrategy):
            assert not cls().lazy


class TestEffectiveCover:
    def accept(self, cover, needs_full):
        return TransferAccept(session_id="s", cover_gid=cover, resume_through=cover,
                              needs_full=needs_full)

    def test_normal_cover(self):
        assert TransferStrategy.effective_cover(self.accept(42, False)) == 42

    def test_new_site_degrades_to_full(self):
        """Section 4.3: full copy is "the only solution in the case of a
        new site" — filtered strategies treat its cover as minus infinity."""
        assert TransferStrategy.effective_cover(self.accept(42, True)) == NO_COVER
