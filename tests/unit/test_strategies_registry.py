"""Unit tests for the strategy registry, and a tripwire that keeps a
transfer strategy a row: one frozen type, no class hierarchy and no
per-session strategy state, so the peer session alone owns what it
captures (DESIGN.md, "A strategy is a row")."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.reconfig import strategies
from repro.reconfig.strategies import (
    ALL_STRATEGY_NAMES,
    NO_COVER,
    Capture,
    Filter,
    Strategy,
    effective_cover,
    strategy_by_name,
)
from repro.reconfig.transfer import TransferAccept

SRC = Path(repro.__file__).parent


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
        """The name selects a strategy fully: one frozen row, the same
        object every time (tuning lives in ``NodeConfig``)."""
        row = strategy_by_name(name)
        assert row.name == name and strategy_by_name(name) is row
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.lazy = not row.lazy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            strategy_by_name("osmosis")

    def test_lazy_flag(self):
        assert [name for name in ALL_STRATEGY_NAMES if strategy_by_name(name).lazy] == ["lazy"]

    def test_rows_are_the_papers_choices(self):
        """``full`` is the version filter with the cover fixed, ``lazy``
        is ``rectable``'s capture and filter run in rounds."""
        rows = {name: strategy_by_name(name) for name in ALL_STRATEGY_NAMES}
        assert {name: (row.capture, row.filter, row.lazy) for name, row in rows.items()} == {
            "full": (Capture.OBJECT_LOCKS, Filter.ALL, False),
            "version_check": (Capture.OBJECT_LOCKS, Filter.VERSION, False),
            "rectable": (Capture.DOWNGRADE, Filter.RECTABLE, False),
            "log_filter": (Capture.SNAPSHOT, Filter.VERSION, False),
            "lazy": (Capture.DOWNGRADE, Filter.RECTABLE, True),
            "gcs_level": (Capture.DB_LOCK, Filter.ALL, False),
        }
        assert all(row.summary for row in rows.values())


class TestEffectiveCover:
    def accept(self, cover, needs_full):
        return TransferAccept(session_id="s", cover_gid=cover, needs_full=needs_full)

    def test_normal_cover(self):
        assert effective_cover(self.accept(42, False)) == 42

    def test_new_site_degrades_to_full(self):
        """Section 4.3: full copy is "the only solution in the case of a
        new site" — filtered strategies treat its cover as minus infinity."""
        assert effective_cover(self.accept(42, True)) == NO_COVER


# ----------------------------------------------------------------------
# A strategy is a row: no class hierarchy or strategy state grows back
# ----------------------------------------------------------------------
def test_every_registry_entry_is_a_row_of_one_type():
    assert {type(strategy_by_name(name)) for name in ALL_STRATEGY_NAMES} == {Strategy}
    assert dataclasses.is_dataclass(Strategy)
    assert Strategy.__dataclass_params__.frozen


def test_no_strategy_class_derives_from_another():
    """The module defines the row and its two column types; none of its
    classes derives from anything but ``Enum``."""
    tree = ast.parse(inspect.getsource(strategies))
    bases = {item.name: [ast.unparse(base) for base in item.bases]
             for item in tree.body if isinstance(item, ast.ClassDef)}
    assert bases == {"Capture": ["Enum"], "Filter": ["Enum"], "Strategy": []}


def test_strategy_state_appears_nowhere_under_src():
    assert [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
            if "strategy_state" in path.read_text(encoding="utf-8")] == []
