"""Unit tests for the data-partition mapping (lazy round 1, section 4.7)."""

import pytest

from repro.db.partitions import partition_names, partition_of


class TestPartitionMapping:
    def test_stable_assignment(self):
        assert partition_of("obj1", 4) == partition_of("obj1", 4)

    def test_all_partitions_used(self):
        names = {partition_of(f"obj{i}", 4) for i in range(200)}
        assert names == set(partition_names(4))

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            partition_of("x", 0)
