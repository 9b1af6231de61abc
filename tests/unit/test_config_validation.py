"""Validation tests for the configuration objects."""

import pytest

from repro import ClusterBuilder, NodeConfig, WorkloadConfig
from repro.endurance import EnduranceConfig
from repro.faults import ChaosConfig
from repro.gcs.config import GCSConfig
from repro.reconfig.backends import ALL_BACKEND_NAMES


class TestNodeConfig:
    def test_defaults_valid(self):
        NodeConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("write_op_time", -0.1),
        ("transfer_obj_time", -0.5),
        ("transfer_batch_size", 0),
        ("partition_count", -1),
        ("lazy_round_threshold", -1),
        ("lazy_max_rounds", 0),
    ])
    def test_bad_values_rejected(self, field, value):
        config = NodeConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()

    def test_node_constructor_validates(self):
        with pytest.raises(ValueError):
            ClusterBuilder(node_config=NodeConfig(transfer_batch_size=0)).build()


class TestWorkloadConfig:
    def test_defaults_valid(self):
        WorkloadConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("arrival_rate", 0.0),
        ("arrival_rate", -5.0),
        ("reads_per_txn", -1),
        ("writes_per_txn", -2),
        ("hot_fraction", 0.0),
        ("hot_fraction", 1.5),
        ("hot_access_probability", -0.1),
        ("hot_access_probability", 1.1),
    ])
    def test_bad_values_rejected(self, field, value):
        config = WorkloadConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()


class TestGCSConfig:
    def test_defaults_valid(self):
        GCSConfig().validate()

    def test_timeout_ordering_enforced(self):
        with pytest.raises(ValueError):
            GCSConfig(flush_timeout=2.0, round_timeout=1.0).validate()

    @pytest.mark.parametrize("field", ["presence_interval",
                                       "retransmit_interval"])
    def test_zero_periodic_interval_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            GCSConfig(**{field: 0.0}).validate()

    def test_unknown_primary_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown primary policy 'nope'"):
            GCSConfig(primary_policy="nope").validate()

    def test_unknown_primary_policy_rejected_at_member(self):
        with pytest.raises(ValueError):
            ClusterBuilder(gcs_config=GCSConfig(primary_policy="nope")).build()


@pytest.mark.parametrize("config_class", [ChaosConfig, EnduranceConfig])
class TestCampaignConfigs:
    """The shared campaign fields are validated once
    (repro.faults.campaign.CampaignConfig), so every bad value must be
    rejected by both drivers' configs."""

    def test_defaults_valid(self, config_class):
        config_class().validate()

    @pytest.mark.parametrize("field,value", [
        ("n_sites", 1),
        ("db_size", 0),
        ("duration", 0.0),
        ("duration", -1.0),
        ("mode", "sync"),
        ("backend", "bogus"),
        ("arrival_rate", 0.0),
        ("clients", -1),
    ])
    def test_bad_shared_values_rejected(self, config_class, field, value):
        # ``backend`` is the retired second selector (``mode`` takes the
        # backend name now): not a bad value but no field at all.
        error = TypeError if field == "backend" else ValueError
        with pytest.raises(error):
            config_class(**{field: value}).validate()

    def test_driver_defaults_fill_the_unset_shared_fields(self, config_class):
        config = config_class()
        assert config.duration == config_class.DEFAULT_DURATION
        assert config.clients == config_class.DEFAULT_CLIENTS


class TestDriverSpecificFields:
    @pytest.mark.parametrize("config", [
        ChaosConfig(intensity=1.5),
        ChaosConfig(intensity=-0.1),
        ChaosConfig(intensity=float("nan")),
        EnduranceConfig(n_sites=2),
        EnduranceConfig(clients=0),
        EnduranceConfig(segments=()),
        EnduranceConfig(segments=("bogus",)),
        EnduranceConfig(availability_window=0.1),
    ])
    def test_bad_values_rejected(self, config):
        with pytest.raises(ValueError):
            config.validate()


def _executor_for(mode):
    from repro.search.executor import ScheduleExecutor
    from repro.search.genome import ScheduleGenome

    return ScheduleExecutor(ScheduleGenome(seed=0, n_sites=5, mode=mode))


def _differential_over(mode):
    from repro.differential import run_differential

    return run_differential([9], backends=("vs", mode))


@pytest.mark.parametrize("surface", [
    lambda mode: ClusterBuilder(mode=mode).build(),
    lambda mode: ChaosConfig(mode=mode).validate(),
    lambda mode: EnduranceConfig(mode=mode).validate(),
    _executor_for,
    _differential_over,
], ids=["ClusterBuilder.build", "ChaosConfig.validate",
        "EnduranceConfig.validate", "ScheduleExecutor", "run_differential"])
def test_unknown_mode_is_rejected_listing_the_backends(surface):
    """One selector, one failure: every surface that takes ``mode``
    names the registry's backends when handed anything else."""
    with pytest.raises(ValueError) as caught:
        surface("bogus")
    assert "'bogus'" in str(caught.value)
    assert all(name in str(caught.value) for name in ALL_BACKEND_NAMES)
