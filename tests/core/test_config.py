"""Tests for DittoConfig validation and derived settings."""

import dataclasses

import pytest

from repro import DittoConfig
from repro.core import DittoCluster
from repro.core.fc_cache import FC_THRESHOLD


def test_defaults_match_paper():
    config = DittoConfig()
    assert config.policies == ("lru", "lfu")
    assert config.sample_size == 5  # Redis default
    assert FC_THRESHOLD == 10
    assert config.fc_capacity_bytes == 10 * 1024 * 1024
    assert config.learning_rate == pytest.approx(0.1)
    assert config.weight_update_batch == 100


def test_single_policy_disables_adaptive():
    config = DittoConfig(policies=("lru",))
    assert config.adaptive is False


def _fc_threshold(config):
    return DittoCluster(capacity_objects=64, config=config).clients[0].fc.threshold


def test_replacing_use_fc_turns_combining_back_on():
    off = DittoConfig(use_fc=False)
    assert _fc_threshold(off) == 1
    assert _fc_threshold(dataclasses.replace(off, use_fc=True)) == FC_THRESHOLD


def test_rejects_empty_policies():
    with pytest.raises(ValueError):
        DittoConfig(policies=())


@pytest.mark.parametrize(
    "field, value",
    [
        ("history_size", -1),
        ("max_retries", 0),
        ("weight_update_batch", 0),
        ("fc_capacity_bytes", -1),
        ("learning_rate", -0.1),
    ],
)
def test_rejects_values_that_turn_a_mechanism_off(field, value):
    with pytest.raises(ValueError, match=field):
        DittoConfig(**{field: value})


def test_rejects_bad_sample_size():
    with pytest.raises(ValueError):
        DittoConfig(sample_size=0)


def test_zero_fc_capacity_stays_legal():
    """Fig 25's smallest FC cache: every access bypasses buffering."""
    assert DittoConfig(fc_capacity_bytes=0).fc_capacity_bytes == 0


def test_num_experts():
    assert DittoConfig(policies=("lru", "lfu", "fifo")).num_experts == 3
