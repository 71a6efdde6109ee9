"""Tests for the :mod:`repro.api` facade.

The facade is the one front door for building protocols and running
experiments: a name registry with did-you-mean validation, config
validation before any simulation work starts, and a migration table
for the import paths it replaced.
"""

import pytest

import repro
import repro.api as api
import repro.cli
from repro.api import (
    MIGRATIONS,
    PROTOCOLS,
    build_protocol,
    protocol_names,
    run_experiment,
    run_sweep,
)
from repro.core import Protocol
from repro.replay.experiment import ExperimentConfig
from repro.sim import RngRegistry
from repro.traces import generate_trace, profile


# -- registry round-trip ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_registered_name_builds(name):
    protocol = build_protocol(name)
    assert isinstance(protocol, Protocol)
    assert protocol.accelerator is not None
    assert protocol.client_policy is not None


def test_protocol_names_sorted_and_complete():
    names = protocol_names()
    assert names == sorted(PROTOCOLS)
    for expected in ("invalidation", "polling", "ttl", "lease", "two-tier"):
        assert expected in names


def test_build_protocol_forwards_options():
    default = build_protocol("lease")
    short = build_protocol("lease", lease_duration=30.0)
    assert short.accelerator.lease_get == 30.0
    assert short.accelerator.lease_get != default.accelerator.lease_get


# -- did-you-mean errors ---------------------------------------------------


def test_unknown_protocol_suggests_closest():
    with pytest.raises(ValueError, match="did you mean 'invalidation'"):
        build_protocol("invalidatoin")


def test_unknown_protocol_lists_choices_when_no_match():
    with pytest.raises(ValueError, match="choose from"):
        build_protocol("zzzz")


def test_unknown_option_suggests_closest():
    with pytest.raises(ValueError, match="did you mean 'retry_interval'"):
        build_protocol("invalidation", retry_intervall=10.0)


def test_option_on_optionless_protocol_errors():
    with pytest.raises(ValueError, match="takes no options"):
        build_protocol("polling", retry_interval=10.0)


# -- config validation through the facade ----------------------------------


def _tiny_config(**overrides):
    trace = generate_trace(profile("EPA").scaled(0.005), RngRegistry(seed=5))
    return ExperimentConfig(
        trace=trace,
        protocol=build_protocol("invalidation"),
        mean_lifetime=7 * 86400.0,
        seed=5,
        **overrides,
    )


def test_run_experiment_validates_and_runs():
    result = run_experiment(_tiny_config())
    assert result.counters.requests > 0
    assert result.counters.violations == 0


def test_run_sweep_runs_points():
    base = _tiny_config()
    swept = run_sweep(base, [("a", {"seed": 5}), ("b", {"seed": 6})])
    assert [item.label for item in swept] == ["a", "b"]
    assert all(item.result.counters.requests > 0 for item in swept)


def test_validate_rejects_detection_typo():
    with pytest.raises(ValueError, match="did you mean 'notify'"):
        _tiny_config(detection="notfy")


def test_validate_rejects_batching_without_shards():
    with pytest.raises(ValueError, match="requires shards > 1"):
        _tiny_config(batch_window=1.0)


def test_validate_rejects_bad_shard_count():
    with pytest.raises(ValueError, match="shards must be at least 1"):
        _tiny_config(shards=0)


def test_validate_rejects_cluster_with_hierarchy():
    with pytest.raises(ValueError, match="hierarchy_parents"):
        _tiny_config(shards=2, hierarchy_parents=1)


def test_validate_rejects_cluster_with_adaptive_lease():
    trace = generate_trace(profile("EPA").scaled(0.005), RngRegistry(seed=5))
    with pytest.raises(ValueError, match="adaptive-lease"):
        ExperimentConfig(
            trace=trace,
            protocol=build_protocol("adaptive-lease"),
            mean_lifetime=7 * 86400.0,
            seed=5,
            shards=2,
        )


# -- removed entry points --------------------------------------------------


def test_cli_shim_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.cli.NO_SUCH_NAME
    with pytest.raises(AttributeError):
        repro.cli.PROTOCOL_FACTORIES  # removed; see MIGRATIONS


# -- package surface -------------------------------------------------------


def test_facade_exported_from_package_root():
    assert repro.build_protocol is build_protocol
    assert repro.PROTOCOLS is PROTOCOLS
    assert repro.run_experiment is run_experiment
    assert repro.run_sweep is run_sweep


def test_migration_table_is_accurate():
    assert MIGRATIONS
    for old, new in MIGRATIONS:
        assert "repro." in old
        # Every "new" column names a real facade attribute.
        attr = new.split("repro.api.", 1)[1].split("(")[0]
        assert hasattr(api, attr)
