"""Trace-replay harness: coordinator, pseudo-clients, experiments."""

from .audit import AuditError, audit_result
from .coordinator import CoordinatorError, TimeCoordinator
from .experiment import ExperimentConfig, ExperimentResult, run_experiment
from .parallel import ParallelSweepRunner, SweepPointFailed
from .pseudo_client import PseudoClient, shard_for_client, shard_records
from .results import format_comparison_table, format_invalidation_costs
from .serialize import (
    read_checkpoint,
    read_results_json,
    result_from_dict,
    result_to_dict,
    results_to_json,
    write_checkpoint,
    write_results_json,
)
from .sweep import (
    SweepPointError,
    SweepResult,
    derive_point_seed,
    point_config,
    sweep,
    sweep_table,
)

__all__ = [
    "TimeCoordinator",
    "CoordinatorError",
    "PseudoClient",
    "shard_for_client",
    "shard_records",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "format_comparison_table",
    "format_invalidation_costs",
    "audit_result",
    "AuditError",
    "sweep",
    "sweep_table",
    "SweepResult",
    "SweepPointError",
    "SweepPointFailed",
    "ParallelSweepRunner",
    "derive_point_seed",
    "point_config",
    "result_to_dict",
    "result_from_dict",
    "results_to_json",
    "write_results_json",
    "read_results_json",
    "write_checkpoint",
    "read_checkpoint",
]
