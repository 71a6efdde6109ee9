"""Unified facade: one import for protocols, experiments and sweeps.

Every front-end in this repository — the CLI, the benchmark harness,
the chaos campaign, the examples — needs the same three things: a
protocol by name, an experiment run from a config, and a sweep over a
grid of configs.  Historically each of them kept its own protocol-name
table and imported the runner from a different depth of the package.
This module is the single seam they now share::

    from repro.api import build_protocol, run_experiment, run_sweep

    protocol = build_protocol("invalidation", multicast=True)
    result = run_experiment(ExperimentConfig(trace=trace, protocol=protocol))

Design rules:

* **Names are the CLI names.**  ``build_protocol`` accepts exactly the
  strings ``python -m repro replay --protocol`` accepts, so scripts and
  shell pipelines agree on spelling.
* **Errors teach.**  Unknown protocol names and unknown keyword
  arguments raise ``ValueError`` with a did-you-mean suggestion and the
  full list of valid choices, mirroring
  :meth:`repro.replay.ExperimentConfig.validate`.
* **No new behaviour.**  :func:`run_experiment` and :func:`run_sweep`
  delegate to :mod:`repro.replay`; the facade adds discovery and
  validation, never semantics.

The ``repro.core`` factory functions remain importable, undeprecated —
the facade wraps them rather than replacing them.  The old
``repro.cli.PROTOCOL_FACTORIES`` registry has been removed; use
:data:`PROTOCOLS` (see :data:`MIGRATIONS`).
"""

from __future__ import annotations

import difflib
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .core import (
    adaptive_lease,
    adaptive_ttl,
    fixed_ttl,
    invalidation,
    lease_invalidation,
    piggyback_invalidation,
    poll_every_time,
    two_tier_lease,
)
from .core.protocol import Protocol
from .replay import ExperimentConfig, ExperimentResult
from .replay import run_experiment as _run_experiment
from .replay import sweep as _sweep
from .replay.sweep import SweepPoint, SweepResult

__all__ = [
    "PROTOCOLS",
    "protocol_names",
    "build_protocol",
    "run_experiment",
    "run_sweep",
]


def _decoupled_invalidation(
    retry_interval: float = 30.0, max_retries: Optional[int] = None
) -> Protocol:
    """Invalidation with the blocking prototype send decoupled."""
    return invalidation(
        blocking=False, retry_interval=retry_interval, max_retries=max_retries
    )


def _multicast_invalidation(
    retry_interval: float = 30.0, max_retries: Optional[int] = None
) -> Protocol:
    """Invalidation with one INVALIDATE per proxy host (multicast)."""
    return invalidation(
        multicast=True, retry_interval=retry_interval, max_retries=max_retries
    )


#: Protocol name -> zero-config factory.  The names are the CLI names;
#: each factory also accepts that protocol family's keyword arguments
#: (``build_protocol`` validates them against the signature).
PROTOCOLS: Dict[str, Callable[..., Protocol]] = {
    "ttl": adaptive_ttl,
    "adaptive-ttl": adaptive_ttl,
    "fixed-ttl": fixed_ttl,
    "polling": poll_every_time,
    "invalidation": invalidation,
    "invalidation-decoupled": _decoupled_invalidation,
    "invalidation-multicast": _multicast_invalidation,
    "lease": lease_invalidation,
    "adaptive-lease": adaptive_lease,
    "two-tier": two_tier_lease,
    "psi": piggyback_invalidation,
}


def protocol_names() -> List[str]:
    """All protocol names :func:`build_protocol` accepts, sorted."""
    return sorted(PROTOCOLS)


def _unknown(label: str, value: str, choices: Sequence[str]) -> str:
    """Build an unknown-``label`` error message with a typo suggestion."""
    suggestion = difflib.get_close_matches(str(value), list(choices), n=1)
    hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
    options = ", ".join(repr(c) for c in sorted(choices))
    return f"unknown {label} {value!r}{hint} (choose from {options})"


def build_protocol(name: str, **config: Any) -> Protocol:
    """Build a protocol by its CLI name, with validated keyword config.

    Args:
        name: one of :func:`protocol_names` (e.g. ``"invalidation"``,
            ``"two-tier"``).
        config: keyword arguments forwarded to that protocol's factory
            (e.g. ``retry_interval=10.0`` for the invalidation family,
            ``ttl=600.0`` for ``fixed-ttl``).

    Raises:
        ValueError: on an unknown name or an unknown keyword argument,
            with a did-you-mean suggestion when one is close enough.
    """
    factory = PROTOCOLS.get(name)
    if factory is None:
        raise ValueError(_unknown("protocol", name, list(PROTOCOLS)))
    if config:
        accepted = [
            p.name
            for p in inspect.signature(factory).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        for key in config:
            if key not in accepted:
                raise ValueError(
                    _unknown(f"{name!r} option", key, accepted)
                    if accepted
                    else f"protocol {name!r} takes no options (got {key!r})"
                )
    return factory(**config)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment; the facade's front door to the replay testbed.

    Validates the configuration (a second time — construction already
    validates — so configs mutated via ``dataclasses.replace`` chains
    are re-checked at the point of use), then delegates to
    :func:`repro.replay.run_experiment` unchanged.
    """
    config.validate()
    return _run_experiment(config)


def run_sweep(
    base: ExperimentConfig,
    points: Sequence[SweepPoint],
    runner: Optional[object] = None,
    derive_seeds: bool = False,
) -> List[SweepResult]:
    """Run an experiment grid; the facade's front door to sweeps.

    Args:
        base: the configuration every point derives from.
        points: ``(label, {field: value, ...})`` override tuples.
        runner: ``None`` for the default serial executor, or a
            sweep-level executor such as
            :class:`repro.replay.ParallelSweepRunner`.
        derive_seeds: give each point its own label-derived seed.
    """
    base.validate()
    if runner is None:
        return _sweep(base, points, derive_seeds=derive_seeds)
    return _sweep(base, points, runner=runner, derive_seeds=derive_seeds)


#: (old path, new path) rows for the migration table in ``docs/api.md``.
MIGRATIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.cli.PROTOCOL_FACTORIES[name]()", "repro.api.build_protocol(name)"),
    ("repro.replay.run_experiment(config)", "repro.api.run_experiment(config)"),
    ("repro.replay.sweep(base, points)", "repro.api.run_sweep(base, points)"),
)
