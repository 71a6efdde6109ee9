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
  are :func:`repro.replay.run_experiment` and :func:`repro.replay.sweep`
  themselves, re-exported; the facade adds protocol discovery, never
  semantics.

The ``repro.core`` factory functions remain importable, undeprecated —
the facade wraps them rather than replacing them.  The old
``repro.cli.PROTOCOL_FACTORIES`` registry has been removed; use
:data:`PROTOCOLS` (see :data:`MIGRATIONS`).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from .replay import run_experiment
from .replay import sweep as run_sweep
from .replay.experiment import unknown_value

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
        raise ValueError(unknown_value("protocol", name, sorted(PROTOCOLS)))
    if config:
        accepted = [
            p.name
            for p in inspect.signature(factory).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        for key in config:
            if key not in accepted:
                raise ValueError(
                    unknown_value(f"{name!r} option", key, sorted(accepted))
                    if accepted
                    else f"protocol {name!r} takes no options (got {key!r})"
                )
    return factory(**config)


#: (old path, new path) rows for the migration table in ``docs/api.md``.
MIGRATIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.cli.PROTOCOL_FACTORIES[name]()", "repro.api.build_protocol(name)"),
)
