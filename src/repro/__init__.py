"""repro — reproduction of Liu & Cao, "Maintaining Strong Cache
Consistency in the World-Wide Web" (ICDCS 1997).

The package implements the paper's three consistency approaches (adaptive
TTL, polling-every-time, server-driven invalidation), the lease-augmented
and two-tier refinements of Section 6, and the full trace-replay testbed
used to compare them — all on a from-scratch discrete-event simulator.

Quickest start::

    from repro import (
        ExperimentConfig, run_experiment, format_comparison_table,
        adaptive_ttl, poll_every_time, invalidation,
        PROFILES, generate_trace, RngRegistry, DAYS,
    )

    trace = generate_trace(PROFILES["EPA"].scaled(0.1), RngRegistry(seed=42))
    results = [
        run_experiment(ExperimentConfig(trace=trace, protocol=p,
                                        mean_lifetime=5 * DAYS))
        for p in (adaptive_ttl(), poll_every_time(), invalidation())
    ]
    print(format_comparison_table(results))

Subpackages: :mod:`repro.sim` (DES kernel), :mod:`repro.net` (network),
:mod:`repro.http` (message model), :mod:`repro.server` (origin server +
accelerator), :mod:`repro.proxy` (proxy cache), :mod:`repro.core`
(protocols + Table 1 analysis), :mod:`repro.traces` (trace substrate),
:mod:`repro.workload` (modifier), :mod:`repro.replay` (testbed harness),
:mod:`repro.metrics`, :mod:`repro.chaos` (fault injection).
"""

from .api import PROTOCOLS, build_protocol, protocol_names, run_sweep
from .api import run_experiment
from .core import (
    DEFAULT_LEASE,
    MessageCounts,
    Protocol,
    adaptive_lease,
    adaptive_ttl,
    fixed_ttl,
    invalidation,
    lease_invalidation,
    piggyback_invalidation,
    poll_every_time,
    predict_message_counts,
    simulate_stream,
    symbolic_counts,
    two_tier_lease,
)
from .replay import (
    ExperimentConfig,
    ExperimentResult,
    format_comparison_table,
    format_invalidation_costs,
)
from .sim import RngRegistry, Simulator
from .traces import PROFILES, Trace, TraceProfile, generate_trace, read_clf, summarize
from .workload import DAYS

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # protocols
    "Protocol",
    "adaptive_ttl",
    "fixed_ttl",
    "poll_every_time",
    "invalidation",
    "lease_invalidation",
    "two_tier_lease",
    "adaptive_lease",
    "piggyback_invalidation",
    "DEFAULT_LEASE",
    # analysis
    "MessageCounts",
    "symbolic_counts",
    "simulate_stream",
    "predict_message_counts",
    # facade
    "PROTOCOLS",
    "build_protocol",
    "protocol_names",
    "run_sweep",
    # replay
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "format_comparison_table",
    "format_invalidation_costs",
    # traces & workload
    "Trace",
    "TraceProfile",
    "PROFILES",
    "generate_trace",
    "summarize",
    "read_clf",
    "DAYS",
    # infrastructure
    "Simulator",
    "RngRegistry",
]
