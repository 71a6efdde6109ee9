#!/usr/bin/env python
"""Replay any of the paper's five traces and print Tables 3/4/5 rows.

This is the closest runnable analogue of the paper's evaluation: pick a
trace (EPA, SDSC, ClarkNet, NASA, SASK), a mean file lifetime in days,
and a scale factor, then compare the three consistency approaches.

Usage::

    python examples/trace_replay_comparison.py [trace] [lifetime_days] [scale]

Defaults: SDSC, 2.5 days, 0.2 — the paper's high-modification SDSC run at
a fifth of full volume (about a minute of runtime).  For paper-scale
numbers use scale 1.0 (several minutes), or run the benchmarks in
``benchmarks/``.
"""

import sys

from repro import (
    DAYS,
    ExperimentConfig,
    RngRegistry,
    format_comparison_table,
    format_invalidation_costs,
    generate_trace,
)
from repro.api import build_protocol, run_experiment
from repro.traces import profile as lookup_profile


def main() -> None:
    trace_name = sys.argv[1] if len(sys.argv) > 1 else "SDSC"
    lifetime_days = float(sys.argv[2]) if len(sys.argv) > 2 else 2.5
    scale = float(sys.argv[3]) if len(sys.argv) > 3 else 0.2

    profile = lookup_profile(trace_name).scaled(scale)
    # Keep the modification count of the full-scale experiment: lifetime
    # scales with the file count (mods = duration * files / lifetime).
    mean_lifetime = lifetime_days * DAYS * scale

    print(f"Trace {profile.name}: {profile.total_requests} requests, "
          f"{profile.num_files} files, lifetime {lifetime_days:g} days "
          f"(scaled to {mean_lifetime / DAYS:.2f})")
    trace = generate_trace(profile, RngRegistry(seed=42))

    results = []
    for protocol in (build_protocol(name)
                     for name in ("polling", "invalidation", "ttl")):
        print(f"  replaying {protocol.name}...")
        results.append(
            run_experiment(
                ExperimentConfig(
                    trace=trace, protocol=protocol, mean_lifetime=mean_lifetime
                )
            )
        )

    print()
    print(format_comparison_table(results))
    print()
    print(format_invalidation_costs([results[1]]))


if __name__ == "__main__":
    main()
