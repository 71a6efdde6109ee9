"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``replay``    — run one trace x protocol experiment and print the
  Table 3/4-style block (plus Table 5 costs for invalidation runs).
* ``compare``   — run all three paper protocols on one trace.
* ``sweep``     — run a protocol x lifetime grid on one trace, optionally
  in parallel (``--parallel N``) with checkpointed resume (``--resume``).
* ``table``     — reproduce Table 3 or Table 4 (all traces, all three
  protocols); the same ``--parallel``/``--resume`` flags apply.
* ``chaos``     — run a randomized fault-injection campaign with the
  strong-consistency auditor attached; violating schedules are shrunk
  to minimal reproducers.  Exits 1 if a strong protocol is caught
  serving stale bytes it should not have.
* ``report``    — run (or load from checkpoints) the full five-trace x
  three-protocol matrix and write ``RESULTS.md``: every paper table
  side-by-side with the reproduction, percentage deltas, the Section 5.2
  claims checklist, and a run manifest (git SHA, seed, digests).
* ``trace``     — record a structured span timeline (JSONL) for one
  experiment, or view/filter a previously recorded timeline.
* ``summarize`` — print the Table 2 row for a synthetic or CLF trace.
* ``generate``  — write a calibrated synthetic trace as a CLF log.
* ``analyze``   — evaluate the Table 1 model on an r/m stream.

Examples::

    python -m repro compare --trace EPA --lifetime-days 50 --scale 0.1
    python -m repro replay --trace SASK --protocol two-tier --scale 0.1
    python -m repro sweep --trace SDSC --protocols polling,invalidation \\
        --lifetimes 2,25 --parallel 4 --checkpoint-dir out/ckpt --resume
    python -m repro table --table 3 --scale 0.1 --parallel 4
    python -m repro report --scale 0.1 --parallel 4 --out RESULTS.md
    python -m repro report --from-checkpoints out/ckpt --out RESULTS.md
    python -m repro trace --trace EPA --protocol invalidation \\
        --scale 0.05 --out spans.jsonl
    python -m repro trace --view spans.jsonl --kind request --match miss
    python -m repro chaos --schedules 50 --seed 7 --protocol invalidation
    python -m repro summarize --trace NASA
    python -m repro summarize --clf /path/to/access_log
    python -m repro generate --trace SDSC --scale 0.2 --out sdsc.log
    python -m repro analyze --stream "r r r m m m r r m r r r m m r"
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .api import PROTOCOLS, build_protocol
from .core import simulate_stream, symbolic_counts
from .core.analysis import timed_stream_from_ops
from .replay import (
    ExperimentConfig,
    ParallelSweepRunner,
    SweepPointFailed,
    format_comparison_table,
    format_invalidation_costs,
    result_to_dict,
    run_experiment,
    sweep,
    sweep_table,
)
from .sim import RngRegistry
from .traces import generate_trace, read_clf, summarize, write_clf
from .traces.catalog import PROFILES
from .traces import profile as lookup_profile
from .workload import DAYS, count_r_ri, parse_stream

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Liu & Cao (ICDCS 1997), 'Maintaining Strong "
            "Cache Consistency in the World-Wide Web'."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            default="EPA",
            help=f"trace profile name ({', '.join(PROFILES)})",
        )
        p.add_argument(
            "--scale",
            type=float,
            default=0.1,
            help="workload scale factor in (0, 1] (default 0.1)",
        )
        p.add_argument("--seed", type=int, default=42, help="master seed")

    def add_replay_args(p: argparse.ArgumentParser) -> None:
        add_trace_args(p)
        p.add_argument(
            "--lifetime-days",
            type=float,
            default=50.0,
            help="mean document lifetime in days (default 50)",
        )
        p.add_argument(
            "--cache-mb",
            type=int,
            default=64,
            help="per-proxy cache capacity in MB (default 64)",
        )
        p.add_argument(
            "--hierarchy",
            type=int,
            default=0,
            metavar="N",
            help="insert N parent caches (0 = flat, the paper's setup)",
        )
        p.add_argument(
            "--shards",
            type=int,
            default=1,
            metavar="N",
            help="accelerator shards (1 = the paper's single accelerator)",
        )
        p.add_argument(
            "--batch-window",
            type=float,
            default=0.0,
            metavar="SECONDS",
            help="coalesce same-proxy invalidations for this long "
            "(cluster only; 0 = send immediately)",
        )
        p.add_argument(
            "--batch-max",
            type=int,
            default=0,
            metavar="N",
            help="flush an invalidation batch at N URLs even before the "
            "window closes (cluster only; 0 = no size cap)",
        )

    def add_parallel_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--parallel",
            type=int,
            default=0,
            metavar="N",
            help="run sweep points across N worker processes (0 = serial)",
        )
        p.add_argument(
            "--checkpoint-dir",
            metavar="DIR",
            help="write a per-point checkpoint file here as points finish",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="skip points already checkpointed (needs --checkpoint-dir)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-point wall-clock budget; overrunning workers retry",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=1,
            help="extra attempts after a worker crash or timeout (default 1)",
        )

    replay = sub.add_parser("replay", help="run one protocol on one trace")
    add_replay_args(replay)
    replay.add_argument(
        "--protocol",
        default="invalidation",
        choices=sorted(PROTOCOLS),
        help="consistency protocol",
    )
    replay.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )

    compare = sub.add_parser(
        "compare", help="run the paper's three protocols on one trace"
    )
    add_replay_args(compare)
    compare.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )

    sweep_p = sub.add_parser(
        "sweep", help="run a protocol x lifetime grid on one trace"
    )
    add_replay_args(sweep_p)
    sweep_p.add_argument(
        "--protocols",
        default="polling,invalidation,ttl",
        help="comma-separated protocol names (default: the paper's three)",
    )
    sweep_p.add_argument(
        "--lifetimes",
        default=None,
        metavar="DAYS,...",
        help="comma-separated mean lifetimes in days "
        "(default: just --lifetime-days)",
    )
    sweep_p.add_argument(
        "--metrics",
        default="total_messages,message_bytes,stale_serves,avg_latency",
        help="comma-separated ExperimentResult fields for the output table",
    )
    sweep_p.add_argument(
        "--derive-seeds",
        action="store_true",
        help="give each point its own label-derived seed "
        "(default: all points share the base seed)",
    )
    sweep_p.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    add_parallel_args(sweep_p)

    table = sub.add_parser(
        "table", help="reproduce Table 3 or 4 (all traces x three protocols)"
    )
    table.add_argument(
        "--table",
        type=int,
        default=3,
        choices=(3, 4),
        help="which paper table to reproduce (default 3)",
    )
    table.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="workload scale factor in (0, 1] (default 0.1)",
    )
    table.add_argument("--seed", type=int, default=42, help="master seed")
    table.add_argument(
        "--cache-mb",
        type=int,
        default=64,
        help="per-proxy cache capacity in MB (default 64)",
    )
    add_parallel_args(table)

    report = sub.add_parser(
        "report",
        help="write RESULTS.md: every paper table vs. this reproduction",
    )
    report.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="workload scale factor in (0, 1] (default 0.1)",
    )
    report.add_argument("--seed", type=int, default=42, help="master seed")
    report.add_argument(
        "--out",
        default="RESULTS.md",
        metavar="PATH",
        help="where to write the report (default RESULTS.md; '-' = stdout)",
    )
    report.add_argument(
        "--from-checkpoints",
        metavar="DIR",
        help="load the matrix from sweep checkpoints instead of replaying",
    )
    report.add_argument(
        "--timestamp",
        action="store_true",
        help="stamp the manifest with the generation time (off by default "
        "so committed reports regenerate diff-clean)",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="CI smoke: tiny matrix end to end, assert report invariants",
    )
    report.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run the matrix on an N-shard accelerator cluster (adds the "
        "shard-balance panel; default 1 = the paper's setup)",
    )
    report.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="cluster invalidation batching window (0 = immediate)",
    )
    report.add_argument(
        "--batch-max",
        type=int,
        default=0,
        metavar="N",
        help="cluster invalidation batch size cap (0 = none)",
    )
    add_parallel_args(report)

    trace_p = sub.add_parser(
        "trace",
        help="record or view a structured span timeline for one experiment",
    )
    add_replay_args(trace_p)
    trace_p.add_argument(
        "--protocol",
        default="invalidation",
        choices=sorted(PROTOCOLS),
        help="consistency protocol",
    )
    trace_p.add_argument(
        "--out",
        metavar="PATH",
        help="JSONL span file to write (record mode; default spans.jsonl)",
    )
    trace_p.add_argument(
        "--sample",
        type=float,
        default=1.0,
        metavar="FRAC",
        help="deterministic per-kind span sampling rate in (0, 1] "
        "(default 1.0 = keep everything)",
    )
    trace_p.add_argument(
        "--deep",
        action="store_true",
        help="also attach the kernel event tracer (counts every "
        "processed event; slower, same results)",
    )
    trace_p.add_argument(
        "--view",
        metavar="FILE",
        help="view a previously recorded span file instead of recording",
    )
    trace_p.add_argument(
        "--kind", help="view filter: span kind (request/invalidation/run)"
    )
    trace_p.add_argument(
        "--match",
        help="view filter: substring of the span name or attributes",
    )
    trace_p.add_argument(
        "--since", type=float, help="view filter: spans ending at/after this sim time"
    )
    trace_p.add_argument(
        "--until", type=float, help="view filter: spans starting at/before this sim time"
    )
    trace_p.add_argument(
        "--limit",
        type=int,
        default=50,
        help="view: max timeline rows to print (default 50)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault-injection campaign with consistency audit",
    )
    add_replay_args(chaos)
    chaos.set_defaults(seed=7)  # campaign convention; --seed still wins
    chaos.add_argument(
        "--protocol",
        default="invalidation",
        choices=sorted(PROTOCOLS),
        help="consistency protocol under test",
    )
    chaos.add_argument(
        "--schedules",
        type=int,
        default=50,
        metavar="N",
        help="random fault schedules to sample and replay (default 50)",
    )
    chaos.add_argument(
        "--max-faults",
        type=int,
        default=5,
        metavar="K",
        help="cap on faults per schedule (default 5)",
    )
    chaos.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking violating schedules to minimal reproducers",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit the full campaign report as JSON"
    )
    add_parallel_args(chaos)

    summ = sub.add_parser("summarize", help="print a Table 2-style summary")
    add_trace_args(summ)
    summ.add_argument(
        "--clf",
        metavar="PATH",
        help="summarize a Common Log Format file instead of a profile",
    )

    gen = sub.add_parser("generate", help="write a synthetic trace as CLF")
    add_trace_args(gen)
    gen.add_argument("--out", required=True, metavar="PATH", help="output file")

    analyze = sub.add_parser(
        "analyze", help="Table 1 message model for an r/m stream"
    )
    analyze.add_argument(
        "--stream",
        default="r r r m m m r r m r r r m m r",
        help="request/modification stream (default: the paper's example)",
    )
    analyze.add_argument(
        "--spacing",
        type=float,
        default=3600.0,
        help="seconds between stream events (default 3600)",
    )

    bench = sub.add_parser(
        "bench",
        help="kernel micro-benchmarks; writes BENCH_kernel.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads (CI smoke: seconds, not minutes)",
    )
    bench.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="where BENCH_kernel.json is written",
    )
    bench.add_argument(
        "--compare",
        metavar="PATH",
        help="baseline BENCH JSON; exit non-zero on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed slowdown fraction for --compare (default 0.15)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="take best-of-N per kernel benchmark (default 3)",
    )
    bench.add_argument(
        "--profile",
        metavar="NAME",
        nargs="?",
        const="sleep_storm",
        help="profile one kernel workload (cProfile, or pyinstrument "
        "when installed) instead of benchmarking",
    )
    return parser


def _make_trace(args):
    profile = lookup_profile(args.trace)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    return generate_trace(profile, RngRegistry(seed=args.seed))


def _make_config(args, protocol) -> ExperimentConfig:
    return ExperimentConfig(
        trace=_make_trace(args),
        protocol=protocol,
        mean_lifetime=args.lifetime_days * DAYS,
        proxy_cache_bytes=args.cache_mb * 1024 * 1024,
        seed=args.seed,
        hierarchy_parents=args.hierarchy or None,
        shards=getattr(args, "shards", 1),
        batch_window=getattr(args, "batch_window", 0.0),
        batch_max=getattr(args, "batch_max", 0),
    )


def _cmd_replay(args, out) -> int:
    protocol = build_protocol(args.protocol)
    result = run_experiment(_make_config(args, protocol))
    if args.json:
        from .replay import results_to_json

        print(results_to_json([result]), file=out)
        return 0
    print(format_comparison_table([result]), file=out)
    if protocol.uses_invalidation:
        print("", file=out)
        print(format_invalidation_costs([result]), file=out)
    if result.cluster is not None:
        cluster = result.cluster
        print("", file=out)
        print(
            f"Cluster: {cluster['shards']} shard(s), "
            f"imbalance {cluster['imbalance_ratio']:.2f}x, "
            f"{cluster['handoffs']} site-list handoff(s)",
            file=out,
        )
        if cluster["batches_delivered"]:
            print(
                f"  batching: {cluster['batched_invalidations_delivered']} "
                f"invalidation(s) in {cluster['batches_delivered']} "
                f"message(s)",
                file=out,
            )
        for name, row in sorted(cluster["per_shard"].items()):
            print(
                f"  {name}: {row['requests_routed']} routed, "
                f"{row['invalidations_sent']} invalidation msg(s), "
                f"{row['sitelist_entries']} site-list entries",
                file=out,
            )
    return 0


def _cmd_compare(args, out) -> int:
    results = []
    for name in ("polling", "invalidation", "ttl"):
        results.append(run_experiment(_make_config(args, build_protocol(name))))
    if args.json:
        from .replay import results_to_json

        print(results_to_json(results), file=out)
        return 0
    print(format_comparison_table(results), file=out)
    return 0


def _make_runner(args):
    """Build a ParallelSweepRunner when any parallel flag is set.

    Returns ``None`` for a plain serial sweep so ``sweep()`` keeps its
    default runner (and zero multiprocessing overhead).  Progress lines
    go to stderr so ``--json`` output stays machine-readable.
    """
    wanted = (
        args.parallel
        or args.resume
        or args.checkpoint_dir is not None
        or args.timeout is not None
    )
    if not wanted:
        return None
    return ParallelSweepRunner(
        workers=args.parallel or None,
        timeout=args.timeout,
        retries=args.retries,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        progress=lambda line: print(line, file=sys.stderr),
    )


def _run_points(base, points, args, derive_seeds=False):
    runner = _make_runner(args)
    if runner is None:
        return sweep(base, points, derive_seeds=derive_seeds)
    return sweep(base, points, runner=runner, derive_seeds=derive_seeds)


def _cmd_sweep(args, out) -> int:
    import json

    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    unknown = [p for p in protocols if p not in PROTOCOLS]
    if not protocols or unknown:
        print(
            f"error: unknown protocol(s) {', '.join(unknown) or '<none>'}; "
            f"choose from {', '.join(sorted(PROTOCOLS))}",
            file=out,
        )
        return 2
    lifetimes = (
        [float(d) for d in args.lifetimes.split(",") if d.strip()]
        if args.lifetimes
        else [args.lifetime_days]
    )
    base = _make_config(args, build_protocol(protocols[0]))
    points = []
    for days in lifetimes:
        for name in protocols:
            label = name if len(lifetimes) == 1 else f"{name}/{days:g}d"
            points.append(
                (
                    label,
                    {
                        "protocol": build_protocol(name),
                        "mean_lifetime": days * DAYS,
                    },
                )
            )
    try:
        results = _run_points(base, points, args, derive_seeds=args.derive_seeds)
    except (ValueError, SweepPointFailed) as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.json:
        payload = [
            {"label": r.label, **result_to_dict(r.result)} for r in results
        ]
        print(json.dumps(payload, indent=2), file=out)
        return 0
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    print(sweep_table(results, metrics), file=out)
    return 0


#: (trace, mean lifetime in days) rows of the paper's Tables 3 and 4.
TABLE_SPECS = {
    3: [("EPA", 50.0), ("SASK", 14.0), ("ClarkNet", 50.0)],
    4: [("NASA", 7.0), ("SDSC", 25.0), ("SDSC", 2.5)],
}

#: Column order within each table block.
TABLE_PROTOCOLS = ("polling", "invalidation", "ttl")


def _cmd_table(args, out) -> int:
    spec = TABLE_SPECS[args.table]
    traces = {}
    for trace_name, _days in spec:
        if trace_name not in traces:
            profile = lookup_profile(trace_name)
            if args.scale != 1.0:
                profile = profile.scaled(args.scale)
            traces[trace_name] = generate_trace(
                profile, RngRegistry(seed=args.seed)
            )
    first_trace, first_days = spec[0]
    base = ExperimentConfig(
        trace=traces[first_trace],
        protocol=build_protocol(TABLE_PROTOCOLS[0]),
        mean_lifetime=first_days * DAYS,
        proxy_cache_bytes=args.cache_mb * 1024 * 1024,
        seed=args.seed,
    )
    points = [
        (
            f"{trace_name}-{days:g}d/{proto}",
            {
                "trace": traces[trace_name],
                "mean_lifetime": days * DAYS,
                "protocol": build_protocol(proto),
            },
        )
        for trace_name, days in spec
        for proto in TABLE_PROTOCOLS
    ]
    try:
        results = _run_points(base, points, args)
    except (ValueError, SweepPointFailed) as exc:
        print(f"error: {exc}", file=out)
        return 2
    blocks = []
    for row, (trace_name, days) in enumerate(spec):
        group = results[row * len(TABLE_PROTOCOLS):(row + 1) * len(TABLE_PROTOCOLS)]
        title = (
            f"Trace {trace_name}, lifetime {days:g} days, "
            f"{group[0].result.total_requests} requests, "
            f"{group[0].result.files_modified} files modified"
        )
        blocks.append(
            format_comparison_table([g.result for g in group], title=title)
        )
    print("\n\n".join(blocks), file=out)
    return 0


def _cmd_report(args, out) -> int:
    import time as _time

    from .obs.report import check_report, collect_report, render_report

    if args.check:
        return check_report(out=out)
    generated = (
        _time.strftime("%Y-%m-%dT%H:%M:%S%z") if args.timestamp else None
    )
    try:
        data = collect_report(
            scale=args.scale,
            seed=args.seed,
            runner=_make_runner(args),
            from_checkpoints=args.from_checkpoints,
            generated=generated,
            progress=lambda line: print(line, file=sys.stderr),
            shards=args.shards,
            batch_window=args.batch_window,
            batch_max=args.batch_max,
        )
    except (ValueError, SweepPointFailed) as exc:
        print(f"error: {exc}", file=out)
        return 2
    text = render_report(data)
    if args.out == "-":
        print(text, file=out)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        manifest = data.manifest
        print(
            f"wrote {args.out} ({manifest['points']} matrix point(s), "
            f"scale {data.scale:g}, seed {data.seed}, "
            f"git {manifest['git_sha']}, "
            f"results digest {manifest['results_digest']})",
            file=out,
        )
    return 0


def _cmd_trace(args, out) -> int:
    from .obs import (
        MetricsRegistry,
        Observation,
        SpanSink,
        filter_spans,
        format_timeline,
        read_spans,
    )

    if args.view:
        spans = filter_spans(
            read_spans(args.view),
            kind=args.kind,
            contains=args.match,
            since=args.since,
            until=args.until,
        )
        print(format_timeline(spans, limit=args.limit), file=out)
        return 0

    import dataclasses

    path = args.out or "spans.jsonl"
    try:
        sink = SpanSink(path, sample=args.sample)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    observation = Observation(
        registry=MetricsRegistry(), sink=sink, deep=args.deep
    )
    config = dataclasses.replace(
        _make_config(args, build_protocol(args.protocol)),
        observation=observation,
    )
    try:
        run_experiment(config)
    finally:
        observation.close()
    print(
        f"wrote {sink.total_written} span(s) to {path} "
        f"({sink.total_seen} seen, sample {args.sample:g}); "
        f"{len(observation.registry)} metric series recorded",
        file=out,
    )
    for kind in sorted(sink.counts):
        print(
            f"  {kind:14s} {sink.written[kind]:>8d} written / "
            f"{sink.counts[kind]} seen",
            file=out,
        )
    if args.deep and observation.tracer is not None:
        print(
            f"  deep: {observation.tracer.total} kernel event(s) traced",
            file=out,
        )
    return 0


def _cmd_chaos(args, out) -> int:
    import json

    from .chaos import run_campaign

    protocol = build_protocol(args.protocol)
    base = _make_config(args, protocol)
    try:
        report = run_campaign(
            base,
            num_schedules=args.schedules,
            seed=args.seed,
            max_faults=args.max_faults,
            runner=_make_runner(args),
            shrink=not args.no_shrink,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except (ValueError, SweepPointFailed) as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        allowed = report.allowed_staleness()
        print(
            f"chaos campaign: {args.protocol} on {report.trace_name}, "
            f"{report.num_schedules} schedules, seed {report.seed}",
            file=out,
        )
        print(
            f"  verdict: {'CLEAN' if report.ok else 'VIOLATIONS FOUND'} "
            f"({report.total_violations} violation(s), "
            f"{report.total_stale_serves} stale serve(s))",
            file=out,
        )
        if allowed:
            reasons = ", ".join(
                f"{reason}={count}" for reason, count in sorted(allowed.items())
            )
            print(f"  allowed staleness: {reasons}", file=out)
        for verdict in report.verdicts:
            if verdict.ok:
                continue
            print(
                f"  {verdict.label}: {verdict.violation_count} violation(s) "
                f"across {verdict.fault_count} fault(s)",
                file=out,
            )
        for label, repro in sorted(report.reproducers.items()):
            faults = repro["faults"] or ["(reproduces fault-free)"]
            print(f"  minimal reproducer for {label}:", file=out)
            for line in faults:
                print(f"    - {line}", file=out)
    # A weak protocol's staleness is its trade-off, not a failure: only
    # strong protocols turn violations into a nonzero exit code.
    return 1 if (report.strong and not report.ok) else 0


def _cmd_summarize(args, out) -> int:
    if args.clf:
        with open(args.clf, "r", errors="replace") as handle:
            trace = read_clf(handle, name=args.clf)
    else:
        trace = _make_trace(args)
    print(summarize(trace).row(), file=out)
    return 0


def _cmd_generate(args, out) -> int:
    trace = _make_trace(args)
    with open(args.out, "w") as handle:
        count = write_clf(trace, handle)
    print(f"wrote {count} records to {args.out}", file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    ops = parse_stream(args.stream)
    counts = count_r_ri(ops)
    print(f"R = {counts.reads}, RI = {counts.intervals}", file=out)
    events = timed_stream_from_ops(ops, spacing=args.spacing)
    print(f"{'protocol':14s}{'GETs':>6s}{'IMS':>6s}{'304s':>6s}"
          f"{'invals':>8s}{'xfers':>7s}{'control':>9s}", file=out)
    for name in ("polling", "invalidation", "ttl"):
        counts_sim = simulate_stream(events, name)
        print(
            f"{name:14s}{counts_sim.gets:>6d}{counts_sim.ims:>6d}"
            f"{counts_sim.replies_304:>6d}{counts_sim.invalidations:>8d}"
            f"{counts_sim.file_transfers:>7d}{counts_sim.control_messages:>9d}",
            file=out,
        )
    symbolic = symbolic_counts("invalidation", counts.reads, counts.intervals)
    print(f"(Table 1 bound: invalidation control <= {symbolic.control_messages})",
          file=out)
    return 0


def _cmd_bench(args, out) -> int:
    import os

    from . import bench as benchmod

    if args.profile:
        if args.profile not in benchmod.KERNEL_BENCHMARKS:
            names = ", ".join(sorted(benchmod.KERNEL_BENCHMARKS))
            print(f"unknown benchmark {args.profile!r}; one of: {names}", file=out)
            return 2
        benchmod.profile_kernel(args.profile, out=out)
        return 0

    tolerance = (
        args.tolerance if args.tolerance is not None else benchmod.DEFAULT_TOLERANCE
    )
    baseline = None
    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        if baseline.get("kind") != "kernel":
            print("--compare needs a kernel baseline", file=out)
            return 2
    os.makedirs(args.out_dir, exist_ok=True)
    kernel = benchmod.run_kernel_benchmarks(quick=args.quick, repeats=args.repeats)
    payload = benchmod.bench_payload("kernel", kernel)
    path = os.path.join(args.out_dir, "BENCH_kernel.json")
    benchmod.write_payload(path, payload)
    print(f"wrote {path}", file=out)
    for name, b in kernel.items():
        print(f"  {name:24s} {b['events_per_sec']:>12,.0f} events/s", file=out)

    if baseline is not None:
        # Variants the baseline predates cannot be gated; report them
        # individually instead of erroring out on the whole run.
        for name in benchmod.missing_baselines(payload, baseline):
            print(f"  {name}: no baseline (new variant), not gated", file=out)
        failures = benchmod.compare_bench(payload, baseline, tolerance=tolerance)
        if failures:
            print(f"PERF REGRESSION vs {args.compare}:", file=out)
            for failure in failures:
                print(f"  {failure}", file=out)
            return 1
        print(
            f"no regression vs {args.compare} (tolerance -{tolerance:.0%})",
            file=out,
        )
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "replay": _cmd_replay,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "table": _cmd_table,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "chaos": _cmd_chaos,
        "summarize": _cmd_summarize,
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench,
    }[args.command]
    return handler(args, out)
