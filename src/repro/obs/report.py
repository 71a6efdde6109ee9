"""Paper-fidelity reporting: ``RESULTS.md`` generation.

The paper's argument is carried by five tables; this module runs (or
loads) the six-experiment x three-protocol matrix behind Tables 3-5 and
renders every table side-by-side with the paper's published numbers:

* **Table 1** — the analytical message model, recomputed exactly from
  the paper's example r/m stream;
* **Table 2** — trace summaries versus the published workload
  characteristics;
* **Tables 3-4** — the replay matrix (messages, bytes, latency, server
  load, staleness) plus a pass/fail checklist of the paper's Section 5.2
  claims (most of the paper's numeric cells are unreadable in the
  available text, so the prose claims are the reproduction target —
  see ``EXPERIMENTS.md``);
* **Table 5** — invalidation costs (site-list storage, fan-out time).

Every report carries a manifest — git SHA, master seed, scale, and
content digests of the configuration and the results — so a committed
``RESULTS.md`` names the exact runs it came from and two same-seed runs
render byte-identical reports.

Published numbers are scaled by the run's workload scale where they are
extensive quantities (request counts, files modified, storage); intensive
quantities (average sizes, latencies orderings, utilisation orderings)
are compared directly or via the claims checklist.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import build_protocol, run_sweep
from ..core import simulate_stream, symbolic_counts
from ..core.analysis import timed_stream_from_ops
from ..replay import ExperimentConfig, read_checkpoint, result_to_dict
from ..sim import RngRegistry
from ..traces import generate_trace, summarize
from ..traces import profile as lookup_profile
from ..workload import DAYS, count_r_ri, parse_stream

__all__ = [
    "REPORT_EXPERIMENTS",
    "REPORT_PROTOCOLS",
    "ReportData",
    "ClaimCheck",
    "experiment_label",
    "delta_pct",
    "format_delta",
    "build_manifest",
    "run_matrix",
    "collect_report",
    "load_checkpoint_results",
    "render_report",
    "check_report",
]

#: The paper's six replay experiments: (paper table, trace, lifetime days).
REPORT_EXPERIMENTS: Tuple[Tuple[int, str, float], ...] = (
    (3, "EPA", 50.0),
    (3, "SASK", 14.0),
    (3, "ClarkNet", 50.0),
    (4, "NASA", 7.0),
    (4, "SDSC", 25.0),
    (4, "SDSC", 2.5),
)

#: Protocol column order (CLI names; see repro.api.PROTOCOLS).
REPORT_PROTOCOLS: Tuple[str, ...] = ("polling", "invalidation", "ttl")

#: The paper's example request/modification stream (Table 1).
PAPER_STREAM = "r r r m m m r r m r r r m m r"

#: Table 2 published rows: trace -> (requests, files, avg KB, pop max,
#: pop mean).  File counts are derived from the Tables 3-4 headers (the
#: cells are unreadable); see EXPERIMENTS.md.
PAPER_TABLE2: Dict[str, Tuple[int, int, float, int, float]] = {
    "EPA": (40_658, 3_600, 21.0, 1_642, 8.2),
    "SDSC": (25_430, 1_430, 14.0, 1_020, 12.0),
    "ClarkNet": (61_703, 4_800, 13.0, 680, 8.0),
    "NASA": (61_823, 1_008, 44.0, 3_138, 31.0),
    "SASK": (51_471, 2_009, 12.0, 1_155, 14.0),
}

#: Tables 3-4 published "files modified" headers.
PAPER_FILES_MODIFIED: Dict[Tuple[str, float], int] = {
    ("EPA", 50.0): 72,
    ("SASK", 14.0): 1_148,
    ("ClarkNet", 50.0): 40,
    ("NASA", 7.0): 144,
    ("SDSC", 25.0): 57,
    ("SDSC", 2.5): 576,
}

#: Table 5 published site-list storage, in bytes.
PAPER_SITELIST_STORAGE: Dict[Tuple[str, float], int] = {
    ("EPA", 50.0): 1_048_576,  # "1.0 MB"
    ("SASK", 14.0): 621 * 1024,
    ("ClarkNet", 50.0): int(1.6 * 1_048_576),
    ("NASA", 7.0): 742 * 1024,
    ("SDSC", 25.0): 489 * 1024,
    ("SDSC", 2.5): 474 * 1024,
}

#: Table 5's "bytes of storage per request" band, as printed in the paper.
PAPER_BYTES_PER_REQUEST = (20.0, 30.0)


def experiment_label(trace: str, days: float, protocol: str) -> str:
    """Sweep-point label for one matrix cell (``EPA-50d/polling``).

    :func:`run_matrix` labels every point it replays with this function,
    and ``repro report``, ``repro table`` and the benchmark harness all
    replay through it, so their checkpoints are interchangeable by
    construction.
    """
    return f"{trace}-{days:g}d/{protocol}"


@dataclass(frozen=True)
class ClaimCheck:
    """One Section 5.2 claim evaluated against the measured matrix."""

    claim: str
    ok: bool
    evidence: str


@dataclass
class ReportData:
    """Everything :func:`render_report` needs for one report."""

    scale: float
    seed: int
    experiments: Sequence[Tuple[int, str, float]]
    #: label (see :func:`experiment_label`) -> ExperimentResult.
    results: Dict[str, object]
    #: trace name -> TraceSummary for the replayed (scaled) traces.
    summaries: Dict[str, object]
    manifest: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def delta_pct(ours: float, paper: float) -> Optional[float]:
    """Percentage difference of ``ours`` versus the paper's value.

    Returns ``None`` when the paper value is zero/absent (no meaningful
    percentage).
    """
    if paper is None or paper == 0:
        return None
    return (ours - paper) / paper * 100.0


def format_delta(ours: float, paper: float) -> str:
    """Render the paper-vs-ours delta as a signed percentage string."""
    delta = delta_pct(ours, paper)
    if delta is None:
        return "n/a"
    return f"{delta:+.1f}%"


def _digest(payload: object) -> str:
    """Short stable content digest of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def head_sha() -> str:
    """Short git SHA of the working tree's HEAD, or ``"unknown"``.

    The run manifest's default ``git_sha``.
    """
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_manifest(
    scale: float,
    seed: int,
    experiments: Sequence[Tuple[int, str, float]],
    results: Dict[str, object],
    git_sha: Optional[str] = None,
    generated: Optional[str] = None,
) -> Dict[str, object]:
    """Provenance block for one report.

    Deterministic by construction: two runs with the same seed, scale and
    code produce identical manifests (``generated`` is only present when
    a caller explicitly passes a timestamp — the committed ``RESULTS.md``
    omits it so report regeneration is diff-clean).
    """
    config = {
        "scale": scale,
        "seed": seed,
        "experiments": [list(e) for e in experiments],
        "protocols": list(REPORT_PROTOCOLS),
    }
    results_payload = {
        label: result_to_dict(result) for label, result in sorted(results.items())
    }
    manifest: Dict[str, object] = {
        "git_sha": git_sha if git_sha is not None else head_sha(),
        "seed": seed,
        "scale": scale,
        "points": len(results),
        "config_digest": _digest(config),
        "results_digest": _digest(results_payload),
    }
    if generated is not None:
        manifest["generated"] = generated
    return manifest


# ---------------------------------------------------------------------------
# collection: run the matrix, or load it from checkpoints
# ---------------------------------------------------------------------------

def _scaled_traces(
    experiments: Sequence[Tuple[int, str, float]], scale: float, seed: int
) -> Dict[str, object]:
    """Generate each distinct trace of ``experiments`` once, by name."""
    traces: Dict[str, object] = {}
    for _table, trace_name, _days in experiments:
        if trace_name not in traces:
            profile = lookup_profile(trace_name)
            if scale != 1.0:
                profile = profile.scaled(scale)
            traces[trace_name] = generate_trace(profile, RngRegistry(seed=seed))
    return traces


def run_matrix(
    experiments: Sequence[Tuple[int, str, float]] = REPORT_EXPERIMENTS,
    scale: float = 0.1,
    seed: int = 42,
    runner: Optional[object] = None,
    **overrides: object,
) -> Dict[str, object]:
    """Replay each experiment row under every :data:`REPORT_PROTOCOLS` column.

    Args:
        experiments: (table, trace, lifetime-days) rows to replay.
        scale: workload scale in (0, 1] of the generated traces.
        seed: master seed of the traces and of every matrix point.
        runner: optional :class:`repro.replay.ParallelSweepRunner` (or any
            runner :func:`repro.replay.sweep` accepts).
        overrides: further :class:`repro.replay.ExperimentConfig` fields
            shared by every point (``proxy_cache_bytes``, ``shards``, ...).

    Returns:
        :func:`experiment_label` -> ExperimentResult, row by row.
    """
    traces = _scaled_traces(experiments, scale, seed)
    _table0, trace0, days0 = experiments[0]
    base = ExperimentConfig(
        trace=traces[trace0],
        protocol=build_protocol(REPORT_PROTOCOLS[0]),
        mean_lifetime=days0 * DAYS,
        seed=seed,
        **overrides,
    )
    points = [
        (
            experiment_label(trace, days, proto),
            {
                "trace": traces[trace],
                "mean_lifetime": days * DAYS,
                "protocol": build_protocol(proto),
            },
        )
        for _table, trace, days in experiments
        for proto in REPORT_PROTOCOLS
    ]
    swept = run_sweep(base, points, runner=runner)
    return {point.label: point.result for point in swept}


def load_checkpoint_results(
    directory: str,
    experiments: Sequence[Tuple[int, str, float]] = REPORT_EXPERIMENTS,
) -> Dict[str, object]:
    """Load the report matrix from a sweep checkpoint directory.

    Accepts the checkpoints of :func:`run_matrix`'s points, as written by
    ``repro report --checkpoint-dir``, ``repro table --checkpoint-dir``
    and the benchmark harness's parallel prewarm; ``repro sweep``'s
    labels name no trace, so its checkpoints do not fit.  Raises
    ``ValueError`` when any required (trace, lifetime, protocol) cell is
    missing, naming the absent labels.
    """
    found: Dict[str, object] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            label, result = read_checkpoint(path)
        except (ValueError, KeyError, json.JSONDecodeError):
            continue  # not a checkpoint (e.g. a stray BENCH_*.json)
        if label is not None:
            found[label] = result
    wanted = [
        experiment_label(trace, days, proto)
        for _table, trace, days in experiments
        for proto in REPORT_PROTOCOLS
    ]
    missing = [label for label in wanted if label not in found]
    if missing:
        raise ValueError(
            f"checkpoint dir {directory!r} is missing {len(missing)} "
            f"point(s): {', '.join(missing)}"
        )
    return {label: found[label] for label in wanted}


def collect_report(
    scale: float = 0.1,
    seed: int = 42,
    experiments: Sequence[Tuple[int, str, float]] = REPORT_EXPERIMENTS,
    runner: Optional[object] = None,
    from_checkpoints: Optional[str] = None,
    git_sha: Optional[str] = None,
    generated: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    shards: int = 1,
    batch_window: float = 0.0,
    batch_max: int = 0,
) -> ReportData:
    """Assemble one report: run (or load) the matrix and its summaries.

    Args:
        scale: workload scale in (0, 1]; published extensive quantities
            are compared against ``paper * scale``.
        seed: master seed shared by every matrix point.
        experiments: (table, trace, lifetime-days) rows to include.
        runner: optional :class:`repro.replay.ParallelSweepRunner`.
        from_checkpoints: load results from this checkpoint directory
            instead of replaying.
        git_sha / generated: manifest overrides (tests pin these).
        progress: optional line sink for status output.
        shards / batch_window / batch_max: accelerator-cluster knobs;
            ``shards=1`` (the default) keeps the paper's single
            accelerator and the report byte-identical to earlier
            releases.  A sharded matrix adds a shard-balance panel.
    """
    say = progress or (lambda line: None)
    summaries = {
        name: summarize(trace)
        for name, trace in _scaled_traces(experiments, scale, seed).items()
    }

    if from_checkpoints is not None:
        say(f"loading matrix from checkpoints in {from_checkpoints}")
        results = load_checkpoint_results(from_checkpoints, experiments)
    else:
        say(
            f"replaying {len(experiments) * len(REPORT_PROTOCOLS)} matrix "
            f"point(s) at scale {scale:g}"
        )
        results = run_matrix(
            experiments,
            scale=scale,
            seed=seed,
            runner=runner,
            shards=shards,
            batch_window=batch_window,
            batch_max=batch_max,
        )

    manifest = build_manifest(
        scale, seed, experiments, results, git_sha=git_sha, generated=generated
    )
    return ReportData(
        scale=scale,
        seed=seed,
        experiments=experiments,
        results=results,
        summaries=summaries,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# claims: the Section 5.2 checklist
# ---------------------------------------------------------------------------

def _triples(data: ReportData):
    """Yield ((trace, days), {protocol: result}) per experiment."""
    for _table, trace, days in data.experiments:
        yield (trace, days), {
            proto: data.results[experiment_label(trace, days, proto)]
            for proto in REPORT_PROTOCOLS
        }


def evaluate_claims(data: ReportData) -> List[ClaimCheck]:
    """Evaluate the paper's Section 5.2 claims on the measured matrix."""
    checks: List[ClaimCheck] = []
    overhead: List[float] = []
    ok = True
    for _key, row in _triples(data):
        others = max(
            row["invalidation"].total_messages, row["ttl"].total_messages
        )
        ok = ok and row["polling"].total_messages > others
        if row["invalidation"].total_messages:
            overhead.append(
                row["polling"].total_messages
                / row["invalidation"].total_messages
                - 1.0
            )
    checks.append(
        ClaimCheck(
            "Polling sends 10-50% more messages than the other approaches",
            ok,
            f"polling overhead vs invalidation: "
            f"{min(overhead) * 100:+.0f}% to {max(overhead) * 100:+.0f}%"
            if overhead
            else "no data",
        )
    )

    ok, worst = True, 0.0
    for _key, row in _triples(data):
        ratio = (
            row["invalidation"].total_messages / row["ttl"].total_messages
            if row["ttl"].total_messages
            else 0.0
        )
        worst = max(worst, ratio)
        ok = ok and ratio <= 1.06
    checks.append(
        ClaimCheck(
            "Invalidation sends a similar number of messages to TTL "
            "(within ~6%) or fewer",
            ok,
            f"worst invalidation/TTL message ratio: {worst:.2f}",
        )
    )

    ok, worst_spread = True, 0.0
    for _key, row in _triples(data):
        sizes = [row[p].message_bytes for p in REPORT_PROTOCOLS]
        spread = (max(sizes) - min(sizes)) / min(sizes) if min(sizes) else 0.0
        worst_spread = max(worst_spread, spread)
        ok = ok and spread <= 0.05
    checks.append(
        ClaimCheck(
            "Message bytes are nearly identical across approaches",
            ok,
            f"worst cross-protocol byte spread: {worst_spread * 100:.1f}%",
        )
    )

    ok = all(
        row["polling"].min_latency
        > max(row["invalidation"].min_latency, row["ttl"].min_latency)
        for _key, row in _triples(data)
    )
    checks.append(
        ClaimCheck(
            "Polling has the highest minimum response time "
            "(a server contact per request)",
            ok,
            "polling min latency highest in every experiment"
            if ok
            else "ordering broken in at least one experiment",
        )
    )

    ok = all(
        row["invalidation"].avg_latency <= row["ttl"].avg_latency * 1.05
        for _key, row in _triples(data)
    )
    checks.append(
        ClaimCheck(
            "Invalidation's average response time is similar to or lower "
            "than TTL's",
            ok,
            "holds (within 5%) in every experiment"
            if ok
            else "invalidation slower than TTL somewhere",
        )
    )

    ok = all(
        row["polling"].cpu_utilization
        >= max(row["invalidation"].cpu_utilization, row["ttl"].cpu_utilization)
        for _key, row in _triples(data)
    )
    checks.append(
        ClaimCheck(
            "Polling induces the highest server CPU utilisation",
            ok,
            "polling CPU highest in every experiment"
            if ok
            else "ordering broken in at least one experiment",
        )
    )

    violations = sum(
        row[p].violations
        for _key, row in _triples(data)
        for p in ("polling", "invalidation")
    )
    ttl_stale = sum(row["ttl"].stale_serves for _key, row in _triples(data))
    checks.append(
        ClaimCheck(
            "Strong protocols never serve stale data after write "
            "completion; only adaptive TTL returns stale documents",
            violations == 0,
            f"strong-protocol violations: {violations}; "
            f"adaptive TTL stale serves: {ttl_stale}",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _table1_rows() -> List[Tuple[str, str, str, str]]:
    """Recompute the Table 1 identities on the paper's example stream."""
    ops = parse_stream(PAPER_STREAM)
    counts = count_r_ri(ops)
    reads, intervals = counts.reads, counts.intervals
    events = timed_stream_from_ops(ops, spacing=3600.0)
    measured = {
        name: simulate_stream(events, name)
        for name in ("polling", "invalidation", "ttl")
    }
    bound = symbolic_counts("invalidation", reads, intervals).control_messages
    rows = [
        ("Read runs RI in the example stream", "4", str(intervals), "exact"),
        (
            "Polling control messages (2R - RI)",
            str(2 * reads - intervals),
            str(measured["polling"].control_messages),
            "exact",
        ),
        (
            "Invalidation control messages (<= 2 RI)",
            str(bound),
            str(measured["invalidation"].control_messages),
            "exact",
        ),
        (
            "Strong protocols' file transfers (= RI, the minimum)",
            str(intervals),
            f"{measured['polling'].file_transfers} / "
            f"{measured['invalidation'].file_transfers}",
            "exact",
        ),
        (
            "Adaptive TTL file transfers (RI - stale hits)",
            f"{intervals} - stale",
            f"{measured['ttl'].file_transfers} "
            f"(stale hits {intervals - measured['ttl'].file_transfers})",
            "identity",
        ),
    ]
    return rows


def _fmt_bytes(n: float) -> str:
    """Bytes -> human-readable KB/MB string."""
    if n >= 1_048_576:
        return f"{n / 1_048_576:.1f} MB"
    return f"{n / 1024:.0f} KB"


def render_report(data: ReportData) -> str:
    """Render one :class:`ReportData` as the ``RESULTS.md`` markdown."""
    scale = data.scale
    lines: List[str] = []
    add = lines.append

    add("# RESULTS — paper tables vs. this reproduction")
    add("")
    add(
        "Generated by `python -m repro report`.  Published *extensive* "
        f"quantities (request counts, modifications, storage) are scaled "
        f"by the run's workload scale (**{scale:g}**) before deltas are "
        "taken; latency/utilisation absolutes are modelled (the paper: "
        'its load numbers "are only meaningful for comparison purposes"), '
        "so cross-protocol *orderings* are checked instead — the claims "
        "checklist under Tables 3–4.  Known deviations are catalogued in "
        "[EXPERIMENTS.md](EXPERIMENTS.md)."
    )
    add("")

    # -- manifest ----------------------------------------------------------
    add("## Run manifest")
    add("")
    add("| Field | Value |")
    add("|---|---|")
    for key in (
        "git_sha",
        "seed",
        "scale",
        "points",
        "config_digest",
        "results_digest",
        "generated",
    ):
        if key in data.manifest:
            add(f"| {key} | `{data.manifest[key]}` |")
    add("")

    # -- table 1 -----------------------------------------------------------
    add("## Table 1 — analytical message model (exact)")
    add("")
    add(f"Example stream `{PAPER_STREAM}`, one event per hour.")
    add("")
    add("| Quantity | Paper | Ours | Status |")
    add("|---|---|---|---|")
    for quantity, paper, ours, status in _table1_rows():
        add(f"| {quantity} | {paper} | {ours} | {status} |")
    add("")

    # -- table 2 -----------------------------------------------------------
    add("## Table 2 — trace characteristics")
    add("")
    add(
        f"| Trace | Requests (paper×{scale:g} / ours / Δ) "
        f"| Files (paper×{scale:g} / ours / Δ) "
        "| Avg size (paper / ours / Δ) | Popularity max/mean (paper / ours) |"
    )
    add("|---|---|---|---|---|")
    seen = []
    for _table, trace_name, _days in data.experiments:
        if trace_name in seen or trace_name not in data.summaries:
            continue
        seen.append(trace_name)
        summary = data.summaries[trace_name]
        paper_req, paper_files, paper_kb, paper_pmax, paper_pmean = (
            PAPER_TABLE2[trace_name]
        )
        req_target = paper_req * scale
        files_target = paper_files * scale
        ours_kb = summary.avg_file_size / 1024.0
        pop = (
            f"{paper_pmax}/{paper_pmean:g} / "
            f"{summary.popularity_max}/{summary.popularity_mean:.1f}"
        )
        add(
            f"| {trace_name} "
            f"| {req_target:,.0f} / {summary.total_requests:,} / "
            f"{format_delta(summary.total_requests, req_target)} "
            f"| {files_target:,.0f} / {summary.num_files:,} / "
            f"{format_delta(summary.num_files, files_target)} "
            f"| {paper_kb:.0f} KB / {ours_kb:.1f} KB / "
            f"{format_delta(ours_kb, paper_kb)} "
            f"| {pop} |"
        )
    add("")
    if scale != 1.0:
        add(
            "Popularity columns are shown unscaled: sub-sampling a trace "
            "thins per-document client sets non-linearly, so they are only "
            "directly comparable at scale 1.0."
        )
        add("")

    # -- tables 3-4 --------------------------------------------------------
    add("## Tables 3–4 — trace replays (the paper's core result)")
    add("")
    for (trace_name, days), row in _triples(data):
        paper_mods = PAPER_FILES_MODIFIED.get((trace_name, days))
        any_result = row[REPORT_PROTOCOLS[0]]
        add(f"### {trace_name}, mean lifetime {days:g} days (Table "
            f"{[t for t, tr, d in data.experiments if tr == trace_name and d == days][0]})")
        add("")
        if paper_mods is not None:
            target = paper_mods * scale
            add(
                f"Files modified: paper {paper_mods} × {scale:g} = "
                f"{target:,.0f}, ours {any_result.files_modified} "
                f"({format_delta(any_result.files_modified, target)}); "
                f"{any_result.total_requests:,} requests replayed."
            )
            add("")
        add(
            "| Metric | polling | invalidation | ttl |"
        )
        add("|---|---|---|---|")
        metric_rows = [
            ("Messages", lambda r: f"{r.total_messages:,}"),
            ("Message Kbytes", lambda r: f"{r.message_bytes / 1024:,.0f}"),
            ("Avg response time (s)", lambda r: f"{r.avg_latency:.3f}"),
            ("Min response time (s)", lambda r: f"{r.min_latency:.3f}"),
            ("Max response time (s)", lambda r: f"{r.max_latency:.2f}"),
            ("Server CPU", lambda r: f"{r.cpu_utilization:.1%}"),
            ("Disk reads/s", lambda r: f"{r.disk_reads_per_sec:.2f}"),
            ("Disk writes/s", lambda r: f"{r.disk_writes_per_sec:.2f}"),
            ("Cache hits", lambda r: f"{r.hits:,}"),
            ("Stale serves", lambda r: f"{r.stale_serves:,}"),
            ("Violations", lambda r: f"{r.violations:,}"),
        ]
        for metric_name, fmt in metric_rows:
            cells = " | ".join(fmt(row[p]) for p in REPORT_PROTOCOLS)
            add(f"| {metric_name} | {cells} |")
        add("")

    add("### Section 5.2 claims checklist")
    add("")
    add("| Claim | Verdict | Evidence |")
    add("|---|---|---|")
    for check in evaluate_claims(data):
        verdict = "PASS" if check.ok else "FAIL"
        add(f"| {check.claim} | **{verdict}** | {check.evidence} |")
    add("")

    # -- table 5 -----------------------------------------------------------
    add("## Table 5 — invalidation costs")
    add("")
    add(
        f"| Experiment | Storage (paper×{scale:g} / ours / Δ) "
        "| Bytes per request (paper / ours) "
        "| Fan-out avg (s) | Fan-out max (s) |"
    )
    add("|---|---|---|---|---|")
    lo, hi = PAPER_BYTES_PER_REQUEST
    for (trace_name, days), row in _triples(data):
        inval = row["invalidation"]
        paper_storage = PAPER_SITELIST_STORAGE.get((trace_name, days))
        if paper_storage is None:
            continue
        target = paper_storage * scale
        per_request = (
            inval.sitelist_storage_bytes / inval.total_requests
            if inval.total_requests
            else 0.0
        )
        add(
            f"| {trace_name}-{days:g}d "
            f"| {_fmt_bytes(target)} / {_fmt_bytes(inval.sitelist_storage_bytes)} "
            f"/ {format_delta(inval.sitelist_storage_bytes, target)} "
            f"| {lo:g}–{hi:g} / {per_request:.1f} "
            f"| {inval.invalidation_time_avg:.3f} "
            f"| {inval.invalidation_time_max:.2f} |"
        )
    add("")
    add(
        "The shape the paper argues from: storage is small (tens of bytes "
        "per request) but the *maximum* fan-out time grows with the "
        "modification rate — the motivation for Section 6's two-tier "
        "leases."
    )
    add("")

    # -- cluster shard balance (only for sharded runs) ---------------------
    clustered = {
        label: result.cluster
        for label, result in sorted(data.results.items())
        if getattr(result, "cluster", None) is not None
    }
    if clustered:
        first = next(iter(clustered.values()))
        add("## Cluster shard balance")
        add("")
        add(
            f"Accelerator tier: {first['shards']} shards "
            f"(batch window {first['batch_window']:g}s, "
            f"batch cap {first['batch_max'] or 'none'}).  The imbalance "
            "ratio is max/mean requests routed per shard; 1.00 is a "
            "perfectly even consistent-hash split."
        )
        add("")
        add(
            "| Experiment | Imbalance | Handoffs | Batches | "
            "Invalidations batched | Busiest shard |"
        )
        add("|---|---|---|---|---|---|")
        for label, cluster in clustered.items():
            busiest = max(
                cluster["per_shard"].items(),
                key=lambda item: item[1]["requests_routed"],
            )
            add(
                f"| {label} | {cluster['imbalance_ratio']:.2f}x "
                f"| {cluster['handoffs']} "
                f"| {cluster['batches_delivered']} "
                f"| {cluster['batched_invalidations_delivered']} "
                f"| {busiest[0]} ({busiest[1]['requests_routed']} routed) |"
            )
        add("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --check smoke
# ---------------------------------------------------------------------------

#: Reduced matrix used by ``repro report --check``: the first row.
CHECK_EXPERIMENTS: Tuple[Tuple[int, str, float], ...] = REPORT_EXPERIMENTS[:1]


def check_report(
    out: Optional[object] = None, scale: float = 0.02, seed: int = 42
) -> int:
    """CI smoke: tiny synthetic matrix end to end; returns an exit code.

    Replays one trace under the three protocols at a very small scale,
    renders the full report, and asserts (a) every section is present,
    (b) the manifest is deterministic across two same-seed builds, and
    (c) the delta arithmetic is sane.  Prints one line per check.
    """
    import sys

    out = out or sys.stdout
    say = lambda line: print(line, file=out)  # noqa: E731
    data = collect_report(
        scale=scale, seed=seed, experiments=CHECK_EXPERIMENTS, git_sha="check"
    )
    text = render_report(data)
    problems: List[str] = []
    for heading in (
        "## Run manifest",
        "## Table 1",
        "## Table 2",
        "## Tables 3–4",
        "## Table 5",
        "claims checklist",
    ):
        if heading not in text:
            problems.append(f"missing section: {heading}")
    manifest_again = build_manifest(
        scale, seed, CHECK_EXPERIMENTS, data.results, git_sha="check"
    )
    if manifest_again != data.manifest:
        problems.append("manifest not deterministic for identical results")
    if delta_pct(110.0, 100.0) != 10.0 or delta_pct(1.0, 0.0) is not None:
        problems.append("delta arithmetic broken")
    if problems:
        for problem in problems:
            say(f"report check FAILED: {problem}")
        return 1
    say(
        f"report check OK: {len(data.results)} point(s) at scale "
        f"{scale:g}, {len(text.splitlines())} report lines, "
        f"manifest {data.manifest['results_digest']}"
    )
    return 0
