"""``repro.obs`` — the observability and paper-fidelity reporting layer.

Three pieces, each usable on its own:

* :class:`MetricsRegistry` (:mod:`repro.obs.registry`) — named, labelled
  counter/gauge/timer series unifying the scattered ``repro.metrics`` /
  ``repro.net`` accounting, with no-op handles (:data:`NULL_REGISTRY`)
  so instrumented code costs nothing measurable when observation is off.
* :class:`SpanSink` / :class:`Span` (:mod:`repro.obs.spans`) — a JSONL
  event-trace of the request lifecycle (client → proxy → accelerator →
  invalidate fan-out) with deterministic sampling, browsable via
  ``python -m repro trace``.
* :func:`collect_report` / :func:`render_report`
  (:mod:`repro.obs.report`) — the five-trace × three-protocol matrix
  rendered side-by-side with the paper's published numbers as
  ``RESULTS.md`` (``python -m repro report``).

:class:`Observation` binds the first two to one replay run::

    from repro.obs import Observation, SpanSink

    obs = Observation(sink=SpanSink("spans.jsonl", sample=0.5))
    result = run_experiment(ExperimentConfig(..., observation=obs))
    obs.close()
    print(obs.registry.render())

Observing never changes the run: a plain :class:`Observation` records
from seams every replay already passes through (the per-request
counters call, the fan-out timer), so observed runs are bit-identical
to unobserved ones.  ``Observation(deep=True)`` also attaches a kernel
event tracer, which counts every processed event on the same single
request route (slower, same events).
"""

from .observe import Observation, capture_result
from .registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    Timer,
)
from .report import (
    REPORT_EXPERIMENTS,
    REPORT_PROTOCOLS,
    ClaimCheck,
    ReportData,
    build_manifest,
    check_report,
    collect_report,
    delta_pct,
    experiment_label,
    format_delta,
    load_checkpoint_results,
    render_report,
)
from .spans import Span, SpanSink, filter_spans, format_timeline, read_spans

__all__ = [
    # registry
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Timer",
    # spans
    "Span",
    "SpanSink",
    "read_spans",
    "filter_spans",
    "format_timeline",
    # observation
    "Observation",
    "capture_result",
    # reporting
    "ReportData",
    "ClaimCheck",
    "REPORT_EXPERIMENTS",
    "REPORT_PROTOCOLS",
    "experiment_label",
    "delta_pct",
    "format_delta",
    "build_manifest",
    "collect_report",
    "load_checkpoint_results",
    "render_report",
    "check_report",
]
