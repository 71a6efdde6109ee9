"""Tests for span sinks and the Observation replay hooks (repro.obs)."""

import hashlib
import io
import json

import pytest

from repro.core import adaptive_ttl, invalidation, poll_every_time
from repro.obs import (
    Observation,
    Span,
    SpanSink,
    filter_spans,
    format_timeline,
    read_spans,
)
from repro.replay import ExperimentConfig, run_experiment
from repro.replay.serialize import result_to_dict
from repro.sim import RngRegistry
from repro.traces import generate_trace, profile


class TestSpanSink:
    def test_writes_jsonl(self):
        buf = io.StringIO()
        sink = SpanSink(buf)
        assert sink.emit("request", "/a", 1.0, 2.0, action="hit")
        sink.close()
        record = json.loads(buf.getvalue())
        assert record == {
            "kind": "request", "name": "/a", "start": 1.0, "end": 2.0,
            "action": "hit",
        }

    def test_sampling_is_deterministic_and_keeps_first(self):
        def run():
            buf = io.StringIO()
            sink = SpanSink(buf, sample=0.25)
            for i in range(100):
                sink.emit("request", f"/doc/{i}", float(i), float(i) + 1)
            sink.emit("run", "whole", 0.0, 100.0)
            return buf.getvalue(), sink.total_seen, sink.total_written

        first, seen, written = run()
        second, _, _ = run()
        assert first == second
        assert seen == 101
        assert written == 26  # ceil-stride: 25% of 100 + the lone run span
        # The first span of every kind survives any sampling rate.
        names = [json.loads(line)["name"] for line in first.splitlines()]
        assert "/doc/0" in names
        assert "whole" in names

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            SpanSink(io.StringIO(), sample=0.0)
        with pytest.raises(ValueError):
            SpanSink(io.StringIO(), sample=1.5)

    def test_owns_path(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = SpanSink(str(path))
        sink.emit("run", "x", 0.0, 1.0)
        sink.close()
        spans = list(read_spans(str(path)))
        assert len(spans) == 1
        assert spans[0].kind == "run"
        assert spans[0].duration == 1.0


class TestFilterAndFormat:
    def build(self):
        return [
            Span("request", "/a", 1.0, 2.0, {"action": "hit"}),
            Span("request", "/b", 5.0, 9.0, {"action": "miss"}),
            Span("invalidation", "/a", 6.0, 6.5, {"sites": 3}),
        ]

    def test_filter_kind(self):
        spans = filter_spans(self.build(), kind="invalidation")
        assert [s.name for s in spans] == ["/a"]

    def test_filter_contains_matches_name_and_attrs(self):
        spans = self.build()
        assert [s.name for s in filter_spans(spans, contains="/b")] == ["/b"]
        assert [
            s.name for s in filter_spans(spans, contains="action=miss")
        ] == ["/b"]

    def test_filter_window_and_duration(self):
        spans = self.build()
        assert len(filter_spans(spans, since=4.0)) == 2
        assert len(filter_spans(spans, until=4.0)) == 1
        assert len(filter_spans(spans, min_duration=1.0)) == 2

    def test_format_timeline_orders_and_limits(self):
        text = format_timeline(self.build(), limit=2)
        lines = text.splitlines()
        assert "/a" in lines[0]
        assert "more span(s)" in lines[-1]
        assert format_timeline([], limit=5) == "(no spans matched)"


def _trace():
    return generate_trace(profile("EPA").scaled(0.02), RngRegistry(seed=3))


def _config(trace, factory=invalidation, **kwargs):
    return ExperimentConfig(
        trace=trace,
        protocol=factory(),
        mean_lifetime=7 * 86400.0,
        seed=11,
        **kwargs,
    )


def _comparable(result) -> dict:
    data = result_to_dict(result)
    data.pop("wall_seconds", None)
    data.pop("timestamp", None)
    return data


class TestObservationIntegration:
    def test_observed_run_identical_to_unobserved(self):
        trace = _trace()
        plain = _comparable(run_experiment(_config(trace)))
        obs = Observation(sink=SpanSink(io.StringIO()))
        observed = _comparable(
            run_experiment(_config(trace, observation=obs))
        )
        obs.close()
        assert observed == plain

    def test_registry_agrees_with_result(self):
        trace = _trace()
        obs = Observation()
        result = run_experiment(_config(trace, observation=obs))
        obs.close()
        reg = obs.registry
        assert reg.total("requests", protocol="invalidation") == (
            result.total_requests
        )
        hits = reg.total(
            "requests", protocol="invalidation", action="hit"
        )
        assert hits == result.hits
        assert reg.value(
            "result_total_messages",
            protocol="invalidation",
            trace=trace.name,
        ) == result.total_messages
        # The per-category wire accounting is folded in too.
        assert reg.total("net_messages") == result.total_messages

    def test_spans_cover_every_request(self):
        trace = _trace()
        sink = SpanSink(io.StringIO())
        obs = Observation(sink=sink)
        result = run_experiment(_config(trace, observation=obs))
        obs.close()
        assert sink.counts["request"] == result.total_requests
        assert sink.counts["run"] == 1
        # One span per fan-out (a fan-out notifies several sites, so the
        # per-site invalidation message count is an upper bound).
        assert 0 < sink.counts["invalidation"] <= result.invalidations_sent
        assert sink.counts["invalidation"] == obs.registry.total(
            "invalidation_fanouts"
        )

    def test_phases_derived_not_scheduled(self):
        trace = _trace()
        buf = io.StringIO()
        obs = Observation(sink=SpanSink(buf))
        run_experiment(_config(trace, observation=obs))
        obs.close()
        buf.seek(0)
        phases = {
            span.attrs["phase"]
            for span in read_spans(buf)
            if span.kind == "request"
        }
        assert "warmup" in phases
        assert "steady" in phases

    def test_polling_run_has_no_fanouts(self):
        trace = _trace()
        obs = Observation()
        run_experiment(_config(trace, factory=poll_every_time,
                               observation=obs))
        obs.close()
        assert obs.registry.total("invalidation_fanouts") == 0

    def test_deep_mode_publishes_kernel_events(self):
        trace = _trace()
        obs = Observation(deep=True)
        plain = _comparable(run_experiment(_config(trace)))
        observed = _comparable(
            run_experiment(_config(trace, observation=obs))
        )
        obs.close()
        # Deep tracing counts every kernel event but must not change the
        # simulation outcome.
        assert observed == plain
        assert obs.tracer is not None
        assert obs.tracer.total > 0
        assert obs.registry.total("sim_events") == obs.tracer.total

    def test_observation_binds_once(self):
        trace = _trace()
        obs = Observation()
        run_experiment(_config(trace, observation=obs))
        with pytest.raises(ValueError):
            run_experiment(_config(trace, observation=obs))


#: SHA-256 of ``registry.to_dict()`` (sorted, compact JSON) and of the
#: span stream of one observed replay per case.  The golden digests hash
#: results only; these pin what an observation records, so a change to
#: how the replay's hooks are bound must leave both byte-identical.
OBSERVATION_PINS = {
    "invalidation": (
        "bc3362039547d0669227ac497eafd4cfef9c456bfb69219c848a7fab82f9459d",
        "dccc79147115e876eb65569ea34a6b4c8344bcaa692fdacf5ac03f7f8657d586",
    ),
    "adaptive-ttl": (
        "de6b93b438070b98f8694d8934219e134403c12b4a3055c412f3c824abd01f68",
        "c9bcd4f2d255a22a2cdd2aab11ce3ee07a8fd8288d3c410231fb44ac004aceb3",
    ),
    "invalidation-shards4-window1": (
        "7ac5b22ecad18bd4a2bc173aa8e8745d1b8282e0f649e281afa14acf0e0f3d8c",
        "fd00db3bc23f88fb70ee12154f3b260168b3f0474b72e2e86d0a9b7b8c7bde0c",
    ),
}

_PIN_CONFIGS = {
    "invalidation": (invalidation, {}),
    "adaptive-ttl": (adaptive_ttl, {}),
    "invalidation-shards4-window1": (
        invalidation, {"shards": 4, "batch_window": 1.0, "batch_max": 32}
    ),
}


@pytest.mark.parametrize("case", sorted(OBSERVATION_PINS))
def test_observation_output_is_pinned(case):
    factory, overrides = _PIN_CONFIGS[case]
    buf = io.StringIO()
    sink = SpanSink(buf)
    obs = Observation(sink=sink)
    result = run_experiment(
        _config(_trace(), factory=factory, observation=obs, **overrides)
    )
    obs.close()
    # Each case reaches the hook it pins: stale serves on the weak run,
    # fan-outs from every shard's listener on the sharded one.
    if case == "adaptive-ttl":
        assert result.stale_serves > 0
    else:
        assert sink.counts["invalidation"] > 0
    registry = json.dumps(
        obs.registry.to_dict(), sort_keys=True, separators=(",", ":")
    )
    assert (
        hashlib.sha256(registry.encode()).hexdigest(),
        hashlib.sha256(buf.getvalue().encode()).hexdigest(),
    ) == OBSERVATION_PINS[case]
