"""Trace-level message prediction from the Section 3 model.

The paper's Table 1 analyses a single (client, document) pair.  This
module lifts that analysis to a whole trace: group the requests by
(client, document), interleave each group with the document's
modification schedule, run the exact per-pair protocol state machine
(:func:`repro.core.analysis.simulate_stream`), and sum.

The result predicts the message rows of Tables 3-4 from first principles
— no network, no server, no caching machinery — under the model's
idealisations (cache always has space; timing at trace resolution).  The
benchmark ``benchmarks/test_validation_model_vs_replay.py`` checks the
full replay against these predictions, which is a strong end-to-end
correctness argument for both the model and the testbed.

For adaptive TTL the prediction uses *trace-time* TTL dynamics while the
replay's TTLs run on the compressed testbed wall clock (as the paper's
did), so TTL predictions are indicative rather than tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..traces.record import Trace
from ..traces.stats import pair_streams
from ..workload.modifier import Modification
from .adaptive_ttl import AdaptiveTtlPolicy
from .analysis import MessageCounts, simulate_stream

__all__ = ["TracePrediction", "predict_message_counts", "pair_streams"]


@dataclass(frozen=True)
class TracePrediction:
    """Aggregated per-pair model counts for one protocol on one trace."""

    protocol: str
    pairs: int
    counts: MessageCounts

    @property
    def total_messages(self) -> int:
        return self.counts.total_messages


def _sum_counts(counts: Sequence[MessageCounts]) -> MessageCounts:
    return MessageCounts(
        gets=sum(c.gets for c in counts),
        ims=sum(c.ims for c in counts),
        replies_304=sum(c.replies_304 for c in counts),
        invalidations=sum(c.invalidations for c in counts),
        file_transfers=sum(c.file_transfers for c in counts),
        stale_hits=sum(c.stale_hits for c in counts),
        stale_serves=sum(c.stale_serves for c in counts),
    )


def predict_message_counts(
    trace: Trace,
    modifications: Sequence[Modification],
    protocol: str,
    ttl_policy: Optional[AdaptiveTtlPolicy] = None,
    initial_age: float = 0.0,
) -> TracePrediction:
    """Predict a protocol's message totals for a whole trace.

    Args:
        trace: the request trace.
        modifications: the modifier schedule the replay will use (build
            it with :func:`repro.workload.generate_schedule` and the same
            seed for apples-to-apples comparison).
        protocol: ``"polling"``, ``"invalidation"`` or ``"ttl"``.
        ttl_policy: adaptive-TTL parameters for ``"ttl"``.
        initial_age: document age at trace start (model idealisation).
    """
    streams = pair_streams(trace, modifications)
    per_pair = [
        simulate_stream(
            events, protocol, ttl_policy=ttl_policy, initial_age=initial_age
        )
        for events in streams.values()
    ]
    return TracePrediction(
        protocol=protocol,
        pairs=len(per_pair),
        counts=_sum_counts(per_pair),
    )
