"""Synthetic trace generation calibrated to the paper's workloads.

The generator draws, per request, a client site (Zipf activity), a
document (Zipf popularity) and a timestamp (Poisson process with diurnal
modulation), which reproduces the workload statistics the consistency
protocols are sensitive to: per-document request interleaving, popularity
skew (Table 2's max/mean distinct clients per document), and per-client
revisit behaviour (which drives proxy cache hits).

Document sizes are lognormal around the profile's mean size, matching the
heavy-tailed size distributions of the original server logs.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Dict, List

from ..sim import RngRegistry
from .catalog import TraceProfile
from .record import Trace, TraceRecord
from .zipf import ZipfSampler

__all__ = ["generate_trace", "client_id"]

#: Lognormal shape parameter for document sizes.
_SIZE_SIGMA = 1.4
#: Smallest generated document.
_MIN_DOC_BYTES = 128


def document_url(index: int) -> str:
    """Canonical URL for the index-th document."""
    return f"/doc/{index:05d}.html"


def client_id(index: int) -> str:
    """Canonical id for the index-th client site."""
    return f"client-{index:05d}"


def _document_sizes(profile: TraceProfile, rng: random.Random) -> List[int]:
    """Lognormal sizes whose sample mean is pinned to the profile mean."""
    mu = math.log(profile.mean_file_size) - _SIZE_SIGMA**2 / 2.0
    sizes = [
        max(_MIN_DOC_BYTES, int(rng.lognormvariate(mu, _SIZE_SIGMA)))
        for _ in range(profile.num_files)
    ]
    # Rescale so the realised mean matches the profile exactly; the paper's
    # byte totals depend on it.
    scale = profile.mean_file_size * profile.num_files / sum(sizes)
    return [max(_MIN_DOC_BYTES, int(s * scale)) for s in sizes]


def _diurnal_cdf(profile: TraceProfile, bins: int = 288) -> List[float]:
    """CDF of request arrival time over the trace duration.

    Rate follows ``1 + a*sin(...)`` with a 24-hour period (floored at a
    small positive value), giving the day/night swing visible in the
    original logs.
    """
    amplitude = min(max(profile.diurnal_amplitude, 0.0), 0.95)
    step = profile.duration / bins
    weights = []
    for i in range(bins):
        t = (i + 0.5) * step
        rate = 1.0 + amplitude * math.sin(2.0 * math.pi * t / 86400.0 - math.pi / 2)
        weights.append(max(rate, 0.05))
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def _sample_times(
    profile: TraceProfile, rng: random.Random, count: int
) -> List[float]:
    cdf = _diurnal_cdf(profile)
    bins = len(cdf)
    step = profile.duration / bins
    times = []
    for _ in range(count):
        u = rng.random()
        idx = bisect.bisect_left(cdf, u)
        lo = cdf[idx - 1] if idx > 0 else 0.0
        hi = cdf[idx]
        frac = (u - lo) / (hi - lo) if hi > lo else rng.random()
        times.append((idx + frac) * step)
    times.sort()
    return times


def generate_trace(profile: TraceProfile, rng: RngRegistry) -> Trace:
    """Generate a synthetic trace for ``profile``.

    Deterministic for a given registry seed: document sizes, the
    popularity permutation, timestamps and the request sequence each draw
    from their own named stream.
    """
    size_rng = rng.stream(f"trace:{profile.name}:sizes")
    time_rng = rng.stream(f"trace:{profile.name}:times")
    pick_rng = rng.stream(f"trace:{profile.name}:picks")

    sizes = _document_sizes(profile, size_rng)
    # One string per document and per client: records and ``documents``
    # keys reference these objects instead of formatting a copy each.
    urls = [document_url(i) for i in range(profile.num_files)]
    clients = [client_id(i) for i in range(profile.num_clients)]
    documents: Dict[str, int] = dict(zip(urls, sizes))

    # Popularity rank is independent of document index (so document size
    # and popularity are uncorrelated, as in real logs to first order).
    doc_by_rank = list(range(profile.num_files))
    pick_rng.shuffle(doc_by_rank)
    url_by_rank = [urls[i] for i in doc_by_rank]
    pick_doc = ZipfSampler(profile.num_files, profile.doc_alpha, pick_rng).sample
    pick_client = ZipfSampler(profile.num_clients, profile.client_alpha, pick_rng).sample

    times = _sample_times(profile, time_rng, profile.total_requests)
    rand, randrange = pick_rng.random, pick_rng.randrange
    revisit_prob = profile.revisit_prob
    history: List[List[str]] = [[] for _ in clients]
    records = []
    for t in times:
        client = pick_client()
        seen = history[client]
        if seen and rand() < revisit_prob:
            # Temporal locality: the client re-reads something it already
            # fetched (weighted towards its frequent documents because the
            # history list keeps duplicates).
            url = seen[randrange(len(seen))]
        else:
            url = url_by_rank[pick_doc()]
        seen.append(url)
        records.append(TraceRecord(t, clients[client], url))
    return Trace(
        name=profile.name,
        records=records,
        documents=documents,
        duration=profile.duration,
    )
