"""Per-layer self time of the program, measured with ``cProfile``.

A layer is a subpackage of ``repro`` (``sim``, ``net``, ``proxy``, ...).
A Python function's self time goes to the layer its file lives in.  Time
in a built-in (``heapq.heappush``, ``dict.get``, ...) goes to the layer of
the function that called it, split by the profiler's per-caller record,
so a layer's figure includes the C calls it makes.  Every file of
``repro`` belongs to a layer: files outside the subpackages named in
``LAYERS`` (``api.py``, ``chaos``, ``obs``, ...) go to ``other``, so the
layers add up to all of the program's own time.  Python code outside
``repro`` (the standard library, the benchmark itself) is left out.

``cProfile`` adds a fixed cost to every Python call, so these figures are
inflated relative to an unprofiled replay and favour layers that make few
calls; compare them only with other profiled runs of this benchmark.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Any, Callable, Dict, Optional

#: ``repro`` subpackage -> reported layer.  ``metrics`` and ``workload``
#: are the replay driver's counters and modification schedule;
#: ``metering`` is the origin server's usage ledger.  Any other file of
#: ``repro`` goes to ``OTHER``.
OTHER = "other"
LAYERS: Dict[str, str] = {
    "sim": "sim",
    "net": "net",
    "http": "http",
    "proxy": "proxy",
    "server": "server",
    "metering": "server",
    "core": "core",
    "replay": "replay",
    "metrics": "replay",
    "workload": "replay",
}


class LayerProfiler:
    """Profiles calls and attributes their self time to program layers."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = str(package_root.resolve())
        self.stats: Optional[pstats.Stats] = None

    def profile(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the profiler and fold its stats in."""
        profiler = cProfile.Profile()
        result = profiler.runcall(fn)
        if self.stats is None:
            self.stats = pstats.Stats(profiler)
        else:
            self.stats.add(profiler)
        return result

    def _layer(self, func: tuple) -> Optional[str]:
        filename = func[0]
        if not filename.startswith(self.package_root):
            return None
        parts = Path(filename[len(self.package_root):].lstrip("/")).parts
        return LAYERS.get(parts[0], OTHER) if len(parts) > 1 else OTHER

    def layer_metrics(self, requests: int) -> Dict[str, float]:
        """``<layer>_self_ms`` per 1000 requests, and kernel events/request.

        ``requests`` is the number of requests replayed by all the
        profiled calls together.
        """
        self_s = {layer: 0.0 for layer in {*LAYERS.values(), OTHER}}
        events = 0
        for func, (_cc, nc, tt, _ct, callers) in self.stats.stats.items():
            if func[0] == "~":
                for caller, caller_stats in callers.items():
                    layer = self._layer(caller)
                    if layer is not None:
                        self_s[layer] += caller_stats[2]
                continue
            layer = self._layer(func)
            if layer is None:
                continue
            self_s[layer] += tt
            if layer == "sim" and func[2] == "step" and func[0].endswith("core.py"):
                events += nc
        metrics = {
            f"{layer}_self_ms": s * 1000.0 * 1000.0 / requests
            for layer, s in self_s.items()
        }
        metrics["kernel_events_per_request"] = events / requests
        return metrics
