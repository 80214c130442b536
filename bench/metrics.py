"""Metric declarations and the small statistics both passes share.

``BENCHMARK.json`` is the one place a metric's unit, direction and bound
are written down; this module reads it.  Two clocks: *simulated* metrics
(``*_ms``, ``sim_*``, every count and share) describe the modelled Aurora
and are bit-identical for the same seed and code; *host* metrics
(:data:`HOST_METRICS`) describe the simulator as its users feel it and
carry sandbox noise.
"""

from __future__ import annotations

import json
import statistics

from bench import SPEC_PATH
from bench.trace import LAYERS, ROOT_LAYER


def self_time_metric(layer: str) -> str:
    """Name of a layer's self-time metric (the root layer is the load
    generator's own cost, which readers subtract)."""
    if layer == ROOT_LAYER:
        return "workloads.gen_self_us_per_op"
    return f"{layer}.self_us_per_op"


#: Metrics measured on the host clock (or host memory).  Every other
#: declared metric is simulated and must repeat exactly for a seed.
HOST_METRICS = frozenset(
    {
        "setup_s",
        "host_us_per_op",
        "peak_rss_mb",
        "sim.events.host_us_per_event",
        "audit.auditor.armed_overhead_ratio",
        "workloads.host_us_per_op_growth",
        "trace.overhead_ratio",
    }
    | {self_time_metric(layer) for layer in LAYERS}
)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        value = values[0] if values else 0.0
        return (value, value, value)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)
