"""Synthetic OLTP workload generation.

Deterministic (seeded) generators producing operation streams against the
key/value-over-B-tree schema the kernel exposes: read/write mixes, Zipfian
hot keys, multi-statement transactions, and open/closed-loop client
drivers for latency and jitter measurements.
"""

from repro.workloads.generator import (
    Operation,
    OpKind,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadRunner,
    percentile,
)
from repro.workloads.profiles import PROFILES, profile
from repro.workloads.sessions import (
    SessionScaleConfig,
    SessionScaleStats,
    SessionScaleWorkload,
)

__all__ = [
    "Operation",
    "OpKind",
    "PROFILES",
    "SessionScaleConfig",
    "SessionScaleStats",
    "SessionScaleWorkload",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadRunner",
    "percentile",
    "profile",
]
