"""``python3 -m bench compare A.json B.json``: one row per workload x metric.

Host metrics are judged against the bound ``BENCHMARK.json`` fixes (the
per-layer ones have none and are shown for the trace).  Where the rounds
of either run spread wider than the bound the row says ``unresolved``,
not ``ok``.  Simulated metrics and counts must be exactly equal for the
same seed and code, so for them the row says ``identical`` or ``changed``;
a changed one is also held to its bound.
"""

from __future__ import annotations

import json

from bench.metrics import HOST_METRICS, load_spec, quartiles


def _round_spread(record: dict, metric: str) -> float | None:
    """Quartile distance over median of ``host_us_per_op`` across a run's
    rounds (the one bounded metric that is a median over rounds)."""
    if metric != "host_us_per_op" or len(record["rounds"]) < 4:
        return None
    q1, q2, q3 = quartiles(r[metric] for r in record["rounds"])
    return (q3 - q1) / q2 if q2 else None


def _verdict(name, declared, before, after, spreads) -> tuple[float, str]:
    if before:
        change = (after - before) / before
    else:
        change = 0.0 if after == before else float("inf")
    worse = -change if declared["better"] == "higher" else change
    bound = declared.get("bound")
    if name not in HOST_METRICS:
        if after == before:
            return change, "identical"
        if bound is not None and worse > bound:
            return change, "regressed"
        return change, "changed"
    if bound is None:
        return change, "-"
    if any(s is not None and s > bound for s in spreads):
        return change, "unresolved"
    return change, "regressed" if worse > bound else "ok"


def compare_files(before_path: str, after_path: str, exact: bool) -> int:
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    spec = load_spec()
    regressed = changed = 0
    if before.get("seed") != after.get("seed"):
        print(
            f"note: seeds differ ({before.get('seed')} vs {after.get('seed')})"
            "; simulated metrics are not expected to be identical"
        )
    header = (
        f"{'metric':<44} {'before':>14} {'after':>14} {'change':>9} "
        f"{'bound':>6}  verdict"
    )
    for workload, b_entry in before["workloads"].items():
        a_entry = after["workloads"].get(workload, {})
        print(f"\n== {workload}\n{header}")
        for section in ("end_to_end", "per_layer"):
            b_record, a_record = b_entry.get(section), a_entry.get(section)
            if b_record is None or a_record is None:
                continue
            for declared in spec[section]:
                name = declared["name"]
                b_value = b_record["metrics"][name]["value"]
                a_value = a_record["metrics"][name]["value"]
                spreads = (
                    _round_spread(b_record, name), _round_spread(a_record, name)
                )
                change, verdict = _verdict(
                    name, declared, b_value, a_value, spreads
                )
                regressed += verdict == "regressed"
                if name not in HOST_METRICS and verdict != "identical":
                    changed += 1
                bound = declared.get("bound")
                bound_text = "" if bound is None else format(bound, ".0%")
                print(
                    f"{name:<44} {b_value:>14.4f} {a_value:>14.4f} "
                    f"{change:>+8.2%} {bound_text:>6}  {verdict}"
                )
            b_counts = b_record["repeatable_counts"]
            a_counts = a_record["repeatable_counts"]
            for key, b_count in b_counts.items():
                if b_count != a_counts[key]:
                    changed += 1
                    print(
                        f"{section} {key}: {b_count} -> {a_counts[key]}  changed"
                    )
            if a_counts["failed"] > b_counts["failed"]:
                regressed += 1
                print(f"{section}: more operations failed  regressed")
    print(
        f"\nsimulated metrics and counts: "
        f"{'all identical' if not changed else f'{changed} changed'}; "
        f"{regressed} regressed"
    )
    return 1 if regressed or (exact and changed) else 0
