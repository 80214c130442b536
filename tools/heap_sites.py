"""What a benchmark workload keeps on the heap, and where it came from.

``make ledger-heap WORKLOAD=<name> [SEED=1]``

Runs one round of one workload of BENCHMARK.json -- the benchmark's own
``run_round``, imported read-only -- in this process, and starts
``tracemalloc`` when the round's timed window opens.  When the window
closes it prints the traced peak, the heap still live, the allocation
sites holding most of that live heap, the number of block images that
nothing holds but a redo memo (``repro.core.records.apply_redo``): history
every version chain has already collected, kept alive by the record that
made it, and the live image bytes per block kind (status page, leaf,
internal, META) over the writer caches and the segment chains, so that a
memory claim names the kind it came from.

This is the memory counterpart of ``make ledger-events``: for deciding
where to look, not for claims.  ``tracemalloc`` sees Python allocations
only, makes the round several times slower, and starts at the window, so
what set-up allocated (the cluster, a preload) counts only where it is
still live at the end.  Claims on memory are made on ``peak_rss_mb``
through ``make ledger-pairs``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

import bench  # noqa: E402 - needs the repo root on sys.path

bench.ensure_repro_importable()

from bench.workloads import WORKLOADS  # noqa: E402
from repro.core.records import LogRecord, Overlay  # noqa: E402
from repro.db.cluster import AuroraCluster  # noqa: E402
from repro.db.instance import WriterInstance  # noqa: E402

TOP_SITES = 15
MB = 1024 * 1024


def memo_only_images(records=None) -> list:
    """The images in ``records``' redo memos that nothing else refers to.

    ``records`` defaults to every :class:`LogRecord` on the heap.  An image
    counts when each reference to it is a slot of some memo's ``(base,
    image)`` pair, which its reference count tells once those slots are
    counted.
    """
    if records is None:
        records = [obj for obj in gc.get_objects() if type(obj) is LogRecord]
    memos = [getattr(record, "_applied", None) for record in records]
    memos = [memo for memo in memos if memo is not None]
    slots: dict[int, int] = {}
    for memo in memos:
        for image in memo:
            slots[id(image)] = slots.get(id(image), 0) + 1
    # What ``getrefcount`` adds on its own: a dict held by one local
    # reads as this much more than one.
    probe = {}
    extra = sys.getrefcount(probe) - 1
    only = []
    seen = set()
    for memo in memos:
        for image in memo:
            key = id(image)
            if key in seen:
                continue
            seen.add(key)
            # The memo slots, plus the loop's own ``image``.
            if sys.getrefcount(image) - extra == slots[key] + 1:
                only.append(image)
    return only


BLOCK_KINDS = ("status page", "leaf", "internal", "META")


def block_kind(block: int, image, status_pages) -> str:
    """The kind of ``block``: META, a page of the status-page directory
    ``status_pages``, or what the image's ``"type"`` says."""
    if block == WriterInstance.META_BLOCK:
        return "META"
    if block in status_pages:
        return "status page"
    return "internal" if image.get("type") == "internal" else "leaf"


def image_bytes_by_kind(clusters) -> dict[str, list[int]]:
    """``[images, objects, bytes]`` per block kind over the writer caches
    and the segment chains of ``clusters``.  Each object is counted once
    (by ``id``) at its shallow size: every :class:`Overlay` node of an
    image's chain and the mapping at its root, so where versions share
    their predecessors a kind shows more objects than images."""
    totals = {kind: [0, 0, 0] for kind in BLOCK_KINDS}
    images: set[int] = set()
    seen: set[int] = set()
    for cluster in clusters:
        writer = cluster.writer
        status_pages = set(writer._txn_pages)
        held = [
            (block, writer.cache.peek(block).image)
            for block in writer.cache.blocks()
        ]
        for node in cluster.nodes.values():
            for block, chain in node.segment.blocks.items():
                held.extend((block, v.image) for v in chain.versions)
        for block, image in held:
            if id(image) in images:
                continue
            images.add(id(image))
            total = totals[block_kind(block, image, status_pages)]
            total[0] += 1
            while id(image) not in seen:
                seen.add(id(image))
                total[1] += 1
                total[2] += sys.getsizeof(image)
                if type(image) is not Overlay:
                    break
                image = image.base
    return totals


class HeapWindow:
    """Stands where a workload takes its tracer, wraps nothing and opens no
    spans: it starts ``tracemalloc`` when the timed window opens and takes
    its measurements when the window closes.  ``clusters`` are the worlds
    the round builds, which it captures from ``AuroraCluster.build``."""

    def __init__(self, clusters: list) -> None:
        self.live = self.peak = 0
        self.snapshot = None
        self.memo_only: list = []
        self.clusters = clusters
        self.by_kind: dict[str, list[int]] = {}

    def start_window(self) -> None:
        tracemalloc.start()

    def end_window(self) -> None:
        self.live, self.peak = tracemalloc.get_traced_memory()
        self.snapshot = tracemalloc.take_snapshot().filter_traces(
            (tracemalloc.Filter(False, tracemalloc.__file__),)
        )
        tracemalloc.stop()
        self.memo_only = memo_only_images()
        self.by_kind = image_bytes_by_kind(self.clusters)

    def wrap(self, function, layer: str, name: str):
        return function

    def generator_spans(self, generator, layer: str, name: str, txn=None):
        return generator


def site(frame) -> str:
    path = Path(frame.filename)
    if path.is_relative_to(REPO_ROOT):
        path = path.relative_to(REPO_ROOT)
    return f"{path}:{frame.lineno}"


def report(name, seed, scale, result, window: HeapWindow) -> None:
    print(
        f"{name}: seed {seed}, scale {scale:g}: {result.ops} ops, "
        f"window {result.timed_s:.2f}s host under tracemalloc"
    )
    print(
        f"traced peak {window.peak / MB:.1f} MB, "
        f"live at the end of the window {window.live / MB:.1f} MB"
    )
    shallow = sum(sys.getsizeof(image) for image in window.memo_only)
    print(
        f"images held only by a redo memo: {len(window.memo_only)} "
        f"({shallow / MB:.1f} MB shallow)"
    )
    print(
        "live image bytes by block kind (writer caches and segment "
        "chains, each object once):"
    )
    print(f"{'MB':>8}{'images':>10}{'objects':>10}  kind")
    for kind, (images, objects, size) in window.by_kind.items():
        print(f"{size / MB:>8.2f}{images:>10}{objects:>10}  {kind}")
    print(f"top {TOP_SITES} allocation sites live at the end of the window:")
    print(f"{'MB':>8}{'blocks':>10}  site")
    for stat in window.snapshot.statistics("lineno")[:TOP_SITES]:
        print(
            f"{stat.size / MB:>8.2f}{stat.count:>10}  "
            f"{site(stat.traceback[0])}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=known)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the round (the smoke test uses 0.02)")
    args = parser.parse_args(argv)
    clusters: list = []
    build = vars(AuroraCluster)["build"]

    def capturing(cls, *args, **kwargs):
        cluster = build.__func__(cls, *args, **kwargs)
        clusters.append(cluster)
        return cluster

    window = HeapWindow(clusters)
    AuroraCluster.build = classmethod(capturing)
    try:
        result = WORKLOADS[args.workload].run_round(
            args.seed, args.scale, tracer=window
        )
    finally:
        AuroraCluster.build = build
    if window.snapshot is None:
        print("the round never closed a timed window")
        return 1
    report(args.workload, args.seed, args.scale, result, window)
    for error in result.check_errors:
        print(f"output check failed: {error}")
    return 1 if result.check_errors else 0


if __name__ == "__main__":
    sys.exit(main())
