"""The repo benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run ``python3 -m bench run --seed S`` from the repo root (see README.md in
this directory).  The package lives outside ``src/`` and only *calls into*
``repro``; nothing under ``src/`` knows it exists.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


def ensure_repro_importable() -> None:
    """Put ``<repo>/src`` on ``sys.path`` (the benchmark's only build step).

    Raises :class:`FileNotFoundError` when the program under test is not
    there, so a checkout holding only the benchmark fails loudly instead of
    printing a result.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"program under test not found: {src / 'repro'} is missing"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
