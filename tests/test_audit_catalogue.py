"""Every check in the invariant catalogue is proven to fire.

DESIGN.md section 6 promises that each audited invariant is shown to fire
when its guard is broken.  This test holds docs/AUDIT.md's catalogue to
that promise: every invariant name in it is named by some other test in
``tests/`` (the planted-bug suites: ``test_audit_detects_bugs.py``,
``test_history.py``, ...), or is listed in ``UNPLANTED`` with the reason
no test plants it yet.  Planting one means deleting its entry here.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Catalogue names no test plants yet, each with why.
UNPLANTED = {
    "vcl-monotonic": "no test feeds Auditor.on_volume_points a VCL below "
    "its floor yet",
    "vdl-monotonic": "no test feeds Auditor.on_volume_points a VDL below "
    "its floor yet",
    "geo-applied-ahead-of-primary": "GeoApplier._flush gates submission "
    "on the primary's VDL; no test plants an applier without the gate",
    "geo-stale-primary-ack": "no test plants a primary whose lease "
    "self-fence misses the promotion",
    "geo-promoted-epoch-not-dominant": "no test plants a promotion that "
    "skips the primary's epoch stamps",
    "integrity-corrupt-served": "no test plants a read path that serves a "
    "version with an open corruption",
}


def catalogue() -> list[str]:
    """The invariant names of docs/AUDIT.md's catalogue table, in order."""
    text = (REPO_ROOT / "docs/AUDIT.md").read_text()
    table = text.split("## The invariant catalogue", 1)[1].split("\n## ")[0]
    return [
        name
        for line in table.splitlines()
        if line.startswith("| `")
        for name in re.findall(r"`([a-z0-9-]+)`", line.split("|")[1])
    ]


def _named_by_tests() -> str:
    here = Path(__file__).resolve()
    return "".join(
        path.read_text()
        for path in sorted((REPO_ROOT / "tests").glob("*.py"))
        if path.resolve() != here
    )


def test_every_catalogue_invariant_is_planted_or_listed():
    names = catalogue()
    assert len(names) == len(set(names)) >= 30
    tests = _named_by_tests()
    unplanted = [
        name for name in names if name not in tests and name not in UNPLANTED
    ]
    assert unplanted == []


def test_unplanted_lists_only_catalogue_names_no_test_plants():
    names, tests = catalogue(), _named_by_tests()
    assert len(UNPLANTED) <= 8
    assert all(name in names for name in UNPLANTED)
    assert [name for name in UNPLANTED if name in tests] == []
