"""Smoke test of the benchmark itself.

Run with ``python -m pytest bench -q`` from the repo root.  Tier-1 does not
collect it (``testpaths = ["tests"]``).  Every workload runs at
``--scale 0.02``; the whole file takes well under 15 s.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import REPO_ROOT, ensure_repro_importable

ensure_repro_importable()

from bench import workloads  # noqa: E402
from bench.metrics import HOST_METRICS, load_spec  # noqa: E402
from bench.trace import entry_points  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SCALE = "0.02"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(workload: str, seed: int, trace: int) -> dict:
    """One contract-style invocation; returns the parsed last line."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--rounds", "2", "--trace", str(trace),
         "--scale", SCALE],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    return line


@pytest.fixture(scope="module")
def lines():
    """Per workload: two same-seed end-to-end runs, one with another seed,
    and one traced run."""
    return {
        name: {
            "a": run_cli(name, 11, 0),
            "b": run_cli(name, 11, 0),
            "other": run_cli(name, 12, 0),
            "traced": run_cli(name, 11, 1),
        }
        for name in WORKLOADS
    }


def test_spec_names_are_well_formed_and_cover_the_workloads():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_every_declared_metric_is_emitted_with_its_unit(lines):
    spec = load_spec()
    for name, runs in lines.items():
        for key, section in (("a", "end_to_end"), ("traced", "per_layer")):
            emitted = runs[key]["metrics"]
            assert list(emitted) == [m["name"] for m in spec[section]], name
            for declared in spec[section]:
                metric = emitted[declared["name"]]
                assert metric["unit"] == declared["unit"]
                assert isinstance(metric["value"], (int, float))
        for metric in spec["end_to_end"]:
            assert runs["a"]["metrics"][metric["name"]]["value"] > 0, (
                name, metric["name"],
            )


def test_simulated_metrics_repeat_for_a_seed_and_move_with_it(lines):
    for name, runs in lines.items():
        simulated = [m for m in runs["a"]["metrics"] if m not in HOST_METRICS]
        assert simulated
        for metric in simulated:
            assert (
                runs["a"]["metrics"][metric] == runs["b"]["metrics"][metric]
            ), (name, metric)
        assert any(
            runs["a"]["metrics"][m] != runs["other"]["metrics"][m]
            for m in simulated
        ), name
        assert runs["a"]["attempted"] == runs["b"]["attempted"]


def test_traced_pass_attributes_the_window_to_layers(lines):
    for name, runs in lines.items():
        metrics = runs["traced"]["metrics"]
        self_times = [
            v["value"] for k, v in metrics.items()
            if k.endswith("self_us_per_op")
        ]
        assert len(self_times) >= 14 and sum(self_times) > 0, name
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_a_failing_client_raises_failed(monkeypatch):
    from repro.db.instance import WriterInstance
    from repro.errors import ConfigurationError

    calls = {"n": 0}
    original = WriterInstance.commit

    def flaky_commit(self, txn):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise ConfigurationError("planted failure")
        return original(self, txn)

    clean = WORKLOADS["commit_burst"].run_round(11, scale=0.02)
    assert clean.failed == 0 and not clean.failures
    monkeypatch.setattr(WriterInstance, "commit", flaky_commit)
    planted = WORKLOADS["commit_burst"].run_round(11, scale=0.02)
    assert planted.failed > 0
    assert planted.failures["ConfigurationError"] == planted.failed
    assert planted.attempted == clean.attempted
    assert planted.ops + planted.failed == planted.attempted


def test_a_client_that_never_finishes_is_counted(monkeypatch):
    from repro.db.instance import WriterInstance
    from repro.sim.events import Future

    calls = {"n": 0}
    original = WriterInstance.commit

    def lossy_commit(self, txn):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            return Future(self.loop)  # an acknowledgement that never comes
        return original(self, txn)

    monkeypatch.setattr(WriterInstance, "commit", lossy_commit)
    # Background ticks keep the loop alive, so only the limit ends the round.
    monkeypatch.setattr(workloads, "ROUND_SIM_LIMIT_MS", 2_000.0)
    stalled = WORKLOADS["commit_trickle"].run_round(11, scale=0.005)
    assert stalled.failures["Unfinished"] == stalled.failed > 0
    assert stalled.ops + stalled.failed == stalled.attempted


def test_trace_wrappers_are_removed():
    from bench.harness import run_traced

    def installed():
        return [vars(owner).get(name) for _, owner, name in entry_points()]

    before = installed()
    run = run_traced(
        WORKLOADS["replica_read"], 11, 0.02, log=lambda _line: None
    )
    tracer = run["tracer"]
    assert tracer.calls and not tracer.missing
    # Every nanosecond of the traced windows belongs to exactly one layer.
    assert sum(tracer.self_ns.values()) == pytest.approx(
        tracer.window_ns, rel=0.02
    )
    assert installed() == before
    assert not any(hasattr(value, "__wrapped__") for value in before)
