"""Determinism guarantees: identical seeds produce identical universes.

Reproducibility is the simulator's core promise (it is what makes every
benchmark and failure scenario in this repository exactly re-runnable), so
it gets its own tests: full message traces, consistency points, and final
database states must be bit-identical across runs of the same seed, and
must diverge across different seeds.
"""

from repro import AuroraCluster, ClusterConfig
from repro.db.session import Session
from repro.sim.network import payload_type_name


def run_traced_scenario(seed):
    cluster = AuroraCluster.build(ClusterConfig(seed=seed))
    trace = []
    cluster.network.add_tap(
        lambda m: trace.append(
            (round(m.deliver_time, 9), m.src, m.dst,
             payload_type_name(m.payload))
        )
    )
    db = cluster.session()
    cluster.add_replica("r1")
    for i in range(10):
        db.write(f"key{i}", i)
    cluster.failures.crash_node("pg0-e")
    db.write("after-failure", 1)
    cluster.crash_writer()
    process = cluster.recover_writer()
    db = Session(cluster.writer)
    db.drive(process)
    state = {
        "trace_len": len(trace),
        "trace_tail": trace[-25:],
        "vcl": cluster.writer.vcl,
        "vdl": cluster.writer.vdl,
        "now": cluster.loop.now,
        "scls": cluster.segment_scls(0),
        "rows": [(f"key{i}", db.get(f"key{i}")) for i in range(10)],
        "messages": cluster.network.stats.snapshot(),
    }
    return state


class TestDeterminism:
    def test_same_seed_same_universe(self):
        first = run_traced_scenario(3141)
        second = run_traced_scenario(3141)
        assert first == second

    def test_different_seed_different_timing(self):
        first = run_traced_scenario(3141)
        second = run_traced_scenario(2718)
        # Logical outcomes agree; physical timing differs.
        assert first["rows"] == second["rows"]
        assert first["now"] != second["now"]

    def test_multiwriter_determinism(self):
        from repro.multiwriter import MultiWriterCluster

        def run(seed):
            mw = MultiWriterCluster(partition_count=2, seed=seed)
            session = mw.session()
            # Find a guaranteed-cross pair.
            keys = {}
            i = 0
            while len(keys) < 2:
                keys.setdefault(mw.partition_of(f"k{i}"), f"k{i}")
                i += 1
            k_a, k_b = keys.values()
            txn = session.begin()
            session.put(txn, k_a, 1)
            session.put(txn, k_b, 2)
            result = session.commit(txn)
            return (result, mw.loop.now, session.get(k_a), session.get(k_b))

        assert run(55) == run(55)

    def test_parallel_audit_sweep_matches_sequential(self):
        """`audit-run --jobs K` is a pure wall-clock optimisation: every
        seed derives all randomness from its own config, so reports from
        worker processes are byte-identical to the sequential run."""
        from dataclasses import replace

        from repro.audit import AuditRunConfig, run_audit_sweep

        configs = [
            AuditRunConfig(seed=seed, steps=120) for seed in range(4)
        ]
        sequential = run_audit_sweep(configs, jobs=1)
        parallel = run_audit_sweep(configs, jobs=4)

        def normalize(report):
            # wall_clock_s is host timing, the one deliberately
            # non-deterministic field; everything else must match.
            return replace(report, wall_clock_s=0.0)

        assert [normalize(r) for r in parallel] == [
            normalize(r) for r in sequential
        ]
        # The rendered sweep output (what CI diffs) is byte-identical.
        assert [r.render() for r in parallel] == [
            r.render() for r in sequential
        ]

    def test_workload_runner_determinism(self):
        from repro.workloads import (
            WorkloadGenerator,
            WorkloadRunner,
            profile,
        )

        def run():
            cluster = AuroraCluster.build(ClusterConfig(seed=808))
            generator = WorkloadGenerator(profile("read_write"), seed=808)
            runner = WorkloadRunner(cluster, generator)
            stats = runner.run_closed_loop(
                clients=3, transactions_per_client=10
            )
            return (
                stats.committed,
                stats.aborted,
                tuple(round(x, 9) for x in stats.commit_latencies),
            )

        assert run() == run()

    def test_audit_run_is_pinned_to_recorded_values(self, built_clusters):
        """A change that only makes the simulator cheaper to run must leave
        the simulated universe alone.  Recorded at commit a529a73 (PR 14),
        before the write round trip's per-message derivations were replaced
        by version compares: ``run_audit(seed=7, steps=300)`` executes the
        same events, commits with the same latencies and renders the same
        report.  One line is re-recorded: ``protocol events`` counts auditor
        hook calls, and a post-recovery boxcar appended in bulk reports its
        SCL advance once instead of once per record (2363 before)."""
        import hashlib

        from repro.audit import AuditRunConfig, run_audit

        report = run_audit(AuditRunConfig(seed=7, steps=300))
        assert report.events_executed == 9944
        (cluster,) = built_clusters
        latencies = list(cluster.writer.stats.commit_latencies)
        assert len(latencies) == 142
        assert latencies[:3] == [
            1.9756605575732387, 1.5446190037609, 2.555738326432607
        ]
        assert hashlib.sha256(repr(latencies).encode()).hexdigest() == (
            "60f3ca800fa475832929cbf8ef416599"
            "fc119e085297c09920bb3b86328cf4f2"
        )
        assert report.render() == "\n".join([
            "audit run: seed=7 steps=300 sim_time=2714ms",
            "  chaos events:        12",
            "  commit acks:         142",
            "  writer recoveries:   1",
            "  availability errors: 0",
            "  protocol events:     1912",
            "  violations:          0",
            "  repairs confirmed:   2 (replaced=1 rolled_back=1 aborted=0 "
            "stalled=0 active=0)",
            "  concurrent repairs:  1 peak (distinct PGs)",
            "  detection latency:   mean=792ms p50=596ms p95=987ms "
            "max=987ms (n=2)",
            "  MTTR (replaced):     mean=1017ms p50=1017ms p95=1017ms "
            "max=1017ms (n=1)",
            "  resolution (all):    mean=847ms p50=676ms p95=1017ms "
            "max=1017ms (n=2)",
            "  health verdicts:     suspected=12 confirmed=2 false_pos=1",
            "  planted false pos:   rollback ok",
        ])
        # Every RPC the fabric dropped was forgotten with the message.
        assert len(cluster.network._pending_rpcs) == 0

    def test_audit_run_does_not_depend_on_string_hash_order(self):
        """The same seed is the same run in every process.  At PR 17 the
        health monitor judged a PG's members in ``frozenset`` order, so two
        members confirmed dead in one tick queued their repairs in
        string-hash order: this command printed ``sim_time=4791ms``, 293
        acks, ``replaced=2 ... aborted=1`` under ``PYTHONHASHSEED=0`` and
        ``sim_time=4818ms``, 291 acks, ``replaced=3 ... aborted=0`` under
        ``PYTHONHASHSEED=2`` (first differing event: the candidate named at
        t = 1103.9 ms, ``pg0-e.1`` against ``pg0-b.1``)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        source = Path(__file__).resolve().parent.parent / "src"

        def report(hash_seed):
            return subprocess.run(
                [sys.executable, "-m", "repro", "audit-run", "--seed", "16",
                 "--steps", "500", "--failover"],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(source),
                     "PYTHONHASHSEED": hash_seed},
            ).stdout

        first = report("0")
        assert "sim_time=4818ms" in first and "replaced=3" in first
        assert report("2") == first
