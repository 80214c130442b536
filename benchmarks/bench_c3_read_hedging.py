"""C3 -- read routing: single bookkept reads + hedging vs quorum reads.

Section 3.1: "A buffer cache miss in Aurora's quorum model would seem to
require a minimum of three read I/Os, and likely five, to mask outlier
latency ...  Aurora does not do quorum reads. ...  If a request is taking
longer than expected, [it] will issue a read to another storage node and
accept whichever one returns first.  This caps the latency due to slow or
unavailable segments."

Three read policies over identical cold-cache workloads:

- **aurora**: route to the fastest known-durable segment, hedge overdue
  requests (the paper's design);
- **single-no-hedge** (ablation D6): fastest segment, never hedge;
- **quorum-3**: issue three reads per miss, first response wins (the
  naive quorum-read alternative).

Expected shape: aurora's I/Os per read stay near 1 (far below 3) with a
p99 close to quorum-3's (the hedge caps the tail); single-no-hedge shows
the unprotected tail once a segment degrades.
"""

from repro import AuroraCluster, ClusterConfig
from repro.sim.latency import CompositeLatency, LogNormalLatency

from .conftest import fmt, percentile, print_table

KEYS = 240


def build_cluster(seed, hedge=True, degrade=None):
    config = ClusterConfig(
        seed=seed,
        intra_az_latency=CompositeLatency(
            LogNormalLatency(0.25, 0.35), LogNormalLatency(6.0, 0.4), 0.03
        ),
        cross_az_latency=CompositeLatency(
            LogNormalLatency(1.0, 0.40), LogNormalLatency(10.0, 0.4), 0.03
        ),
    )
    config.instance.cache_capacity = 8  # force storage reads
    config.instance.driver.hedge_sweep_interval = 0.5
    if not hedge:
        config.instance.driver.hedge_multiplier = 10_000.0
    cluster = AuroraCluster.build(config)
    db = cluster.session()
    for i in range(KEYS):
        db.write(f"key{i:03d}", i)
    cluster.run_for(50)
    if degrade:
        cluster.failures.slow_node(degrade, 40.0)
    return cluster, db


def measure_reads(cluster, db):
    stats = cluster.writer.driver.stats
    base_issued = stats.reads_issued
    base_latencies = len(stats.read_latencies)
    for i in range(0, KEYS, 2):
        assert db.get(f"key{i:03d}") == i
    latencies = stats.read_latencies[base_latencies:]
    issued = stats.reads_issued - base_issued
    return latencies, issued / max(1, len(latencies))


def quorum_read_policy(cluster, db):
    """The naive alternative: 3 parallel reads per miss, first wins."""
    from repro.sim.events import Future

    driver = cluster.writer.driver
    instance = cluster.writer
    latencies = []
    ios = [0]

    def quorum_read(block, pg_index, read_point):
        future = Future(cluster.loop)
        start = cluster.loop.now
        candidates = driver._read_candidates(  # noqa: SLF001 - bench probe
            pg_index, read_point, frozenset()
        )[:3]
        for segment in candidates:
            ios[0] += 1
            from repro.storage.messages import ReadBlockRequest

            rpc = driver._rpc(
                segment,
                ReadBlockRequest(
                    pg_index=pg_index, block=block,
                    read_point=read_point, epochs=driver.epochs,
                ),
            )

            def _first(f, future=future, start=start):
                from repro.storage.messages import ReadBlockResponse

                if isinstance(f.result(), ReadBlockResponse) and not future.done:
                    latencies.append(cluster.loop.now - start)
                    future.set_result(
                        (f.result().image, f.result().version_lsn)
                    )

            rpc.add_done_callback(_first)
        return future

    # Monkey-patch the driver's read for the probe (bench-only).
    driver.read_block = quorum_read
    for i in range(0, KEYS, 2):
        assert db.get(f"key{i:03d}") == i
    reads = max(1, len(latencies))
    return latencies, ios[0] / reads


def test_c3_read_policies_healthy(benchmark):
    def run():
        aurora = measure_reads(*build_cluster(601))
        quorum = quorum_read_policy(*build_cluster(602))
        return aurora, quorum

    (a_lat, a_ios), (q_lat, q_ios) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ["aurora (hedged)", fmt(percentile(a_lat, 0.5)),
         fmt(percentile(a_lat, 0.99)), fmt(a_ios, 2)],
        ["quorum-3", fmt(percentile(q_lat, 0.5)),
         fmt(percentile(q_lat, 0.99)), fmt(q_ios, 2)],
    ]
    print_table("C3: cold-cache reads, healthy fleet (ms)",
                ["policy", "p50", "p99", "IOs/read"], rows)
    # The headline: ~1 I/O per read instead of 3.
    assert a_ios < 1.5
    assert q_ios > 2.5
    # Without outliers on the chosen segment, single reads are not slower.
    assert percentile(a_lat, 0.5) < percentile(q_lat, 0.5) * 1.5


def test_c3_hedging_caps_degraded_tail(benchmark):
    def run():
        hedged_cluster, hedged_db = build_cluster(603, hedge=True)
        victim = hedged_cluster.writer.driver.latency_tracker.ranked(
            [f"pg0-{c}" for c in "abcdef"]
        )[0]
        hedged_cluster.failures.slow_node(victim, 40.0)
        hedged = measure_reads(hedged_cluster, hedged_db)
        hedges = hedged_cluster.writer.driver.stats.hedges_issued

        bare_cluster, bare_db = build_cluster(603, hedge=False)
        victim2 = bare_cluster.writer.driver.latency_tracker.ranked(
            [f"pg0-{c}" for c in "abcdef"]
        )[0]
        bare_cluster.failures.slow_node(victim2, 40.0)
        bare = measure_reads(bare_cluster, bare_db)
        return hedged, hedges, bare

    (h_lat, h_ios), hedges, (b_lat, b_ios) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ["aurora (hedged)", fmt(percentile(h_lat, 0.5)),
         fmt(percentile(h_lat, 0.99)), fmt(max(h_lat)), fmt(h_ios, 2)],
        ["no hedge (D6 ablation)", fmt(percentile(b_lat, 0.5)),
         fmt(percentile(b_lat, 0.99)), fmt(max(b_lat)), fmt(b_ios, 2)],
    ]
    print_table(
        "C3b: reads with the preferred segment degraded 40x (ms)",
        ["policy", "p50", "p99", "max", "IOs/read"],
        rows,
    )
    assert hedges > 0
    # The hedge caps the worst case well below the unprotected tail,
    # at a small extra-I/O cost.
    assert max(h_lat) < max(b_lat) * 0.7
    assert h_ios < 2.0
