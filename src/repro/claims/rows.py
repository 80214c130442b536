"""The paper's figures and quantified claims, one row each.

``CLAIMS`` is the reproduction: DESIGN.md section 4 renders from it
(:func:`claims_table`), ``tests/test_claims.py`` asserts every row's
``check(measure(backend))`` in tier-1, and ``python -m repro claims``
prints what was measured.  A check states the *shape* the paper claims
(who wins, by roughly what factor, where it crosses over) over the measured
tables, never an absolute number of this simulator.

Adding an experiment: write its measurement beside the world it needs
(:mod:`.analytic`, :mod:`.cluster`, :mod:`.baselines`, :mod:`.geo`),
returning tables, add its row and check here, and re-render DESIGN.md's
index.
"""

from __future__ import annotations

from repro.claims import analytic, baselines, cluster, geo
from repro.claims.table import Claim, Table, markdown_table
from repro.db.proxy import REPLICA_LAG


# ----------------------------------------------------------------------
# Checks, in row order
# ----------------------------------------------------------------------
def _check_f1(tables: list[Table]) -> None:
    survival, conditional, monte_carlo = tables

    def survives(scheme: str) -> list:
        return list(survival.row(scheme).values())[1:]

    # Left half of Figure 1: the 2/3 scheme breaks at AZ+1.
    assert survives("2/3 write") == [True, False, False]
    # Right half: Aurora writes survive the AZ; reads survive AZ+1.
    assert survives("4/6 write") == [True, False, False]
    assert survives("3/6 read") == [True, True, False]
    available = dict(conditional.rows)
    # Aurora reads stay ~4 nines; the 2/3 scheme is strictly worse.
    assert available["3/6 read | AZ down"] > available["2/3 write | AZ down"]
    assert available["3/6 read | AZ down"] > 0.999
    assert monte_carlo.rows[0][0] > 0.999


def _check_f2(tables: list[Table]) -> None:
    activity, archive = tables
    # (4) gossip healed the partitioned segment to the common SCL.
    assert activity.row("pg0-f")["gossiped-in"] > 0
    assert len(set(activity.column("SCL"))) == 1
    for header in ("received", "acks", "coalesced", "backups", "gc-dropped",
                   "scrubs"):
        # (1/2) receive, ACK, (3/5) coalesce, (6) backup, (7) GC actually
        # dropped hot-log records, (8) scrub ran -- on every segment.
        assert all(count > 0 for count in activity.column(header)), header
    assert archive.rows[0][0] > 0
    # The update queue drains once records are coalesced, backed up and
    # below the GC floor -- the steady state Figure 2 depicts.
    assert sum(activity.column("hotlog")) < sum(activity.column("received"))


def _check_f3(tables: list[Table]) -> None:
    example, live = tables
    assert example.column("reproduced") == [103, 104, 104]
    assert example.column("reproduced") == example.column("paper")
    pgcls = [row for row in live.rows if row[0].startswith("PGCL")]
    vcl, vdl = live.row("VCL")["LSN"], live.row("VDL")["LSN"]
    # Invariant shape: VCL caps at the smallest PG frontier; VDL <= VCL;
    # every PGCL is supported by >= 4 member SCLs.
    assert vdl <= vcl
    assert vcl <= max(pgcl for _name, pgcl, _supporters in pgcls)
    assert all(supporters >= 4 for _name, _pgcl, supporters in pgcls)
    assert live.row("PGCL(PG1)")["LSN"] > 0  # traffic spanned both PGs


def _check_f4(tables: list[Table]) -> None:
    facts = dict(tables[0].rows)
    first, last = map(int, facts["truncation range"].strip("[]").split(".."))
    # The figure's elements: everything past the recomputed VCL is
    # annulled and new LSNs are allocated above the annulled range.
    assert first == facts["recovered VCL"] + 1
    assert facts["first post-recovery LSN"] > last
    # Every segment's chain was clamped to the surviving log.
    assert all(
        scl <= facts["recovered VCL"]
        for scl in facts["SCLs after truncation"]
    )
    # Zero acknowledged-commit loss (the durability contract).
    assert facts["acked commits recovered"] == facts["acked commits"]
    # At least one ragged-edge record existed (SCL spread at crash) --
    # otherwise this scenario did not exercise the figure.
    assert len(set(facts["SCLs at crash"])) > 1


def _check_f5(tables: list[Table]) -> None:
    epochs, replacement, latency, rollback = tables
    candidate = replacement.rows[0][1]
    # Non-blocking: every commit in every phase completed, and the
    # transition phase shows no stall (no order-of-magnitude blowup).
    assert latency.row("during transition")["count"] == 30
    assert (latency.row("during transition")["mean"]
            < latency.row("steady state")["mean"] * 3)
    assert epochs.column("membership epoch") == [1, 2, 3]
    final_members = epochs.rows[2][2]
    assert candidate in final_members
    assert "pg0-f" not in final_members
    undone, = rollback.records()
    assert undone["stable"]
    assert "pg0-f" in undone["members"]
    assert undone["candidate"] not in undone["members"]
    assert undone["epoch"] == 3  # two transitions: out and back
    assert undone["read of mid-transition"] == 1


def _check_c1(tables: list[Table]) -> None:
    latency, batching, slow_node = tables
    aurora, _sync, paxos, tpc = latency.records()
    # Aurora's median commit is at least as fast as both consensus-per-
    # write baselines (one-way records + quorum acks beat a consensus
    # round + forced acceptor writes).
    assert aurora["p50"] <= paxos["p50"]
    assert aurora["p50"] <= tpc["p50"]
    # The paper's peak-to-average claim: 2PC's tail blows up (it must hear
    # from EVERY participant, so outliers always land on the critical
    # path) while Aurora's quorum keeps p99/p50 flat.
    assert tpc["p99/p50"] > 2 * aurora["p99/p50"]
    # And batching means far fewer network operations per commit.
    assert aurora["msgs/commit"] < tpc["msgs/commit"]
    boxcar, immediate = batching.records()
    # Same workload, same records on the wire -- in >=5x fewer messages.
    assert boxcar["records carried"] == immediate["records carried"]
    assert immediate["WriteBatch msgs"] >= 5 * boxcar["WriteBatch msgs"]
    # Aurora's quorum masks the slow node entirely; 2PC absorbs it fully.
    assert (slow_node.row("Aurora 4/6 (slow node)")["p99"]
            < slow_node.row("2PC all-of-6 (slow node)")["p50"])


def _check_c2(tables: list[Table]) -> None:
    sweep, delays = tables
    trickle, heavy = "trickle 0.02/ms", "heavy 2.0/ms"
    # 1. "Jitter is greatest under low load when the boxcar times out":
    #    the TIMEOUT boxcar's trickle latency carries the 4ms timer.
    timeout_gap_trickle = (sweep.row("timeout", trickle)["p50 ms"]
                           - sweep.row("aurora", trickle)["p50 ms"])
    assert timeout_gap_trickle > 3.0
    # 2. Aurora adds (almost) no latency versus no batching at all.
    assert (sweep.row("aurora", trickle)["p50 ms"]
            < sweep.row("immediate", trickle)["p50 ms"] + 0.2)
    # 3. ... while batching meaningfully under load.
    assert (sweep.row("aurora", heavy)["rec/batch"]
            > 1.5 * sweep.row("immediate", heavy)["rec/batch"])
    # 4. The TIMEOUT penalty shrinks as load fills boxcars.
    timeout_gap_heavy = (sweep.row("timeout", heavy)["p50 ms"]
                         - sweep.row("aurora", heavy)["p50 ms"])
    assert timeout_gap_heavy < timeout_gap_trickle
    # AURORA's bound is the boxcar window: the driver's SUBMIT_DELAY_MS of
    # 0.05 ms (the paper's sub-millisecond "submit the async op on the
    # first record, fill until it executes").  The batching defaults are
    # catalogued in docs/PERF.md; change them there and this bound moves.
    assert delays.row("aurora")["max"] <= 0.06
    assert delays.row("timeout")["p50"] >= 3.9
    assert delays.row("immediate")["max"] == 0.0


def _check_c3(tables: list[Table]) -> None:
    healthy, degraded = tables
    aurora, quorum = healthy.row("aurora (hedged)"), healthy.row("quorum-3")
    # The headline: ~1 I/O per read instead of 3.
    assert aurora["IOs/read"] < 1.5
    assert quorum["IOs/read"] > 2.5
    # Without outliers on the chosen segment, single reads are not slower.
    assert aurora["p50"] < quorum["p50"] * 1.5
    hedged = degraded.row("aurora (hedged)")
    bare = degraded.row("no hedge (D6 ablation)")
    assert hedged["hedges"] > 0
    # The hedge caps the worst case well below the unprotected tail, at a
    # small extra-I/O cost.
    assert hedged["max"] < bare["max"] * 0.7
    assert hedged["IOs/read"] < 2.0


def _check_c4(tables: list[Table]) -> None:
    scaling, lag, attach, promotion, sessions = tables
    # Asynchronous replication: 5 replicas cost (essentially) nothing on
    # the write path, and catch up fully once traffic quiesces.
    assert (scaling.row(5)["commit p50 ms"]
            < scaling.row(0)["commit p50 ms"] * 1.2)
    assert scaling.row(5)["max lag (LSN)"] == 0
    sustained, = lag.records()
    assert sustained["final"] == 0
    # Lag is bounded by in-flight durability, not accumulated backlog.
    assert sustained["p99"] < 40
    attach_messages, first_read = attach.rows[0]
    assert first_read == 50
    assert attach_messages == 0  # zero data movement
    acked, recovered, failover_ms = promotion.rows[0]
    assert acked > 0
    assert recovered == acked  # zero acknowledged-commit loss
    assert failover_ms < 100  # no lease to wait out, no redo to replay
    for tier in sessions.records():
        assert tier["ops"] > 0
        assert tier["lag p95 ms"] < REPLICA_LAG.limit_ms, (
            f"{tier['sessions']} sessions broke the lag SLO"
        )
        assert tier["RYW violations"] == 0
        assert tier["consistency violations"] == 0
    # Scaling the fleet 50x must not shift reads onto the writer.
    assert (sessions.row(50_000)["replica reads"]
            > sessions.row(50_000)["writer reads"])


def _check_c5(tables: list[Table]) -> None:
    failover, change = tables
    epochs = failover.row("epochs (Aurora)")
    # Epoch fencing completes orders of magnitude inside even a 1s lease.
    assert epochs["fence wait"] < 100
    assert epochs["total unavailable"] < 1_000.0 + epochs["detection"]
    # Non-blocking: every write completed in ordinary commit time while a
    # lease design would have stalled ~10s.
    assert change.row("epochs: worst commit during change")["ms"] < 50
    assert change.row(
        "lease 10s: I/O stall to fence the suspect")["ms"] > 9_000


def _check_c6(tables: list[Table]) -> None:
    model, survival, stored, write_path, wire = tables
    # The paper's claim at realistic ratios (logs trimmed continuously,
    # so the retained log is ~5-10% of block bytes): ~3x, not 6x.
    for row in model.records():
        if row["log:block ratio"] <= 0.1:
            assert 3.0 <= row["3 full + 3 tail"] <= 3.7
        if row["log:block ratio"] <= 0.2:
            # Taurus's 2-copy page tier undercuts even the full/tail mix.
            assert row["taurus 2 page + 3 log"] < row["3 full + 3 tail"]
    write_az, read_az1, read_az2 = survival.rows[0]
    assert write_az          # writes survive a whole-AZ loss
    assert read_az1          # reads (repair) survive AZ+1
    assert not read_az2      # the design's stated limit
    all_full = stored.row("6 full copies")
    mixed = stored.row("3 full + 3 tail")
    # Block bytes halve (3 materializing copies instead of 6), and Taurus
    # holds blocks on just its two page stores.
    assert mixed["block bytes"] < all_full["block bytes"] * 0.6
    assert mixed["amplification"] < all_full["amplification"] * 0.75
    assert (stored.row("taurus 2 page + 3 log")["block bytes"]
            < mixed["block bytes"])
    selected, baseline = write_path.records()
    if selected["backend"] == "taurus":
        # The headline Taurus economy: strictly lower write amplification
        # on the wire and strictly less storage per user byte.
        assert selected["sync copies/commit"] < baseline["sync copies/commit"]
        assert selected["WriteBatch msgs"] < baseline["WriteBatch msgs"]
        assert (selected["storage amplification"]
                < baseline["storage amplification"])
    else:
        assert selected["WriteBatch msgs"] == baseline["WriteBatch msgs"]
    compressed, plain = wire.row("compressed"), wire.row("uncompressed")
    # Compression must actually compress...
    assert compressed["records elided"] > 0
    assert 0 < compressed["wire bytes"] < compressed["logical bytes"]
    assert compressed["ratio"] > 1.2
    # ... the network totals must agree with the driver's own per-batch
    # accounting times the sync fan-out (amplification stays honest) ...
    copies = selected["sync copies/commit"]
    assert compressed["wire bytes"] == copies * compressed["driver wire bytes"]
    assert (compressed["logical bytes"]
            == copies * compressed["driver logical bytes"])
    # ... and turning it off really turns it off.
    assert plain["wire bytes"] == 0
    assert plain["records elided"] == 0


def _check_c7(tables: list[Table]) -> None:
    fleet, windows, per_window, monte_carlo = tables
    assert fleet.rows[-1][:3] == [64, 6_400, 38_400]  # the paper's number
    if per_window.rows[0][0] == "taurus":
        # 5 copies per PG (3 log + 2 page) instead of 6.
        assert fleet.rows[-1][3] == 32_000
    yearly = windows.column("P(volume read loss)/year")
    # Small segments (fast repair) are the durability lever: each 60x
    # slower repair costs orders of magnitude of durability.
    assert yearly[0] < 1e-7          # Aurora's design point: negligible
    assert yearly[2] > yearly[0] * 1e6
    # Durability inside the paper's window, for every backend: a single
    # 10-second exposure is harmless by many orders of magnitude.
    assert per_window.rows[0][2] < 1e-9
    assert per_window.rows[0][3] < 1e-9
    write_avail, exact_write, read_avail = monte_carlo.rows[0]
    assert abs(write_avail - exact_write) < 0.02
    assert read_avail > write_avail


def _check_c8(tables: list[Table]) -> None:
    recovery, tradeoff = tables
    history = recovery.column("txns committed")
    aurora = recovery.column("Aurora recovery")
    # Flat shape: 16x the history costs far less than 16x the recovery
    # (a read-quorum scan of continuously garbage-collected hot-log
    # digests plus one truncation round -- no redo replay).
    assert aurora[-1] < aurora[0] * (history[-1] / history[0] / 3)
    recoveries = tradeoff.column("worst-case recovery (ms)")
    overheads = tradeoff.column("foreground overhead (%)")
    assert recoveries == sorted(recoveries)          # longer = slower restart
    assert overheads == sorted(overheads, reverse=True)  # or more overhead


def _check_a1(tables: list[Table]) -> None:
    sweep, hydration = tables
    durations = sweep.column("convergence (ms)")
    # Repair time tracks the gossip cadence (monotone, roughly linear).
    assert durations == sorted(durations)
    assert durations[-1] > 3 * durations[0]
    hydrated, = hydration.records()
    # The scenario: every peer had GC'd past what the segment held.
    assert hydrated["peers' gc_horizon"] > hydrated["its SCL while down"]
    assert hydrated["serving reads"]
    assert hydrated["adopted gc_horizon"] > 0


def _check_a2(tables: list[Table]) -> None:
    volumes, spanning = tables
    # The workload touches PG0 only; a 16x larger volume costs the same.
    assert volumes.row(16)["p50 ms"] < volumes.row(1)["p50 ms"] * 1.3
    assert (volumes.row(16)["write msgs/txn"]
            < volumes.row(1)["write msgs/txn"] * 1.3)
    used_pgs, p50 = spanning.rows[0]
    assert len(used_pgs) >= 3
    assert p50 < 5.0  # still a single quorum round trip per touched PG


def _check_e1(tables: list[Table]) -> None:
    latency, crash = tables
    cross = latency.row("journal (cross-partition)")
    single = latency.row("single-partition fast path")
    tpc = latency.row("2PC between partitions")
    # Single-partition traffic pays nothing for multi-writer support.
    assert single["p50"] < cross["p50"]
    # The journal's p99 tail stays controlled (one quorum round) while
    # 2PC's unanimity amplifies outliers.
    assert cross["p99"] / cross["p50"] < tpc["p99"] / tpc["p50"] + 2.0
    survivor, victim, recovery_ms = crash.rows[0]
    assert survivor == "'decided'"
    assert victim == "'decided'"
    assert recovery_ms < 1_000


def _check_geo(tables: list[Table]) -> None:
    # The correctness claim: lag is transient at every loss rate -- once
    # the workload stops, the frontier converges to zero.
    assert all(lag == 0 for lag in tables[0].column("final"))


# ----------------------------------------------------------------------
# The rows
# ----------------------------------------------------------------------
CLAIMS: tuple[Claim, ...] = (
    Claim(
        "F1", "Figure 1",
        "2/3-quorum breaks on AZ failure; 4/6-across-3-AZs survives AZ "
        "failure and AZ+1",
        "`analysis.availability`, `sim.failures`",
        'Figure 1, "Why are 6 copies necessary?": a 2/3 quorum spread '
        "across three AZs loses its quorum once an AZ failure coincides "
        'with one more node failure ("AZ+1"), while the 4/6 write / 3/6 '
        "read design survives an AZ failure for writes and AZ+1 for reads "
        "(preserving repairability).",
        (analytic.f1_quorum_survival,), _check_f1,
    ),
    Claim(
        "F2", "Figure 2",
        "storage-node pipeline: receive→queue→ack, sort/group, gossip, "
        "coalesce, backup, GC, scrub",
        "`storage.node`, `storage.segment`",
        "Figure 2, activity in Aurora storage nodes: (1/2) receive + "
        "update queue, ACK, (3/5) sort-group + coalesce, (4) gossip, (6) "
        "S3 backup, (7) GC, (8) scrub.  One segment is cut off from the "
        "writer so that gossip must heal it; every activity is exercised, "
        "the hot log drains after backup + GC, and the gossiped node "
        "converges to its peers' SCL.",
        (cluster.f2_storage_pipeline,), _check_f2,
    ),
    Claim(
        "F3", "Figure 3",
        "SCL/PGCL/VCL bookkeeping: 2 PGs, records 1–6, PGCL₁=103, "
        "PGCL₂=104, VCL=104",
        "`core.consistency`, `storage.volume`",
        '"PG1\'s PGCL is 103 because 105 has not met quorum, PG2\'s PGCL '
        "is 104 because 106 has not met quorum, and the database's VCL is "
        '104" -- two protection groups, log records 101-106 alternating '
        "between them, 105 and 106 not yet at quorum; then the same shape "
        "on a live two-PG cluster.",
        (analytic.f3_worked_example, cluster.f3_live_cluster), _check_f3,
    ),
    Claim(
        "F4", "Figure 4",
        "crash recovery: read-quorum scan, ragged edge, truncation range, "
        "epoch bump",
        "`core.recovery`, `db.instance`",
        "Figure 4, log truncation during crash recovery: the writer "
        "crashes with asynchronous writes in flight (records past the "
        "quorum point, with gaps).  Recovery re-computes the VCL from a "
        "read-quorum scan of SCLs, records a truncation range annulling "
        'everything beyond it ("even if in-flight asynchronous operations '
        'complete during the process of crash recovery"), and allocates '
        "new LSNs above the range; no acknowledged commit is lost.",
        (cluster.f4_crash_recovery,), _check_f4,
    ),
    Claim(
        "F5", "Figure 5",
        "membership change ABCDEF → (+G, both quorums) → ABCDEG, "
        "reversible, non-blocking",
        "`core.membership`, `core.quorum`",
        "Figure 5's three epochs with client traffic throughout: all "
        "healthy; F suspect, second quorum group formed with G, both "
        'active; F confirmed unhealthy, quorum with G active.  "Membership '
        'changes do not block either reads or writes", and each '
        "transition is reversible (F comes back: roll back to ABCDEF).",
        (cluster.f5_membership_change,), _check_f5,
    ),
    Claim(
        "C1", "§1/§2.3 claim",
        'consensus-per-write systems have "order-of-magnitude worse … '
        'peak to average latency"; Aurora commits without consensus',
        "`db.instance` vs `baselines.*`",
        'Systems built on 2PC / Paxos "have order-of-magnitude worse '
        "cost, performance, and peak to average latency than a "
        'traditional relational database" (section 1); distributed commit '
        'protocols are "heavyweight and introduce[] stalls and jitter '
        'into the write path" (section 2.3).  Expected: Aurora\'s p50 is '
        "in the ballpark of a Paxos phase 2 (both are one quorum round "
        "trip) but its p99/p50 stays flat while 2PC's blows up, worst "
        "under a slow node; ablation D2 issues commits one at a time.",
        (baselines.c1_commit_latency,), _check_c1,
    ),
    Claim(
        "C2", "§2.2 claim",
        "Aurora's send-on-first boxcar eliminates boxcar timeout jitter, "
        "worst under low load",
        "`db.driver`",
        '"There is a challenge in deciding, with each record, whether to '
        "issue the write, to improve latency, or to wait for subsequent "
        "records, to improve write efficiency and throughput.  Waiting "
        "creates performance jitter since early requests entering the "
        "boxcar have to wait for later requests or a timeout to fill the "
        "request.  Jitter is greatest under low load when the boxcar times "
        "out. ... Aurora handles this by submitting the asynchronous "
        "network operation when it receives the first redo log record in "
        "the boxcar but continuing to fill the buffer until the network "
        'operation executes."',
        (cluster.c2_boxcar_jitter,), _check_c2,
    ),
    Claim(
        "C3", "§3.1 claim",
        "read-routing + hedging caps tail latency without quorum reads "
        "(1 I/O vs ≥3)",
        "`core.read_routing`",
        '"A buffer cache miss in Aurora\'s quorum model would seem to '
        "require a minimum of three read I/Os, and likely five, to mask "
        "outlier latency ... Aurora does not do quorum reads. ... If a "
        "request is taking longer than expected, [it] will issue a read to "
        "another storage node and accept whichever one returns first.  "
        'This caps the latency due to slow or unavailable segments."  '
        "Against: three reads per miss, first wins; and (ablation D6) the "
        "fastest segment with no hedge.",
        (cluster.c3_read_hedging,), _check_c3,
    ),
    Claim(
        "C4", "§3.2/§3.4 claim",
        "replicas add little writer-path latency; no data loss on "
        "promotion of a replica; a proxied session fleet scales 50× inside "
        "the replica-lag SLO",
        "`db.replica`, `db.replication`, `db.proxy`",
        '"There is little latency added to the write path on the writer '
        'instance since replication is asynchronous"; replicas attach '
        'instantly ("durable state is shared"); "if a commit has been '
        "marked durable and acknowledged to the client, there is no data "
        'loss when a replica is promoted".  The serving-tier extension '
        "(DESIGN.md section 11) goes from replica-count to logical-session "
        "scaling: 1k / 10k / 50k closed-loop sessions through the "
        "connection-multiplexing proxy over two replicas, no chaos -- "
        "steady-state replica *time* lag p95 inside the sub-10 ms SLO at "
        "every tier, no read-your-writes or shared-read violation, reads "
        "staying on the replicas (the chaos-bearing counterpart is `make "
        "audit-proxy`).",
        (cluster.c4_replicas, cluster.c4_session_scaling), _check_c4,
    ),
    Claim(
        "C5", "§2.4/§4 claim",
        'epoch fencing beats lease expiry ("changes the locks on the '
        'door"); membership changes block neither reads nor writes',
        "`core.epochs`, `baselines.leases`, `core.membership`",
        '"Some systems use leases to establish short term entitlements to '
        "access the system, but leases introduce latency when one needs "
        "to wait for expiry.  Aurora, rather than waiting for a lease to "
        'expire, just changes the locks on the door."  Failover dead time '
        "is detection plus one recovery under epochs, detection plus the "
        "residual lease term under leases; a lease-fenced membership "
        "change stalls I/O for that term, an epoch-fenced one does not.",
        (cluster.c5_fencing,), _check_c5,
    ),
    Claim(
        "C6", "§4.2 claim",
        "full/tail quorum sets cut cost amplification from 6× to ≈3× "
        "while keeping AZ+1 tolerance",
        "`analysis.cost`, `core.quorum`",
        '"a protection group is composed of three full segments ... and '
        "three tail segments ... this yields a cost amplification closer "
        "to three copies of the data rather than a full six while "
        'satisfying our requirement to support AZ+1 failures."  Replica '
        "counts and write amplification come from the backend's "
        "`ReplicationConfig`, so the Taurus column (3 sync wire copies "
        "against 6; storage 2+5r against 6+6r at log:block ratio r) is "
        "the same arithmetic on another write-vs-read cost balance.",
        (analytic.c6_model, cluster.c6_bytes), _check_c6,
    ),
    Claim(
        "C7", "§4 claim",
        "64 TB volume = 38,400 segments; quorum-loss probability under "
        "the 10 s repair window",
        "`analysis.durability`",
        '"Segments are small, currently representing no more than 10GB '
        '... a 64TB volume has 38,400 segments" (section 4); "Assuming a '
        "10 second window to detect and repair a segment failure, it "
        "would require two independent segment failures as well as an AZ "
        "failure in the same 10 second period to lose the ability to "
        'repair a quorum" (section 2.1).  Fast repair of small segments '
        "is the knob that buys durability.",
        (analytic.c7_durability,), _check_c7,
    ),
    Claim(
        "C8", "§2.3/§2.4 claim",
        "no redo replay at crash recovery; recovery cost is O(read-quorum "
        "scan), independent of log length since last checkpoint",
        "`core.recovery` vs `baselines.aries` (ARIES-style replay)",
        '"No redo replay is required as part of crash recovery since '
        'segments are able to generate data blocks on their own."  A '
        "traditional engine's restart replays every redo record since the "
        "last checkpoint, so its recovery time grows with write volume, "
        "and shrinking it costs foreground checkpoints.",
        (cluster.c8_recovery, analytic.c8_aries_tradeoff), _check_c8,
    ),
    Claim(
        "A1", "ablation",
        "repair convergence tracks the gossip cadence (the knob behind "
        "C7's repair window); segments behind every GC horizon hydrate a "
        "baseline instead",
        "`storage.node`, `storage.segment`",
        '"The segment chain is used by each storage node to identify '
        "records that it has not received and fill in these holes by "
        'gossiping with other storage nodes" (section 2.2).  A segment '
        "down during a burst of writes, then restored, converges back to "
        "the fleet SCL at the gossip cadence; one so far behind that the "
        "records it needs are GC'd from every hot log fetches a "
        "materialized baseline.",
        (cluster.a1_gossip_repair,), _check_a1,
    ),
    Claim(
        "A2", "ablation",
        "write-path cost is flat in volume size (PG count); it tracks the "
        "PGs a transaction touches",
        "`db.driver`, `storage.volume`",
        'Storage is "multi-tenant scale-out": a 64 TB volume spreads its '
        "LSN space over 6,400 protection groups, yet writes remain "
        "asynchronous one-way streams and commits remain local VCL "
        "bookkeeping, so per-commit cost tracks the PGs a transaction's "
        "blocks touch, not the PGs in the volume.",
        (cluster.a2_scaleout,), _check_a2,
    ),
    Claim(
        "E1", "§1 extension",
        "multi-writer via a journal: cross-partition commits are one "
        "quorum append, participants replay on crash (no 2PC blocking "
        "window); single-partition traffic pays nothing",
        "`repro.multiwriter`",
        'The single-writer approach "is extensible to multi-writer '
        "databases by ordering writes at database nodes, storage nodes, "
        "and using a journal to order operations that span multiple "
        'database instances."  Against 2PC between the partitions: two '
        "sequential rounds with forced writes, and a blocking window if "
        "the coordinator dies.",
        (baselines.e1_multiwriter,), _check_e1,
    ),
    Claim(
        "GEO", "extension (section 10)",
        "cross-region redo stream under WAN frame loss: go-back-N holds "
        "the secondary's applied frontier to the primary's VDL, paying "
        "retransmissions and lag, never correctness",
        "`geo.replicator`, `sim.wan`",
        "Not in the paper: the Global Database tier.  For each loss rate "
        "the same seeded writes run twice -- async, sampling the "
        "*omniscient* lag (primary durable VDL minus secondary applied "
        "VDL; the applier's own view underreports at high loss because "
        "heartbeats are as lossy as data) after every write and then "
        "draining; sync, timing each commit, which gates on the remote "
        "applied frontier.  The claim is convergence: once writes stop "
        "the frontier reaches zero lag at every loss rate.  The cost "
        "curve is the rest of the table: retransmission ratio and lag "
        "grow with loss, and sync p50 climbs from ~1 WAN RTT to several "
        "retransmission rounds at 40 %.",
        (geo.geo_lag,), _check_geo,
    ),
)


def claims_table() -> str:
    """DESIGN.md section 4's experiment index, rendered from the rows."""
    return markdown_table(
        ["ID", "Paper artifact", "What it shows", "Our modules"],
        [[claim.id, claim.anchor, claim.shows, claim.modules]
         for claim in CLAIMS],
    )
