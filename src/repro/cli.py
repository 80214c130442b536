"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo``      -- the quickstart scenario with a final cluster report;
- ``workload``  -- run a named OLTP profile and print latency statistics;
- ``faults``    -- a guided failure tour: AZ outage, crash recovery,
  membership change, each with before/after consistency points;
- ``report``    -- build a cluster, run brief traffic, dump the report;
- ``audit-run`` -- seeded chaos schedule + runtime invariant auditor;
  exits nonzero with a violation report if any safety invariant broke;
- ``gates``     -- run the audit gates, one per row of
  ``repro.audit.PROFILES``, at the size the row gives (``--ci``: its CI
  cut);
- ``claims``    -- measure the paper's figures and quantified claims
  (``repro.claims.CLAIMS``, DESIGN.md section 4) and print the tables;
  exits nonzero if a measured shape is not the paper's.

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback

from repro import AuroraCluster
from repro.audit import PROFILES as AUDIT_PROFILES
from repro.audit import AuditRunConfig, merged_sections, run_audit_sweep
from repro.db.session import Session
from repro.report import cluster_report, format_report
from repro.workloads import PROFILES, WorkloadGenerator, WorkloadRunner, profile


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Amazon Aurora: On Avoiding Distributed "
            "Consensus for I/Os, Commits, and Membership Changes' "
            "(SIGMOD 2018)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="simulation seed"
    )
    # Accept --seed after the subcommand too (friendlier UX).
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int, default=None,
                             dest="sub_seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "demo", help="quickstart scenario + cluster report",
        parents=[seed_parent],
    )

    workload = sub.add_parser(
        "workload", help="run an OLTP profile and report latencies",
        parents=[seed_parent],
    )
    workload.add_argument(
        "--profile", choices=sorted(PROFILES), default="read_write"
    )
    workload.add_argument("--clients", type=int, default=4)
    workload.add_argument("--txns", type=int, default=50)
    workload.add_argument(
        "--full-tail", action="store_true",
        help="use the 3 full + 3 tail segment mix (section 4.2)",
    )

    sub.add_parser(
        "faults", help="guided tour: AZ outage, crash recovery, repair",
        parents=[seed_parent],
    )

    multiwriter = sub.add_parser(
        "multiwriter",
        help="the multi-writer extension: journal-ordered cross-partition "
             "transactions",
        parents=[seed_parent],
    )
    multiwriter.add_argument("--partitions", type=int, default=3)
    multiwriter.add_argument("--transfers", type=int, default=10)

    report = sub.add_parser(
        "report", help="dump a cluster report", parents=[seed_parent]
    )
    report.add_argument("--txns", type=int, default=30)
    report.add_argument("--replicas", type=int, default=1)

    audit = sub.add_parser(
        "audit-run",
        help="chaos workload with the runtime invariant auditor armed",
        parents=[seed_parent],
    )
    _add_audit_arguments(audit)

    gates = sub.add_parser(
        "gates", help="run audit gates: each profile's audit-run sweeps",
    )
    gates.add_argument(
        "names", nargs="*", metavar="NAME",
        help="gates to run, `audit` or `audit-<profile>` (default: all)",
    )
    gates.add_argument(
        "--ci", action="store_true",
        help="run each gate's CI cut instead of its full sweep",
    )
    gates.add_argument(
        "--jobs", type=int, default=4, metavar="K",
        help="worker processes per sweep (as audit-run --jobs)",
    )

    claims = sub.add_parser(
        "claims",
        help="measure the paper's figures and claims; print the tables",
    )
    claims.add_argument(
        "--id", nargs="+", metavar="ID", default=None,
        help="rows to measure (default: all of DESIGN.md section 4)",
    )
    claims.add_argument(
        "--backend", choices=("aurora", "taurus"), default="aurora",
        help="storage backend of every measured cluster",
    )
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    cluster = AuroraCluster.build(seed=args.seed)
    db = cluster.session()
    txn = db.begin()
    db.put(txn, "hello", "aurora")
    scn = db.commit(txn)
    print(f"committed 'hello' at SCN {scn}; read back: {db.get('hello')!r}")
    cluster.crash_writer()
    db.drive(cluster.recover_writer())
    print(f"crashed + recovered; 'hello' survived: {db.get('hello')!r}")
    print()
    print(format_report(cluster_report(cluster)))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    cluster = AuroraCluster.build(seed=args.seed, full_tail=args.full_tail)
    generator = WorkloadGenerator(profile(args.profile), seed=args.seed)
    runner = WorkloadRunner(cluster, generator)
    stats = runner.run_closed_loop(
        clients=args.clients, transactions_per_client=args.txns
    )
    summary = stats.summary()
    print(f"profile={args.profile} clients={args.clients} "
          f"txns/client={args.txns} full_tail={args.full_tail}")
    print(f"  committed={summary['committed']:.0f} "
          f"aborted={summary['aborted']:.0f}")
    print(f"  commit latency ms: p50={summary['p50_ms']:.3f} "
          f"p95={summary['p95_ms']:.3f} p99={summary['p99_ms']:.3f} "
          f"mean={summary['mean_ms']:.3f}")
    print(f"  peak/average={summary['peak_to_average']:.2f}")
    print(f"  simulated time: {cluster.loop.now:.1f} ms")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    cluster = AuroraCluster.build(seed=args.seed)
    db = cluster.session()
    db.write_many({f"row{i:02d}": i for i in range(10)})
    print(f"[t={cluster.loop.now:7.1f}] 10 rows committed; "
          f"VCL={cluster.writer.vcl}")

    cluster.failures.crash_az("az3")
    db.write("during-az-outage", 1)
    print(f"[t={cluster.loop.now:7.1f}] az3 down; commit still completed "
          f"(4/6 quorum)")

    cluster.failures.restore_az("az3")
    cluster.run_for(300)
    scls = set(cluster.segment_scls(0).values())
    print(f"[t={cluster.loop.now:7.1f}] az3 restored; gossip converged "
          f"SCLs={scls}")

    cluster.crash_writer()
    db = Session(cluster.writer)
    result = db.drive(cluster.recover_writer())
    print(f"[t={cluster.loop.now:7.1f}] writer crashed + recovered: "
          f"VCL={result.vcl}, volume epoch="
          f"{cluster.writer.driver.epochs.volume}")

    cluster.failures.crash_node("pg0-f")
    candidate = db.drive(cluster.replace_segment(0, "pg0-f"))
    print(f"[t={cluster.loop.now:7.1f}] pg0-f failed and was replaced by "
          f"{candidate} (membership epoch="
          f"{cluster.metadata.membership(0).epoch})")

    intact = all(db.get(f"row{i:02d}") == i for i in range(10))
    print(f"[t={cluster.loop.now:7.1f}] all original rows intact: {intact}")
    return 0 if intact else 1


def _cmd_multiwriter(args: argparse.Namespace) -> int:
    from repro.multiwriter import MultiWriterCluster

    mw = MultiWriterCluster(
        partition_count=args.partitions, seed=args.seed
    )
    session = mw.session()
    accounts = [f"acct{i:02d}" for i in range(args.partitions * 2)]
    for account in accounts:
        session.write(account, 100)
    total_before = sum(session.get(a) for a in accounts)
    for i in range(args.transfers):
        src = accounts[i % len(accounts)]
        dst = accounts[(i + 1) % len(accounts)]
        txn = session.begin()
        session.put(txn, src, session.get(src, txn=txn) - 5)
        session.put(txn, dst, session.get(dst, txn=txn) + 5)
        session.commit(txn)
    # Crash + recover every partition; the books must still balance.
    for index in range(mw.partition_count):
        mw.crash_partition(index)
        session.drive(mw.recover_partition(index))
    total_after = sum(session.get(a) for a in accounts)
    print(f"partitions={args.partitions} transfers={args.transfers}")
    print(f"  journal: {mw.journal.appends} appends, durable "
          f"gsn={mw.journal.durable_gsn}")
    print(f"  commit paths: {session.cross_partition_commits} journal / "
          f"{session.single_partition_commits} single-partition")
    print(f"  balance before={total_before} after all-partition "
          f"crash+recovery={total_after} (conserved: "
          f"{total_before == total_after})")
    return 0 if total_before == total_after else 1


def _cmd_report(args: argparse.Namespace) -> int:
    cluster = AuroraCluster.build(seed=args.seed)
    for i in range(args.replicas):
        cluster.add_replica(f"replica-{i + 1}")
    db = cluster.session()
    for i in range(args.txns):
        db.write(f"key{i:04d}", i)
    cluster.run_for(100)
    print(format_report(cluster_report(cluster)))
    return 0


#: The ``AuditRunConfig`` fields that name an ``audit-run`` flag.
_AUDIT_FLAGS = [
    spec for spec in dataclasses.fields(AuditRunConfig)
    if "flag" in spec.metadata
]


def _add_audit_arguments(audit: argparse.ArgumentParser) -> None:
    """``audit-run``'s arguments, derived: one switch per profile row (at
    most one may be given), one flag per ``AuditRunConfig`` field that
    names one in its metadata, and the three that shape the sweep rather
    than a run."""
    switches = audit.add_mutually_exclusive_group()
    for profile in AUDIT_PROFILES.values():
        if profile.switch is not None:
            overrides, *_, judged = profile.describe()
            switches.add_argument(
                profile.switch, action="store_const", const=profile.name,
                dest="profile",
                help=f"run the {profile.name} profile (docs/AUDIT.md "
                     f"\"Profiles\"): {overrides}.  Judged: {judged}",
            )
    audit.set_defaults(profile="chaos")
    for spec in _AUDIT_FLAGS:
        argument = dict(spec.metadata, dest=spec.name)
        flag = argument.pop("flag")
        argument.pop("over_profile", None)
        if isinstance(spec.default, bool):
            argument["action"] = "store_false" if spec.default else "store_true"
        else:
            argument["type"] = type(spec.default)
            argument["default"] = argument.pop("cli_default", spec.default)
        audit.add_argument(flag, **argument)
    audit.add_argument(
        "--sweep", type=int, default=0, metavar="N",
        help="run N consecutive seeds starting at --seed (CI sweeps)",
    )
    audit.add_argument(
        "--jobs", type=int, default=1, metavar="K",
        help="run sweep seeds across K worker processes (seeds are "
             "independent, so reports are byte-identical to --jobs 1)",
    )
    audit.add_argument(
        "--integrity-json", metavar="PATH", default="",
        help="write the merged integrity report as JSON to PATH "
             "(--integrity only)",
    )


def _audit_config(args: argparse.Namespace, seed: int) -> AuditRunConfig:
    """The AuditRunConfig for one sweep seed: the flags, then the selected
    profile's row, then the flags that override a profile (given only when
    nonzero)."""
    given = {spec.name: getattr(args, spec.name) for spec in _AUDIT_FLAGS}
    late = {
        spec.name: given.pop(spec.name)
        for spec in _AUDIT_FLAGS
        if spec.metadata.get("over_profile")
    }
    config = AuditRunConfig(seed=seed, **given)
    AUDIT_PROFILES[args.profile].configure(config)
    for name, value in late.items():
        if value:
            setattr(config, name, value)
    return config


def _cmd_audit_run(args: argparse.Namespace) -> int:
    if args.integrity_json and args.profile != "integrity":
        # Before any seed runs: a CI lane that lost its --integrity would
        # otherwise upload no artifact and stay green.
        print("repro audit-run: --integrity-json writes the integrity "
              "profile's report; it needs --integrity", file=sys.stderr)
        return 2
    seeds = (
        range(args.seed, args.seed + args.sweep)
        if args.sweep > 0
        else [args.seed]
    )
    configs = [_audit_config(args, seed) for seed in seeds]
    reports = []
    for report in run_audit_sweep(configs, jobs=args.jobs):
        reports.append(report)
        print(report.render())
        if args.sweep > 0:
            print()
    clean = sum(report.ok for report in reports)
    merged = merged_sections(reports)
    if args.sweep > 0:
        print(f"sweep: {clean}/{len(seeds)} seeds clean")
        for section in merged.values():
            for line in section.footer_lines(len(reports)):
                print(line)
    if args.integrity_json:
        import json

        payload = merged["integrity"].to_json()
        payload["seeds"] = len(reports)
        payload["seeds_clean"] = clean
        with open(args.integrity_json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"integrity report written to {args.integrity_json}")
    return 1 if clean < len(reports) else 0


def _cmd_gates(args: argparse.Namespace) -> int:
    gates = {row.gate: row for row in AUDIT_PROFILES.values()}
    unknown = [name for name in args.names if name not in gates]
    if unknown:
        print(f"repro gates: no gate {', '.join(unknown)}; the gates are "
              f"{' '.join(gates)}", file=sys.stderr)
        return 2
    status = 0
    for name in args.names or gates:
        for arguments in gates[name].gate_commands(ci=args.ci):
            # A sweep's workers fork with a copy of what this process has
            # not written yet.
            sys.stdout.flush()
            status = max(status, main(
                ["audit-run", *arguments, "--jobs", str(args.jobs)]
            ))
    return status


def _cmd_claims(args: argparse.Namespace) -> int:
    # Imported here: the claims build every kind of world the repo has,
    # and no other command (nor the repo benchmark) should pay for that.
    from repro.claims import CLAIMS

    rows = {claim.id: claim for claim in CLAIMS}
    unknown = [name for name in args.id or () if name not in rows]
    if unknown:
        print(f"repro claims: no row {', '.join(unknown)}; the rows are "
              f"{' '.join(rows)}", file=sys.stderr)
        return 2
    failed = []
    for name in args.id or rows:
        claim = rows[name]
        print(claim.heading())
        try:
            tables = claim.measure(args.backend)
            for table in tables:
                print(f"\n{table.markdown()}")
            claim.check(tables)
            print("\nshape: holds\n")
        except Exception as error:  # noqa: BLE001 - report, try the next row
            # A row whose world or shape does not exist on this backend
            # (Taurus has no sixth segment to cut off) is a finding to
            # print beside the rows that do hold, not a crash.
            where = traceback.extract_tb(error.__traceback__)[-1]
            print(f"\nshape: FAILS -- {type(error).__name__} at "
                  f"{where.name}: `{where.line}`\n")
            failed.append(name)
    if failed:
        print(f"rows whose shape failed on {args.backend}: "
              f"{' '.join(failed)}")
    return 1 if failed else 0


_COMMANDS = {
    "demo": _cmd_demo,
    "workload": _cmd_workload,
    "faults": _cmd_faults,
    "multiwriter": _cmd_multiwriter,
    "report": _cmd_report,
    "audit-run": _cmd_audit_run,
    "gates": _cmd_gates,
    "claims": _cmd_claims,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "sub_seed", None) is not None:
        args.seed = args.sub_seed
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
