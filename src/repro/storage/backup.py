"""Simulated Amazon S3: the backup/restore archive.

The real system continuously backs segments up to S3 (Figure 2, activity 6)
and garbage-collects hot-log state that a backup already covers (activity
7).  The protocol only depends on the *control flow* -- what has been backed
up to where, and up to which LSN -- so the archive is an in-memory versioned
object store with deterministic behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BackupObject:
    """One archived snapshot of a segment."""

    key: str
    segment_id: str
    pg_index: int
    scl: int
    taken_at: float
    payload: dict


@dataclass
class SimulatedS3:
    """An in-memory stand-in for the S3 backup bucket."""

    objects: dict[str, BackupObject] = field(default_factory=dict)
    puts: int = 0
    deletes: int = 0

    def put_snapshot(
        self,
        segment_id: str,
        pg_index: int,
        scl: int,
        taken_at: float,
        payload: dict,
    ) -> BackupObject:
        """Archive a segment snapshot; newer snapshots shadow older ones.

        A snapshot at an SCL already archived holds the same state, so
        the object keeps the time that state was first archived: a
        point-in-time restore to any moment since then may use it.
        """
        key = f"{segment_id}/{scl}"
        prior = self.objects.get(key)
        if prior is not None:
            taken_at = prior.taken_at
        obj = BackupObject(
            key=key,
            segment_id=segment_id,
            pg_index=pg_index,
            scl=scl,
            taken_at=taken_at,
            payload=payload,
        )
        self.objects[key] = obj
        self.puts += 1
        return obj

    def latest_snapshot(self, segment_id: str) -> BackupObject | None:
        """Most recent (highest-SCL) snapshot for a segment."""
        best: BackupObject | None = None
        for obj in self.objects.values():
            if obj.segment_id != segment_id:
                continue
            if best is None or obj.scl > best.scl:
                best = obj
        return best

    def snapshots_for_pg(self, pg_index: int) -> list[BackupObject]:
        return sorted(
            (o for o in self.objects.values() if o.pg_index == pg_index),
            key=lambda o: (o.segment_id, o.scl),
        )

    def collect_garbage(self, keep_latest_per_segment: int = 2) -> int:
        """Drop all but the newest N snapshots per segment; returns count.

        Models activity 7: "garbage collects backed-up data that will no
        longer be referenced by an instance".
        """
        by_segment: dict[str, list[BackupObject]] = {}
        for obj in self.objects.values():
            by_segment.setdefault(obj.segment_id, []).append(obj)
        removed = 0
        for snapshots in by_segment.values():
            snapshots.sort(key=lambda o: o.scl, reverse=True)
            for stale in snapshots[keep_latest_per_segment:]:
                del self.objects[stale.key]
                self.deletes += 1
                removed += 1
        return removed

    def __len__(self) -> int:
        return len(self.objects)
