//! Crash-safe durability: a data directory combining a write-ahead log
//! ([`wal`](crate::wal)) with compacted snapshots
//! ([`snapshot`](crate::snapshot)).
//!
//! Layout of a data directory:
//!
//! ```text
//! data/
//!   snapshot.db   -- full database at some generation g (atomic rename)
//!   wal.log       -- checksummed DeltaEvent frames, all post-g
//! ```
//!
//! Invariants the coordinator maintains:
//!
//! 1. **Acknowledged ⇒ durable** (with `FsyncPolicy::Always`): every
//!    mutation is appended and fsynced before [`DurableStore::append`]
//!    returns, so a caller that acknowledged it can crash at any moment
//!    without losing it.
//! 2. **WAL is strictly post-snapshot**: snapshot rotation writes the new
//!    snapshot atomically *first*, then truncates the log. A crash
//!    between the two leaves stale pre-snapshot frames in the log — they
//!    are filtered out on recovery by their generation stamps, which is
//!    sound because [`ensure_generation_floor`] makes stamps monotonic
//!    across process lifetimes.
//! 3. **Recovery never panics on corrupt input**: a torn WAL tail is
//!    truncated to the last valid frame, undecodable or semantically
//!    invalid events stop the replay and are reported as dropped, and a
//!    corrupt snapshot is a loud error, never a silently-wrong state.

use std::io;
use std::path::{Path, PathBuf};

use crate::database::{ensure_generation_floor, Database, DeltaEvent, DeltaKind};
use crate::snapshot::{load_snapshot, write_snapshot, SnapshotLoad};
use crate::textio::{checked_insert, parse_database_with_delta_capacity};
use crate::wal::{read_wal, FsyncPolicy, WalWriter};

/// The WAL's file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Tuning for a [`DurableStore`].
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// When appended WAL frames reach stable storage.
    pub fsync: FsyncPolicy,
    /// Rotate a compacted snapshot (and truncate the WAL) after this many
    /// appended events. 0 disables size-triggered rotation (snapshots
    /// still happen at shutdown and on explicit request).
    pub snapshot_every: u64,
    /// Delta-log window of the recovered database
    /// ([`Database::with_delta_capacity`]).
    pub delta_capacity: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            snapshot_every: 256,
            delta_capacity: crate::database::DELTA_LOG_CAPACITY,
        }
    }
}

/// What recovery found and did. Reported on `/stats` and by
/// `provmin recover`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation stamp recorded in the snapshot header (0: none/fresh).
    pub snapshot_generation: u64,
    /// Tuples loaded from the snapshot.
    pub snapshot_tuples: usize,
    /// WAL events replayed on top of the snapshot.
    pub wal_replayed: u64,
    /// WAL events skipped as stale (generation ≤ snapshot generation —
    /// the residue of a crash between snapshot rotation steps).
    pub wal_skipped: u64,
    /// Bytes dropped from the WAL tail (torn/corrupt frames), plus any
    /// decoded-but-semantically-invalid suffix.
    pub wal_dropped_bytes: u64,
    /// Why the WAL tail was dropped, when it was.
    pub corruption: Option<String>,
    /// Highest generation stamp seen on disk; the process generation
    /// counter was raised above it.
    pub generation_floor: u64,
}

impl RecoveryReport {
    /// True when recovery had to discard anything.
    pub fn lossy(&self) -> bool {
        self.wal_dropped_bytes > 0 || self.corruption.is_some()
    }
}

/// Monotonic counters of a [`DurableStore`]'s activity (for `/stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// `append` calls that reached the WAL.
    pub wal_appends: u64,
    /// Individual events written to the WAL.
    pub wal_records: u64,
    /// fsyncs issued by the WAL writer.
    pub fsyncs: u64,
    /// Snapshots rotated (boot compactions, size triggers, shutdown).
    pub snapshots_written: u64,
}

/// Recovers a data directory without modifying it: loads the snapshot,
/// replays the valid WAL tail, raises the generation floor. The
/// read-only half of [`DurableStore::open`], also used by
/// `provmin recover --check` and the recovery benchmark.
pub fn recover_readonly(
    dir: &Path,
    delta_capacity: usize,
) -> Result<(Database, RecoveryReport), String> {
    let mut report = RecoveryReport::default();
    let snapshot_text = match load_snapshot(dir).map_err(|e| format!("reading snapshot: {e}"))? {
        SnapshotLoad::Missing => None,
        SnapshotLoad::Corrupt(why) => {
            return Err(format!(
                "snapshot in {} is corrupt ({why}); refusing to serve from a partial state",
                dir.display()
            ))
        }
        SnapshotLoad::Loaded { text, generation } => {
            report.snapshot_generation = generation;
            Some(text)
        }
    };
    let mut replay = read_wal(&dir.join(WAL_FILE)).map_err(|e| format!("reading wal: {e}"))?;
    report.wal_dropped_bytes = replay.dropped_bytes;
    report.corruption = replay.corruption.take();

    // Raise the generation floor BEFORE minting any stamp: every
    // generation the rebuilt database mints must exceed everything
    // persisted by the previous process, or a later snapshot+truncate
    // crash window could replay stale frames onto the wrong state.
    let wal_max = replay
        .events
        .iter()
        .map(|e| e.generation)
        .max()
        .unwrap_or(0);
    report.generation_floor = report.snapshot_generation.max(wal_max);
    ensure_generation_floor(report.generation_floor);

    // The snapshot loads as one lineage step (one stamp, an empty delta
    // log); the WAL tail then replays event by event on top of it.
    let mut db = match snapshot_text {
        Some(text) => {
            let db = parse_database_with_delta_capacity(&text, delta_capacity)
                .map_err(|e| format!("snapshot: {e}"))?;
            report.snapshot_tuples = db.num_tuples();
            db
        }
        None => Database::with_delta_capacity(delta_capacity),
    };
    for (i, event) in replay.events.iter().enumerate() {
        if event.generation <= report.snapshot_generation {
            report.wal_skipped += 1;
            continue;
        }
        match event.kind {
            DeltaKind::Insert => {
                // A decoded frame can still be semantically invalid
                // against the state built so far (crafted or cross-wired
                // log). Stop there — the prefix is consistent — and
                // report the suffix as dropped rather than asserting.
                if let Err(why) = checked_insert(
                    &mut db,
                    event.rel,
                    event.tuple.clone(),
                    Some(event.annotation),
                ) {
                    let remaining = (replay.events.len() - i) as u64;
                    report.corruption = Some(format!(
                        "wal frame {i}: {why} ({remaining} event(s) dropped)"
                    ));
                    report.wal_dropped_bytes += remaining;
                    break;
                }
                report.wal_replayed += 1;
            }
            DeltaKind::Remove => {
                db.remove(event.rel, &event.tuple);
                report.wal_replayed += 1;
            }
        }
    }
    Ok((db, report))
}

/// The durability coordinator a serving process owns: recovery at open,
/// WAL appends on the mutation path, snapshot rotation, counters.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: WalWriter,
    options: DurabilityOptions,
    events_since_snapshot: u64,
    counters: DurabilityCounters,
    last_recovery: RecoveryReport,
}

impl DurableStore {
    /// Opens (recovering, then compacting) the data directory, returning
    /// the store and the recovered database.
    ///
    /// Boot always compacts: the recovered state is rotated into a fresh
    /// snapshot and the WAL is truncated, so a torn tail or stale frames
    /// from the previous life are physically gone, not just filtered.
    pub fn open(
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<(DurableStore, Database), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let (db, last_recovery) = recover_readonly(dir, options.delta_capacity)?;
        let wal = WalWriter::open(&dir.join(WAL_FILE), options.fsync)
            .map_err(|e| format!("opening wal: {e}"))?;
        let mut store = DurableStore {
            dir: dir.to_owned(),
            wal,
            options,
            events_since_snapshot: 0,
            counters: DurabilityCounters::default(),
            last_recovery,
        };
        store
            .snapshot(&db)
            .map_err(|e| format!("boot compaction: {e}"))?;
        Ok((store, db))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's tuning.
    pub fn options(&self) -> &DurabilityOptions {
        &self.options
    }

    /// What the boot recovery found.
    pub fn last_recovery(&self) -> &RecoveryReport {
        &self.last_recovery
    }

    /// Activity counters (fsyncs are read live from the WAL writer).
    pub fn counters(&self) -> DurabilityCounters {
        DurabilityCounters {
            fsyncs: self.wal.fsyncs(),
            ..self.counters
        }
    }

    /// Makes an acknowledged mutation durable: appends its events to the
    /// WAL (fsync per policy), then rotates a compacted snapshot if the
    /// log has grown past `snapshot_every`. `db` must already reflect the
    /// events. Returns whether a snapshot was rotated.
    pub fn append(&mut self, events: &[DeltaEvent], db: &Database) -> io::Result<bool> {
        if events.is_empty() {
            return Ok(false);
        }
        self.wal.append(events)?;
        self.counters.wal_appends += 1;
        self.counters.wal_records += events.len() as u64;
        self.events_since_snapshot += events.len() as u64;
        if self.options.snapshot_every > 0
            && self.events_since_snapshot >= self.options.snapshot_every
        {
            self.snapshot(db)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Rotates a compacted snapshot of `db` and truncates the WAL (in
    /// that order — see the module invariants). Used by the boot
    /// compaction, the size trigger, `/load`, and the final snapshot of a
    /// graceful drain.
    pub fn snapshot(&mut self, db: &Database) -> io::Result<()> {
        write_snapshot(&self.dir, db)?;
        self.wal.truncate()?;
        self.counters.snapshots_written += 1;
        self.events_since_snapshot = 0;
        Ok(())
    }

    /// Forces any buffered WAL frames to disk (interval policy: called on
    /// graceful shutdown so the last interval is not lost).
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textio::format_database;
    use crate::value::RelName;
    use crate::Tuple;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("provmin_dur_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = temp_dir("reopen");
        let opts = DurabilityOptions::default();
        {
            let (mut store, mut db) = DurableStore::open(&dir, opts).unwrap();
            let g = db.generation();
            db.add("R", &["a", "b"], "dur_r1");
            db.add("R", &["c", "d"], "dur_r2");
            let events = db.deltas_since(g).unwrap().to_vec();
            store.append(&events, &db).unwrap();
            // Dropped without a final snapshot — the WAL alone must carry
            // the mutations.
        }
        let (store, db) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(db.num_tuples(), 2);
        assert_eq!(store.last_recovery().wal_replayed, 2);
        assert!(!store.last_recovery().lossy());
        // Boot compacted: WAL now empty, snapshot holds everything.
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let (_, again) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(format_database(&again), format_database(&db));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removals_and_rotation_survive() {
        let dir = temp_dir("rot");
        let opts = DurabilityOptions {
            snapshot_every: 4,
            ..DurabilityOptions::default()
        };
        let mut reference = Database::new();
        {
            let (mut store, mut db) = DurableStore::open(&dir, opts).unwrap();
            for i in 0..11u32 {
                let g = db.generation();
                if i % 3 == 2 {
                    let victim = Tuple::of(&[&format!("v{}", i - 1)]);
                    db.remove(RelName::new("R"), &victim);
                    reference.remove(RelName::new("R"), &victim);
                } else {
                    db.add("R", &[&format!("v{i}")], &format!("rot_{i}"));
                    reference.add("R", &[&format!("v{i}")], &format!("rot_{i}"));
                }
                let events = db.deltas_since(g).unwrap().to_vec();
                store.append(&events, &db).unwrap();
            }
            assert!(store.counters().snapshots_written > 1, "rotation triggered");
            assert!(store.counters().fsyncs > 0);
        }
        let (_, recovered) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(format_database(&recovered), format_database(&reference));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_frames_are_filtered_by_generation() {
        // Simulate the crash window between snapshot rename and WAL
        // truncate: snapshot already holds the events, the WAL still
        // carries them.
        let dir = temp_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = Database::new();
        db.add("R", &["a"], "stale_1");
        let g1 = db.generation();
        let events = db.deltas_since(0).unwrap().to_vec();
        let mut w = WalWriter::open(&dir.join(WAL_FILE), FsyncPolicy::Always).unwrap();
        w.append(&events).unwrap();
        crate::snapshot::write_snapshot(&dir, &db).unwrap();
        // Crash here: WAL not truncated. Recovery must not double-apply.
        let (recovered, report) = recover_readonly(&dir, 64).unwrap();
        assert_eq!(recovered.num_tuples(), 1);
        assert_eq!(report.wal_skipped, 1);
        assert_eq!(report.wal_replayed, 0);
        assert_eq!(report.snapshot_generation, g1);
        assert!(report.generation_floor >= g1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn semantically_invalid_wal_events_stop_replay_without_panicking() {
        let dir = temp_dir("sem");
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = WalWriter::open(&dir.join(WAL_FILE), FsyncPolicy::Always).unwrap();
        let mk = |generation, v: &str, tag: &str| DeltaEvent {
            generation,
            kind: DeltaKind::Insert,
            rel: RelName::new("R"),
            tuple: Tuple::of(&[v]),
            annotation: prov_semiring::Annotation::new(tag),
        };
        // Frame 2 re-tags sem_a onto a different tuple: valid frame,
        // invalid semantics. Frame 3 would be fine but is after the cut.
        w.append(&[
            mk(5, "x", "sem_a"),
            mk(6, "y", "sem_a"),
            mk(7, "z", "sem_b"),
        ])
        .unwrap();
        let (db, report) = recover_readonly(&dir, 64).unwrap();
        assert_eq!(db.num_tuples(), 1);
        assert_eq!(report.wal_replayed, 1);
        assert!(report.lossy());
        assert!(report
            .corruption
            .as_deref()
            .unwrap()
            .contains("already tags"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_loud_error() {
        let dir = temp_dir("loud");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            crate::snapshot::snapshot_path(&dir),
            b"# provmin-snapshot v1 generation=NaN\n",
        )
        .unwrap();
        let err = recover_readonly(&dir, 64).unwrap_err();
        assert!(err.contains("corrupt"));
        assert!(DurableStore::open(&dir, DurabilityOptions::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
