//! Compacted on-disk snapshots of a [`Database`], written atomically.
//!
//! A snapshot is the [`textio`](crate::textio) rendering of the whole
//! database, preceded by one header line carrying the generation stamp it
//! was taken at:
//!
//! ```text
//! # provmin-snapshot v1 generation=1234
//! R(a, b) : s1
//! ...
//! ```
//!
//! Writes are crash-atomic: the new snapshot is rendered to a `.tmp`
//! sibling, fsynced, renamed over the live file, and the directory is
//! fsynced — a reader (or a recovery after power loss) sees either the
//! old complete snapshot or the new complete snapshot, never a partial
//! one. The header starts with `#`, so a snapshot file is *also* a valid
//! plain [`textio`](crate::textio) database file.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::database::Database;
use crate::textio::format_database;

/// The live snapshot's file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.db";

const HEADER_PREFIX: &str = "# provmin-snapshot v1 generation=";

/// The live snapshot path inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Atomically replaces the snapshot in `dir` with the current content of
/// `db`: write-temp + fsync + rename + directory fsync. On return the
/// snapshot is durable.
pub fn write_snapshot(dir: &Path, db: &Database) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let final_path = snapshot_path(dir);
    let tmp_path = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let mut text = format!("{HEADER_PREFIX}{}\n", db.generation());
    text.push_str(&format_database(db));
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(text.as_bytes())?;
        f.sync_data()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Persist the rename itself: fsync the directory entry.
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// What loading a snapshot found on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotLoad {
    /// No snapshot file: a fresh data directory.
    Missing,
    /// The snapshot parsed cleanly.
    Loaded {
        /// The raw text body (header included; a comment to the text
        /// loader) — parse it with
        /// [`parse_database_with_delta_capacity`](crate::textio::parse_database_with_delta_capacity)
        /// once the generation floor is raised.
        text: String,
        /// The generation stamp recorded in the header (0 when the file
        /// carries no header, i.e. it is a plain textio database).
        generation: u64,
    },
    /// The file exists but cannot be decoded. Recovery must surface this
    /// instead of serving from a silently-wrong state.
    Corrupt(String),
}

/// Reads the snapshot in `dir` without building a database yet (recovery
/// needs the recorded generation *before* minting any new stamps). Never
/// panics on corrupt input.
pub fn load_snapshot(dir: &Path) -> io::Result<SnapshotLoad> {
    let path = snapshot_path(dir);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SnapshotLoad::Missing),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return Ok(SnapshotLoad::Corrupt("snapshot is not utf-8".to_owned()))
        }
        Err(e) => return Err(e),
    };
    let generation = match text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix(HEADER_PREFIX))
    {
        Some(g) => match g.trim().parse() {
            Ok(g) => g,
            Err(_) => {
                return Ok(SnapshotLoad::Corrupt(format!(
                    "bad generation in snapshot header: {g:?}"
                )))
            }
        },
        // Headerless files load as generation 0: lets an operator seed a
        // data directory with a hand-written textio file.
        None => 0,
    };
    Ok(SnapshotLoad::Loaded { text, generation })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textio::{parse_database, parse_database_with_delta_capacity};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("provmin_snap_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips_with_generation() {
        let dir = temp_dir("rt");
        let mut db = Database::new();
        db.add("R", &["a", "b"], "sn1");
        db.add("S", &["c"], "sn2");
        write_snapshot(&dir, &db).unwrap();
        let SnapshotLoad::Loaded { text, generation } = load_snapshot(&dir).unwrap() else {
            panic!("expected a loaded snapshot");
        };
        assert_eq!(generation, db.generation());
        let restored = parse_database_with_delta_capacity(&text, 7).unwrap();
        assert_eq!(restored.num_tuples(), 2);
        assert_eq!(restored.delta_capacity(), 7);
        assert_eq!(
            format_database(&restored),
            format_database(&db),
            "snapshot must reproduce the database byte-for-byte"
        );
        // Rewriting replaces atomically; no .tmp residue.
        db.add("R", &["x", "y"], "sn3");
        write_snapshot(&dir, &db).unwrap();
        assert!(!dir.join("snapshot.db.tmp").exists());
        let SnapshotLoad::Loaded { generation: g2, .. } = load_snapshot(&dir).unwrap() else {
            panic!("expected a loaded snapshot");
        };
        assert_eq!(g2, db.generation());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_corrupt_snapshots_are_reported() {
        let dir = temp_dir("miss");
        assert_eq!(load_snapshot(&dir).unwrap(), SnapshotLoad::Missing);
        fs::write(
            snapshot_path(&dir),
            b"# provmin-snapshot v1 generation=zzz\n",
        )
        .unwrap();
        assert!(matches!(
            load_snapshot(&dir).unwrap(),
            SnapshotLoad::Corrupt(_)
        ));
        fs::write(snapshot_path(&dir), [0xFF, 0xFE, 0x00]).unwrap();
        assert!(matches!(
            load_snapshot(&dir).unwrap(),
            SnapshotLoad::Corrupt(_)
        ));
        // A headerless plain textio file is accepted at generation 0.
        fs::write(snapshot_path(&dir), b"R(a) : hs1\n").unwrap();
        let SnapshotLoad::Loaded { text, generation } = load_snapshot(&dir).unwrap() else {
            panic!("expected a loaded snapshot");
        };
        assert_eq!(generation, 0);
        assert_eq!(parse_database(&text).unwrap().num_tuples(), 1);
        // Semantically-invalid content is an error, not a panic.
        fs::write(snapshot_path(&dir), b"R(a) : dup\nR(b) : dup\n").unwrap();
        let SnapshotLoad::Loaded { text, .. } = load_snapshot(&dir).unwrap() else {
            panic!("expected a loaded snapshot");
        };
        assert!(parse_database(&text).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
