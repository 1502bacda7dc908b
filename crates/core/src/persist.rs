//! Database persistence.
//!
//! The paper stores geometric models and feature vectors in Oracle 8i
//! with the multidimensional index built on top (§2.3); this module
//! plays that storage role with files (see DESIGN.md for the
//! substitution rationale). Two on-disk formats store the same parts —
//! extractor config, id counter, R-tree fan-out, the per-kind `dmax`
//! table, and the shapes with their meshes and feature vectors — and
//! share one load entry point:
//!
//! * **JSON** — human-inspectable; the compat/debug path.
//! * **Binary snapshot** (`TDSS`, [`crate::snapshot`]) — sectioned,
//!   checksummed, fixed-layout; the scale path for 10⁴–10⁵-shape
//!   databases.
//!
//! Neither stores the R-trees: both loaders hand the decoded parts to
//! one assembly step that validates them and rebuilds the trees with
//! STR bulk loading, so a database answers the same whichever format
//! it was loaded from. [`load_from_path`] sniffs the first four bytes
//! and dispatches; callers never need to know which format a file is
//! in.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_index::RTreeConfig;

use crate::db::{ShapeDatabase, ShapeId, StoredShape};
use crate::snapshot::{
    check_extractor, check_vector, load_binary_bytes, save_binary, SNAPSHOT_MAGIC, STREAM,
};

/// The file operation a [`PersistError::File`] failure occurred in —
/// distinguishing a failed temp-file create from a failed fsync or
/// rename, so a `tdess serve --db <path>` startup failure (or a
/// save on a read-only filesystem) is diagnosable from the message
/// alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileOp {
    /// Opening an existing file for reading.
    Open,
    /// Creating the sibling temporary file.
    CreateTemp,
    /// Streaming the serialized bytes into the temporary file.
    WriteTemp,
    /// Fsyncing the temporary file.
    Sync,
    /// Renaming the temporary file over the target.
    Rename,
}

impl FileOp {
    /// Human-readable operation name used in error messages.
    fn label(self) -> &'static str {
        match self {
            FileOp::Open => "open",
            FileOp::CreateTemp => "create temp file",
            FileOp::WriteTemp => "write temp file",
            FileOp::Sync => "fsync temp file",
            FileOp::Rename => "rename temp file over target",
        }
    }
}

/// Errors from persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure on a caller-supplied reader/writer
    /// (no path is known at this level).
    Io(std::io::Error),
    /// Serialization/deserialization failure.
    Serde(serde_json::Error),
    /// An I/O failure on a named file, tagged with the operation that
    /// failed and the path it failed on.
    File {
        /// Which step of the save/load failed.
        op: FileOp,
        /// The file the operation was applied to.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A file offered as a binary snapshot does not start with the
    /// `TDSS` magic.
    BadMagic {
        /// The file that was read.
        path: std::path::PathBuf,
        /// The first four bytes actually found.
        found: [u8; 4],
    },
    /// A binary snapshot written by a newer (or unknown) format
    /// version; refusing to guess at its layout.
    UnsupportedVersion {
        /// The file that was read.
        path: std::path::PathBuf,
        /// Version declared in the snapshot header.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// A snapshot failed validation: truncation, checksum mismatch or
    /// a count past its cap (binary), or decoded data that violates
    /// database invariants (either format, section `database`). Names
    /// the section so a corrupt file is diagnosable from the message
    /// alone.
    Corrupt {
        /// The file that was read.
        path: std::path::PathBuf,
        /// The snapshot section (`header`, `META`, `SHPS`, `FEAT`,
        /// `database`) the problem was detected in.
        section: &'static str,
        /// What was wrong.
        reason: String,
    },
}

/// Builds a [`PersistError::Corrupt`] (shared with [`crate::snapshot`]).
pub(crate) fn corrupt(
    path: &Path,
    section: &'static str,
    reason: impl Into<String>,
) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        section,
        reason: reason.into(),
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Serde(e) => write!(f, "serialization error: {e}"),
            PersistError::File { op, path, source } => {
                write!(f, "{} `{}`: {source}", op.label(), path.display())
            }
            PersistError::BadMagic { path, found } => write!(
                f,
                "snapshot header of `{}`: bad magic {found:02x?}, expected `TDSS`",
                path.display()
            ),
            PersistError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "snapshot header of `{}`: format version {found} is newer than \
                 this build supports (max {supported})",
                path.display()
            ),
            PersistError::Corrupt {
                path,
                section,
                reason,
            } => write!(
                f,
                "snapshot section `{section}` of `{}`: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Serde(e) => Some(e),
            PersistError::File { source, .. } => Some(source),
            PersistError::BadMagic { .. }
            | PersistError::UnsupportedVersion { .. }
            | PersistError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Serde(e)
    }
}

/// Tags an I/O result with the file operation and path it belongs to.
fn file_ctx<T>(r: std::io::Result<T>, op: FileOp, path: &Path) -> Result<T, PersistError> {
    r.map_err(|source| PersistError::File {
        op,
        path: path.to_path_buf(),
        source,
    })
}

/// What a JSON database file holds: the parts a `TDSS` snapshot
/// stores. Files written before the trees were dropped from JSON also
/// carry an `indexes` object, which loading ignores.
#[derive(Serialize, Deserialize)]
struct JsonDatabase {
    extractor: FeatureExtractor,
    next_id: ShapeId,
    /// Absent from files that stored their trees; every database they
    /// hold was built with the default fan-out.
    #[serde(default)]
    config: RTreeConfig,
    /// Keyed by kind name.
    dmax: HashMap<FeatureKind, f64>,
    shapes: Vec<Arc<StoredShape>>,
}

impl JsonDatabase {
    /// Checks what only the serde form can get wrong — a missing
    /// `dmax` kind, and the extractor, meshes and vectors the `TDSS`
    /// decoder checks while decoding — then assembles the database as a
    /// `TDSS` load does.
    fn into_database(self) -> Result<ShapeDatabase, String> {
        check_extractor(&self.extractor)?;
        let mut dmax = [0.0; FeatureKind::ALL.len()];
        for (kind, d) in FeatureKind::ALL.into_iter().zip(&mut dmax) {
            *d = *self
                .dmax
                .get(&kind)
                // hotpath: allow(hot-alloc) — error path: formats once, then the load aborts; `load` is on the hot path only by name
                .ok_or_else(|| format!("missing dmax entry for {kind:?}"))?;
        }
        for s in &self.shapes {
            s.mesh
                .check_input()
                .map_err(|defect| format!("shape {}: {defect}", s.id))?;
            for kind in FeatureKind::ALL {
                check_vector(kind, s.features.get(kind), self.extractor.dim(kind))
                    .map_err(|reason| format!("shape {}: {reason}", s.id))?;
            }
        }
        ShapeDatabase::from_loaded_parts(
            self.extractor,
            self.next_id,
            self.shapes,
            dmax,
            self.config,
        )
    }
}

/// Serializes the database to a writer as JSON.
pub fn save<W: Write>(db: &ShapeDatabase, w: W) -> Result<(), PersistError> {
    let json = JsonDatabase {
        extractor: *db.extractor(),
        next_id: db.next_id(),
        config: db.index_config(),
        dmax: FeatureKind::ALL.map(|kind| (kind, db.dmax(kind))).into(),
        shapes: db.shapes().iter().cloned().collect(),
    };
    serde_json::to_writer(w, &json)?;
    Ok(())
}

/// Deserializes a database from a reader.
pub fn load<R: Read>(r: R) -> Result<ShapeDatabase, PersistError> {
    load_json(r, Path::new(STREAM))
}

/// Deserializes a JSON database and assembles it as a `TDSS` load
/// does; any invalid part is `Corrupt` in section `database` (`path`
/// is used only in errors).
fn load_json<R: Read>(r: R, path: &Path) -> Result<ShapeDatabase, PersistError> {
    let json: JsonDatabase = serde_json::from_reader(r)?;
    json.into_database()
        .map_err(|reason| corrupt(path, "database", reason))
}

/// Which on-disk representation to write a database in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Human-inspectable JSON; the compatibility and debugging path.
    Json,
    /// The `TDSS` binary snapshot ([`crate::snapshot`]); the scale
    /// path.
    Binary,
}

/// Saves the database to a file path as JSON, atomically (see
/// [`save_to_path_as`]).
pub fn save_to_path(db: &ShapeDatabase, path: &Path) -> Result<(), PersistError> {
    save_to_path_as(db, path, SnapshotFormat::Json)
}

/// Saves the database to a file path as a binary snapshot, atomically
/// (see [`save_to_path_as`]).
pub fn save_to_path_binary(db: &ShapeDatabase, path: &Path) -> Result<(), PersistError> {
    save_to_path_as(db, path, SnapshotFormat::Binary)
}

/// Saves the database to a file path in the requested format,
/// atomically: bytes are written to a sibling temporary file, fsynced,
/// and renamed over the target, so a crash or error mid-serialize can
/// never destroy an existing database file.
pub fn save_to_path_as(
    db: &ShapeDatabase,
    path: &Path,
    format: SnapshotFormat,
) -> Result<(), PersistError> {
    match format {
        SnapshotFormat::Json => atomic_write(path, |w| save(db, w)),
        SnapshotFormat::Binary => atomic_write(path, |w| save_binary(db, w)),
    }
}

/// Per-process ticket for unique temp-file names: two concurrent
/// saves to the same path must never share a temp file, or they
/// corrupt each other's bytes before the rename.
static TMP_TICKET: AtomicU64 = AtomicU64::new(0);

/// Writes a file atomically: `write` streams into a sibling temp
/// file, which is fsynced and renamed over `path` only on success.
/// On any error the temp file is removed and `path` is left exactly
/// as it was.
///
/// Durability guarantee: after this returns `Ok`, the *content* of
/// `path` is on stable storage (the temp file is fsynced before the
/// rename), and the rename itself is made durable by fsyncing the
/// parent directory afterwards — without that, a crash shortly after
/// a "successful" save could roll the directory entry back to the old
/// file. The directory fsync is best-effort: on platforms or
/// filesystems that refuse to open or sync directory handles, the
/// save still succeeds with the temp-file fsync alone (content
/// durability is unaffected; only the rename's crash-durability
/// window widens to the next journal flush).
///
/// The temp name embeds the process id *and* a per-process atomic
/// ticket, so concurrent saves to one path from multiple threads each
/// write their own temp file; last rename wins, and the target is a
/// complete snapshot from exactly one of the writers.
fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("db.json");
    // audit: allow(atomic-ordering) — a fetch_add ticket for unique names; no memory is published
    let ticket = TMP_TICKET.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}.{ticket}", std::process::id()));
    let result = (|| {
        let file = file_ctx(std::fs::File::create(&tmp), FileOp::CreateTemp, &tmp)?;
        let mut w = std::io::BufWriter::new(file);
        write(&mut w)?;
        file_ctx(w.flush(), FileOp::WriteTemp, &tmp)?;
        file_ctx(w.get_ref().sync_all(), FileOp::Sync, &tmp)?;
        Ok(())
    })();
    match result.and_then(|()| file_ctx(std::fs::rename(&tmp, path), FileOp::Rename, path)) {
        Ok(()) => {
            // Make the rename durable: fsync the parent directory.
            // Best-effort — some platforms refuse dir handles.
            let parent = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
            Ok(())
        }
        Err(e) => {
            // Best-effort cleanup; the error we report is the write's.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Loads a database from a file path, auto-detecting the format: a
/// `TDSS` prefix selects the binary snapshot decoder, anything else is
/// treated as JSON. A missing or unreadable file reports the path and
/// the failed operation, not just the raw I/O error.
pub fn load_from_path(path: &Path) -> Result<ShapeDatabase, PersistError> {
    // Both decoders want the whole file anyway (JSON parses a full
    // document, the snapshot decoder borrows sections out of the
    // buffer), so one `fs::read` replaces any buffered streaming.
    let bytes = file_ctx(std::fs::read(path), FileOp::Open, path)?;
    if bytes.starts_with(&SNAPSHOT_MAGIC) {
        load_binary_bytes(&bytes, path)
    } else {
        load_json(&bytes[..], path)
    }
}

/// Best-effort sniff of an existing file's on-disk format; `None` if
/// the file cannot be read. Lets `tdess index` and `tdess convert`
/// preserve whatever format a database is already in.
pub fn sniff_format(path: &Path) -> Option<SnapshotFormat> {
    let mut head = [0u8; 4];
    let mut f = std::fs::File::open(path).ok()?;
    match f.read_exact(&mut head) {
        Ok(()) if head == SNAPSHOT_MAGIC => Some(SnapshotFormat::Binary),
        Ok(()) => Some(SnapshotFormat::Json),
        Err(_) => Some(SnapshotFormat::Json),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Query;
    use tdess_features::{FeatureExtractor, FeatureKind};
    use tdess_geom::{primitives, Vec3};

    fn db() -> ShapeDatabase {
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 16,
            ..Default::default()
        });
        db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
            .unwrap();
        db.insert("sphere", primitives::uv_sphere(1.0, 12, 6))
            .unwrap();
        db.insert("rod", primitives::cylinder(0.3, 4.0, 12))
            .unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_search_behavior() {
        let db0 = db();
        let mut buf = Vec::new();
        save(&db0, &mut buf).unwrap();
        let db1 = load(buf.as_slice()).unwrap();

        assert_eq!(db0.len(), db1.len());
        assert_eq!(db1.get(2).unwrap().name, "sphere");

        let q = db0.get(1).unwrap().features.clone();
        for kind in FeatureKind::ALL {
            let a = db0.search(&q, &Query::top_k(kind, 3));
            let b = db1.search(&q, &Query::top_k(kind, 3));
            assert_eq!(a.len(), b.len(), "{kind:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "{kind:?}");
                assert!((x.distance - y.distance).abs() < 1e-12, "{kind:?}");
            }
            assert!((db0.dmax(kind) - db1.dmax(kind)).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("tdess_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        let db0 = db();
        save_to_path(&db0, &path).unwrap();
        let db1 = load_from_path(&path).unwrap();
        assert_eq!(db0.len(), db1.len());
        // Inserting into the reloaded DB continues id assignment.
        let mut db1 = db1;
        let id = db1
            .insert("torus", primitives::torus(1.5, 0.4, 16, 8))
            .unwrap();
        assert_eq!(id, 4);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(load("not json at all".as_bytes()).is_err());
        assert!(load_from_path(Path::new("/nonexistent/db.json")).is_err());
    }

    #[test]
    fn binary_roundtrip_is_bit_identical() {
        let db0 = db();
        let mut buf = Vec::new();
        save_binary(&db0, &mut buf).unwrap();
        assert_eq!(&buf[..4], b"TDSS");
        let db1 = load_binary_bytes(&buf, Path::new("<test>")).unwrap();

        assert_eq!(db0.len(), db1.len());
        assert_eq!(db1.get(2).unwrap().name, "sphere");
        let q = db0.get(1).unwrap().features.clone();
        for kind in FeatureKind::ALL {
            assert_eq!(
                db0.dmax(kind).to_bits(),
                db1.dmax(kind).to_bits(),
                "{kind:?} dmax"
            );
            let a = db0.search(&q, &Query::top_k(kind, 3));
            let b = db1.search(&q, &Query::top_k(kind, 3));
            assert_eq!(a.len(), b.len(), "{kind:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "{kind:?}");
                assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{kind:?}");
                assert_eq!(x.similarity.to_bits(), y.similarity.to_bits(), "{kind:?}");
            }
        }
        // Id assignment continues after a binary reload too.
        let mut db1 = db1;
        let id = db1
            .insert("torus", primitives::torus(1.5, 0.4, 16, 8))
            .unwrap();
        assert_eq!(id, 4);
    }

    #[test]
    fn load_from_path_sniffs_both_formats() {
        let dir = std::env::temp_dir().join("tdess_persist_sniff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let db0 = db();

        let json_path = dir.join("db.json");
        save_to_path_as(&db0, &json_path, SnapshotFormat::Json).unwrap();
        assert_eq!(sniff_format(&json_path), Some(SnapshotFormat::Json));
        let from_json = load_from_path(&json_path).unwrap();

        let bin_path = dir.join("db.tdss");
        save_to_path_as(&db0, &bin_path, SnapshotFormat::Binary).unwrap();
        assert_eq!(sniff_format(&bin_path), Some(SnapshotFormat::Binary));
        let from_bin = load_from_path(&bin_path).unwrap();

        assert_eq!(from_json.len(), from_bin.len());
        let q = db0.get(3).unwrap().features.clone();
        for kind in FeatureKind::ALL {
            let a = from_json.search(&q, &Query::top_k(kind, 3));
            let b = from_bin.search(&q, &Query::top_k(kind, 3));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
    }

    #[test]
    fn concurrent_saves_to_one_path_never_corrupt() {
        // Regression: the temp-file name used to be pid-only, so two
        // threads saving the same path shared one temp file and could
        // interleave or rename each other's partial bytes. The name
        // now embeds a per-call ticket; the target must always be a
        // complete snapshot written by exactly one of the savers.
        let dir = std::env::temp_dir().join("tdess_persist_race_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");

        let small = db();
        let mut big = db();
        big.insert("torus", primitives::torus(1.5, 0.4, 16, 8))
            .unwrap();

        std::thread::scope(|s| {
            let p1 = path.clone();
            let p2 = path.clone();
            let (small, big) = (&small, &big);
            let a = s.spawn(move || {
                for _ in 0..6 {
                    save_to_path(small, &p1).unwrap();
                }
            });
            let b = s.spawn(move || {
                for _ in 0..6 {
                    save_to_path_binary(big, &p2).unwrap();
                }
            });
            a.join().unwrap();
            b.join().unwrap();
        });

        let loaded = load_from_path(&path).unwrap();
        assert!(
            loaded.len() == small.len() || loaded.len() == big.len(),
            "loaded {} shapes, expected {} or {}",
            loaded.len(),
            small.len(),
            big.len()
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn failed_save_leaves_existing_file_intact() {
        let dir = std::env::temp_dir().join("tdess_persist_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        let db0 = db();
        save_to_path(&db0, &path).unwrap();

        // A writer that emits partial bytes and then fails — the
        // shape of a crash mid-serialize.
        let failed = atomic_write(&path, |w| {
            w.write_all(b"{\"partial\": ")?;
            Err(PersistError::Io(std::io::Error::other(
                "simulated mid-write failure",
            )))
        });
        assert!(failed.is_err());

        // The old file still loads in full and no temp file remains.
        let db1 = load_from_path(&path).unwrap();
        assert_eq!(db1.len(), db0.len());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn save_replaces_existing_file_atomically() {
        let dir = std::env::temp_dir().join("tdess_persist_replace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        // Seed the path with garbage; a successful save must fully
        // replace it.
        std::fs::write(&path, b"not json at all").unwrap();
        let db0 = db();
        save_to_path(&db0, &path).unwrap();
        let db1 = load_from_path(&path).unwrap();
        assert_eq!(db1.len(), db0.len());
    }

    #[test]
    fn save_to_missing_directory_errors() {
        let db0 = db();
        assert!(save_to_path(&db0, Path::new("/nonexistent/dir/db.json")).is_err());
    }

    #[test]
    fn file_errors_name_path_and_operation() {
        let db0 = db();
        // Failed save: the temp-file create is the failing step, and
        // the message says so, with the path it tried.
        let err = save_to_path(&db0, Path::new("/nonexistent/dir/db.json"))
            .expect_err("save into missing dir");
        assert!(matches!(
            err,
            PersistError::File {
                op: FileOp::CreateTemp,
                ..
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("create temp file"), "{msg}");
        assert!(msg.contains("/nonexistent/dir/"), "{msg}");

        // Failed load: open is the failing step.
        let err = load_from_path(Path::new("/nonexistent/db.json")).expect_err("load missing file");
        assert!(matches!(
            err,
            PersistError::File {
                op: FileOp::Open,
                ..
            }
        ));
        let msg = err.to_string();
        assert!(msg.starts_with("open"), "{msg}");
        assert!(msg.contains("/nonexistent/db.json"), "{msg}");
    }
}
