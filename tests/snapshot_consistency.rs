//! Crash-consistency and corruption suite for both snapshot formats,
//! plus the equivalence checks over the full 113-shape corpus: every
//! way of building and persisting a database must hand back one whose
//! search results are bit-identical.

use std::path::PathBuf;
use std::sync::OnceLock;

use serde::Value;
use threedess::core::{
    bulk_insert, load_from_path, save_to_path, save_to_path_binary, PersistError, Query,
    ShapeDatabase,
};
use threedess::dataset::build_corpus;
use threedess::features::{FeatureExtractor, FeatureKind};

/// The full 113-shape corpus indexed at a test-budget resolution,
/// built once per test binary.
fn corpus_db() -> &'static ShapeDatabase {
    static DB: OnceLock<ShapeDatabase> = OnceLock::new();
    DB.get_or_init(|| {
        let corpus = build_corpus(2004);
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 12,
            ..Default::default()
        });
        let shapes: Vec<_> = corpus
            .shapes
            .iter()
            .map(|s| (s.name.clone(), s.mesh.clone()))
            .collect();
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        bulk_insert(&mut db, shapes, threads).unwrap();
        db
    })
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tdess_snapshot_suite").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small binary snapshot on disk, for corruption experiments.
fn snapshot_bytes() -> Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES
        .get_or_init(|| {
            let mut db = ShapeDatabase::new(FeatureExtractor {
                voxel_resolution: 12,
                ..Default::default()
            });
            let corpus = build_corpus(2004);
            for s in corpus.shapes.iter().take(3) {
                db.insert(s.name.clone(), s.mesh.clone()).unwrap();
            }
            let mut buf = Vec::new();
            threedess::core::save_binary(&db, &mut buf).unwrap();
            buf
        })
        .clone()
}

fn load_bytes(name: &str, bytes: &[u8]) -> Result<ShapeDatabase, PersistError> {
    let path = test_dir("corruption").join(name);
    std::fs::write(&path, bytes).unwrap();
    load_from_path(&path)
}

/// Asserts that `a` and `b` answer a top-10 query from every `every`th
/// shape of `a` with the same ids, in the same order, at bit-identical
/// distances and similarities, in every feature space.
fn assert_same_answers(a: &ShapeDatabase, b: &ShapeDatabase, every: usize, what: &str) {
    for kind in FeatureKind::ALL {
        assert_eq!(
            a.dmax(kind).to_bits(),
            b.dmax(kind).to_bits(),
            "{what}: {kind:?} dmax"
        );
    }
    for shape in a.shapes().iter().step_by(every) {
        for kind in FeatureKind::ALL {
            let q = Query::top_k(kind, 10);
            let bits = |db: &ShapeDatabase| -> Vec<(u64, u64, u64)> {
                db.search(&shape.features, &q)
                    .iter()
                    .map(|h| (h.id, h.distance.to_bits(), h.similarity.to_bits()))
                    .collect()
            };
            assert_eq!(bits(a), bits(b), "{what}: {kind:?} hits for {}", shape.name);
        }
    }
}

/// The object field `key` of `v`.
fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
        other => panic!("`{key}`: expected an object, got {}", other.kind_name()),
    }
}

/// The array items of `v`.
fn items(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected an array, got {}", other.kind_name()),
    }
}

#[test]
fn truncated_snapshot_names_path_and_section() {
    let bytes = snapshot_bytes();
    // Cut the file in the middle of a section payload.
    let cut = bytes.len() / 2;
    let err = load_bytes("truncated.tdss", &bytes[..cut]).expect_err("truncated file must fail");
    match &err {
        PersistError::Corrupt { path, section, .. } => {
            assert!(path.to_string_lossy().contains("truncated.tdss"));
            assert!(
                ["header", "META", "SHPS", "FEAT", "database"].contains(section),
                "unexpected section {section}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("truncated.tdss"), "{msg}");

    // Cutting inside the 12-byte file header is also a typed error.
    let err = load_bytes("tiny.tdss", &bytes[..6]).expect_err("header-truncated file must fail");
    assert!(err.to_string().contains("tiny.tdss"), "{err}");
}

#[test]
fn flipped_payload_byte_fails_checksum() {
    let mut bytes = snapshot_bytes();
    // Flip one byte near the end (inside the FEAT payload), far from
    // the headers, so only the checksum can catch it.
    let idx = bytes.len() - 9;
    bytes[idx] ^= 0x40;
    let err = load_bytes("bitflip.tdss", &bytes).expect_err("bit flip must fail");
    match &err {
        PersistError::Corrupt {
            path,
            section,
            reason,
        } => {
            assert!(path.to_string_lossy().contains("bitflip.tdss"));
            assert_eq!(*section, "FEAT");
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // The flip pushed a value past ±1e150: with the FEAT checksum
    // patched to match, the value check is what rejects the file.
    let len_at = |b: &[u8], off: usize| u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
    let shps_header = 32 + len_at(&bytes, 16) as usize;
    let feat_header = shps_header + 20 + len_at(&bytes, shps_header + 4) as usize;
    let feat = feat_header + 20;
    let sum =
        threedess::core::checksum64(&bytes[feat..feat + len_at(&bytes, feat_header + 4) as usize]);
    bytes[feat_header + 12..feat_header + 20].copy_from_slice(&sum.to_le_bytes());
    match load_bytes("outofrange.tdss", &bytes).expect_err("out-of-range value must fail") {
        PersistError::Corrupt {
            section, reason, ..
        } => {
            assert_eq!(section, "FEAT");
            assert!(reason.contains("values beyond ±1e150"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn wrong_magic_is_typed_and_falls_back_to_json_parse() {
    let mut bytes = snapshot_bytes();
    bytes[0] = b'X';
    // Through the sniffing loader a non-TDSS prefix is treated as
    // JSON, which then fails to parse — also an error, but a Serde
    // one.
    let err = load_bytes("notmagic.tdss", &bytes).expect_err("corrupted magic must fail");
    assert!(
        matches!(err, PersistError::Serde(_)),
        "sniff fell back to JSON, got {err:?}"
    );
    // The binary decoder itself reports BadMagic with the path.
    let path = test_dir("corruption").join("notmagic.tdss");
    let err = threedess::core::load_binary(std::fs::File::open(&path).unwrap(), &path)
        .expect_err("bad magic must fail");
    match &err {
        PersistError::BadMagic { path, found } => {
            assert!(path.to_string_lossy().contains("notmagic.tdss"));
            assert_eq!(found[0], b'X');
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
    assert!(err.to_string().contains("header"), "{err}");
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = snapshot_bytes();
    // Version field is bytes 4..8 (little endian).
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = load_bytes("future.tdss", &bytes).expect_err("future version must fail");
    match &err {
        PersistError::UnsupportedVersion {
            path,
            found,
            supported,
        } => {
            assert!(path.to_string_lossy().contains("future.tdss"));
            assert_eq!(*found, 99);
            assert_eq!(*supported, threedess::core::SNAPSHOT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn hostile_tree_config_in_meta_is_rejected() {
    let mut bytes = snapshot_bytes();
    // META payload starts at byte 32 (12-byte file header + 20-byte
    // section header); min_entries is the u32 at payload offset 28.
    // Setting it to 0 must be caught by the shared RTreeConfig
    // validation — but the checksum trips first unless it is patched,
    // so patch the stored checksum to match the tampered payload.
    let meta_payload_start = 32;
    let min_entries_off = meta_payload_start + 28;
    bytes[min_entries_off..min_entries_off + 4].copy_from_slice(&0u32.to_le_bytes());
    // Recompute the META checksum over the tampered payload.
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let sum = threedess::core::checksum64(&bytes[meta_payload_start..meta_payload_start + len]);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
    let err = load_bytes("hostilecfg.tdss", &bytes).expect_err("min_entries=0 must fail");
    match &err {
        PersistError::Corrupt {
            section, reason, ..
        } => {
            assert_eq!(*section, "database");
            assert!(reason.contains("min_entries"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn json_and_binary_loads_are_bit_identical_over_corpus() {
    let db = corpus_db();
    let dir = test_dir("bit_identical");
    let json_path = dir.join("corpus.json");
    let bin_path = dir.join("corpus.tdss");
    save_to_path(db, &json_path).unwrap();
    save_to_path_binary(db, &bin_path).unwrap();

    let from_json = load_from_path(&json_path).unwrap();
    let from_bin = load_from_path(&bin_path).unwrap();
    assert_eq!(from_json.len(), db.len());
    assert_eq!(from_bin.len(), db.len());
    assert_same_answers(&from_json, &from_bin, 9, "JSON vs binary load");
}

/// `tdess index` builds a database by inserting shapes one at a time,
/// so its R-trees are shaped by insertion order; loading either format
/// rebuilds them with STR packing, and a batch build packs them too.
/// All four databases must answer alike, ties included.
#[test]
fn index_route_answers_match_every_load_path() {
    let batch = corpus_db();
    // `insert` is extraction followed by `insert_precomputed`; the
    // features come from the batch-built database.
    let mut inserted = ShapeDatabase::new(*batch.extractor());
    for s in batch.shapes() {
        inserted.insert_precomputed(s.name.clone(), s.mesh.clone(), s.features.clone());
    }
    let dir = test_dir("index_route");
    let json_path = dir.join("indexed.json");
    let bin_path = dir.join("converted.tdss");
    save_to_path(&inserted, &json_path).unwrap();
    let from_json = load_from_path(&json_path).unwrap();
    save_to_path_binary(&from_json, &bin_path).unwrap();
    let converted = load_from_path(&bin_path).unwrap();

    assert_same_answers(&inserted, batch, 9, "inserted vs batch-built");
    assert_same_answers(&inserted, &from_json, 9, "inserted vs JSON reload");
    assert_same_answers(&inserted, &converted, 9, "inserted vs TDSS conversion");
}

/// A JSON file is validated as a `TDSS` snapshot is: every invalid
/// part is rejected at load with `Corrupt` in section `database`,
/// never left to panic a later search or insert.
#[test]
fn hostile_json_is_rejected_at_load() {
    let db = load_bytes("valid.tdss", &snapshot_bytes()).unwrap();
    let mut json = Vec::new();
    threedess::core::save(&db, &mut json).unwrap();
    let valid: Value = serde_json::from_reader(&json[..]).unwrap();

    type Edit = fn(&mut Value);
    let cases: [(&str, &str, Edit); 6] = [
        ("missing_dmax.json", "missing dmax", |v| {
            let Value::Obj(kinds) = field(v, "dmax") else {
                panic!("dmax is not an object");
            };
            kinds.retain(|(k, _)| k != "Eigenvalues");
        }),
        ("short_vector.json", "values", |v| {
            let shape = &mut items(field(v, "shapes"))[1];
            items(field(field(shape, "features"), "geometric")).pop();
        }),
        ("null_value.json", "non-finite", |v| {
            let shape = &mut items(field(v, "shapes"))[2];
            items(field(field(shape, "features"), "shell_histogram"))[3] = Value::Null;
        }),
        ("zero_min_entries.json", "min_entries", |v| {
            *field(field(v, "config"), "min_entries") = Value::Int(0);
        }),
        ("zero_spectrum_dim.json", "spectrum_dim", |v| {
            *field(field(v, "extractor"), "spectrum_dim") = Value::Int(0);
        }),
        ("bad_index.json", "out-of-bounds vertex index", |v| {
            let shape = &mut items(field(v, "shapes"))[0];
            let triangle = &mut items(field(field(shape, "mesh"), "triangles"))[0];
            items(triangle)[2] = Value::Int(1 << 20);
        }),
    ];
    for (file, why, edit) in cases {
        let mut hostile = valid.clone();
        edit(&mut hostile);
        let bytes = serde_json::to_string(&hostile).unwrap();
        match load_bytes(file, bytes.as_bytes()) {
            Err(PersistError::Corrupt {
                path,
                section,
                reason,
            }) => {
                assert!(path.to_string_lossy().contains(file), "{file}");
                assert_eq!(section, "database", "{file}: {reason}");
                assert!(reason.contains(why), "{file}: {reason}");
            }
            Ok(_) => panic!("{file}: loaded"),
            Err(other) => panic!("{file}: expected Corrupt, got {other}"),
        }
    }
}

/// JSON files written while the format still stored the R-trees (an
/// `indexes` object and no `config`) load, rebuild their trees, and
/// answer exactly as the same database saved in the current layout.
#[test]
fn json_with_stored_trees_loads_like_current_layout() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/tree_layout.json"
    );
    let bytes = std::fs::read(fixture).unwrap();
    let old: Value = serde_json::from_reader(&bytes[..]).unwrap();
    assert!(old.get("indexes").is_some() && old.get("config").is_none());
    let from_old = load_from_path(std::path::Path::new(fixture)).unwrap();

    let mut json = Vec::new();
    threedess::core::save(&from_old, &mut json).unwrap();
    let new: Value = serde_json::from_reader(&json[..]).unwrap();
    assert!(new.get("indexes").is_none() && new.get("config").is_some());
    assert_eq!(
        serde_json::to_string(&old.get("shapes")).unwrap(),
        serde_json::to_string(&new.get("shapes")).unwrap(),
        "the shapes array is written as before"
    );
    let from_new = load_bytes("current_layout.json", &json).unwrap();
    assert_same_answers(&from_old, &from_new, 1, "stored-tree vs current layout");
}

/// Lookups by id binary-search the stored shapes, so both loaders
/// reject a snapshot whose ids are not strictly ascending.
#[test]
fn non_ascending_ids_are_rejected() {
    let expect_unordered = |err: PersistError, file: &str| match &err {
        PersistError::Corrupt {
            path,
            section,
            reason,
        } => {
            assert!(path.to_string_lossy().contains(file), "{err}");
            assert_eq!(*section, "database");
            assert!(reason.contains("not strictly ascending"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    };

    // Binary: swap the ids of the first two SHPS records (1 and 2) and
    // patch the section checksum so only the id check can object.
    let mut bytes = snapshot_bytes();
    let u32_at = |b: &[u8], off: usize| u32::from_le_bytes(b[off..off + 4].try_into().unwrap());
    let meta_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let shps_header = 32 + meta_len;
    let shps_len = u64::from_le_bytes(bytes[shps_header + 4..shps_header + 12].try_into().unwrap());
    let first = shps_header + 20;
    let name_len = u32_at(&bytes, first + 8) as usize;
    let counts = first + 12 + name_len;
    let (nv, nt) = (
        u32_at(&bytes, counts) as usize,
        u32_at(&bytes, counts + 4) as usize,
    );
    let second = counts + 8 + nv * 24 + nt * 12;
    bytes[first..first + 8].copy_from_slice(&2u64.to_le_bytes());
    bytes[second..second + 8].copy_from_slice(&1u64.to_le_bytes());
    let sum = threedess::core::checksum64(&bytes[first..first + shps_len as usize]);
    bytes[shps_header + 12..shps_header + 20].copy_from_slice(&sum.to_le_bytes());
    let err = load_bytes("unordered.tdss", &bytes).expect_err("unordered ids must fail");
    expect_unordered(err, "unordered.tdss");

    // JSON: the same swap in the text form.
    let db = load_bytes("ordered.tdss", &snapshot_bytes()).unwrap();
    let mut json = Vec::new();
    threedess::core::save(&db, &mut json).unwrap();
    let json = String::from_utf8(json).unwrap();
    let (one, two) = (r#"{"id":1,"name""#, r#"{"id":2,"name""#);
    assert!(
        json.contains(one) && json.contains(two),
        "shape records not found"
    );
    let swapped = json
        .replace(one, "\u{0}")
        .replace(two, one)
        .replace('\u{0}', two);
    let err =
        load_bytes("unordered.json", swapped.as_bytes()).expect_err("unordered ids must fail");
    expect_unordered(err, "unordered.json");
}
