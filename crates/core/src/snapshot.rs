//! Binary snapshot format for [`ShapeDatabase`] (the `TDSS` format).
//!
//! Both persistence formats store the same parts: the extractor
//! config, the id counter, the R-tree fan-out, the per-kind `dmax`
//! table and the shapes with their feature vectors. Neither stores the
//! R-trees; loading rebuilds them in one pass with
//! [`RTree::bulk_load`](tdess_index::RTree::bulk_load) (STR packing)
//! through the one assembly path both formats share. The JSON form in
//! [`crate::persist`] parses a text value tree, which is fine at 113
//! shapes and hopeless at 10⁵ (the paper's §2.3 index-efficiency claim
//! is stated over synthetic databases of that size). This module is
//! the scale path: a versioned, sectioned, checksummed binary layout
//! with fixed-stride little-endian feature arrays, so loading is a
//! linear bounds-checked decode instead of a parse.
//!
//! # Layout (version 1)
//!
//! ```text
//! offset 0   magic  "TDSS"           (4 bytes)
//! offset 4   format version          (u32 LE)
//! offset 8   section count           (u32 LE, = 3 in v1)
//! then, per section, a header followed by its payload:
//!            tag                     (4 bytes ASCII)
//!            payload length          (u64 LE)
//!            payload checksum        (u64 LE, [`checksum64`])
//!            payload bytes
//! ```
//!
//! Sections appear in a fixed order:
//!
//! * `META` — extractor configuration, id counter, shape count,
//!   R-tree fan-out, and the per-kind dimensions + `dmax` table;
//! * `SHPS` — per shape: id, name, and mesh (vertex/triangle arrays);
//! * `FEAT` — per feature kind, the feature vectors of all shapes as
//!   one contiguous `shape_count × dim` little-endian `f64` array
//!   (vector `i` of a kind lives at byte offset `i * dim * 8` inside
//!   the kind's block — a fixed stride, so a future memory-mapped
//!   reader can address it without parsing).
//!
//! # Versioning and compatibility
//!
//! The version integer is bumped on any layout change; readers reject
//! versions they do not know ([`PersistError::UnsupportedVersion`])
//! rather than guessing. The JSON format remains the compatibility and
//! debugging path: [`crate::persist::load_from_path`] sniffs the first
//! four bytes and dispatches to whichever decoder matches.
//!
//! # Trust model
//!
//! Decode treats the file as untrusted: every section is checksummed,
//! every field is read through [`crate::le::Reader`] (no read past the
//! section, every declared count checked against the bytes present
//! before allocating, trailing bytes rejected), the declared counts
//! are capped as well, and the decoded parts pass the same checks a
//! JSON load applies (extractor config, mesh indices and coordinates,
//! feature dimensions and finiteness, `dmax`, R-tree config via
//! `RTreeConfig::validate`, strictly ascending ids) before a database
//! is produced. The two formats differ only in which section an error
//! names: a JSON file has one, `database`.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use tdess_features::{
    features_in_range, FeatureExtractor, FeatureKind, FeatureSet, MAX_FEATURE_MAGNITUDE,
};
use tdess_geom::io::{MAX_MESH_FACES, MAX_MESH_VERTICES};
use tdess_geom::TriMesh;
use tdess_index::RTreeConfig;

use crate::db::{ShapeDatabase, ShapeId, StoredShape};
use crate::le::{LeError, Reader, Writer};
use crate::persist::{corrupt, PersistError};

/// First four bytes of every binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TDSS";
/// Newest format version this build reads and the one it writes.
pub const SNAPSHOT_VERSION: u32 = 1;

const SECTION_META: &str = "META";
const SECTION_SHPS: &str = "SHPS";
const SECTION_FEAT: &str = "FEAT";
/// Sections in a version 1 snapshot.
const SECTION_COUNT: u32 = 3;

/// Cap on a declared section length. A hostile header cannot demand
/// more than this; real sections are far smaller (the feature block of
/// a 10⁵-shape database is ~100 MB).
pub const MAX_SECTION_BYTES: u64 = 1 << 33;
/// Cap on the declared shape count.
pub const MAX_SNAPSHOT_SHAPES: usize = 1 << 24;
/// Cap on a declared shape-name length in bytes.
pub const MAX_NAME_BYTES: usize = 1 << 16;
/// Cap on a declared per-kind feature dimension.
pub const MAX_FEATURE_DIM: usize = 1 << 16;

/// 64-bit section checksum: four independent multiply–rotate lanes
/// over little-endian 64-bit words, merged and finished with a
/// splitmix64-style avalanche.
///
/// Chosen over table-driven CRC-32 because checksumming is on the
/// snapshot load path and this folds 32 bytes per iteration with
/// three ALU ops per word (xor, multiply by an odd constant, rotate)
/// — several times faster than slice-by-N lookups, in safe Rust.
/// Detection properties: for fixed surrounding data each lane's
/// absorb step `acc = rotl((acc ^ w) * K)` is a bijection on `u64`,
/// so any corruption confined to a single 8-byte word changes the
/// final checksum with certainty; corruption spanning several words
/// is missed with probability ~2⁻⁶⁴. The input length participates in
/// the finalizer, so zero-padded tails of different lengths differ.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut sum = StreamSum::new();
    sum.absorb(data);
    sum.finish()
}

const SUM_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];

fn absorb_word(acc: u64, w: u64, k: u64) -> u64 {
    (acc ^ w).wrapping_mul(k).rotate_left(29)
}

/// Streaming form of [`checksum64`]: absorb any sequence of slices,
/// finish to exactly the value `checksum64` yields over their
/// concatenation. Lets the snapshot decoder verify a section in the
/// same pass that parses it instead of streaming multi-megabyte
/// payloads through memory twice.
struct StreamSum {
    acc: [u64; 4],
    /// Staging for a partial 32-byte stripe between absorb calls.
    stripe: [u8; 32],
    staged: usize,
    len: u64,
}

impl StreamSum {
    fn new() -> StreamSum {
        StreamSum {
            acc: [
                0x243F_6A88_85A3_08D3,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            stripe: [0u8; 32],
            staged: 0,
            len: 0,
        }
    }

    fn absorb_stripe(&mut self, c: &[u8]) {
        debug_assert_eq!(c.len(), 32);
        self.acc[0] = absorb_word(
            self.acc[0],
            u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]),
            SUM_KEYS[0],
        );
        self.acc[1] = absorb_word(
            self.acc[1],
            u64::from_le_bytes([c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15]]),
            SUM_KEYS[1],
        );
        self.acc[2] = absorb_word(
            self.acc[2],
            u64::from_le_bytes([c[16], c[17], c[18], c[19], c[20], c[21], c[22], c[23]]),
            SUM_KEYS[2],
        );
        self.acc[3] = absorb_word(
            self.acc[3],
            u64::from_le_bytes([c[24], c[25], c[26], c[27], c[28], c[29], c[30], c[31]]),
            SUM_KEYS[3],
        );
    }

    fn absorb(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.staged > 0 {
            let take = (32 - self.staged).min(data.len());
            self.stripe[self.staged..self.staged + take].copy_from_slice(&data[..take]);
            self.staged += take;
            data = &data[take..];
            if self.staged < 32 {
                return;
            }
            let full = self.stripe;
            self.absorb_stripe(&full);
            self.staged = 0;
        }
        let mut stripes = data.chunks_exact(32);
        for c in &mut stripes {
            self.absorb_stripe(c);
        }
        let rem = stripes.remainder();
        self.stripe[..rem.len()].copy_from_slice(rem);
        self.staged = rem.len();
    }

    fn finish(self) -> u64 {
        let mut acc = self.acc;
        let rem = &self.stripe[..self.staged];
        let mut lane = 0;
        let mut words = rem.chunks_exact(8);
        for c in &mut words {
            let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            acc[lane] = absorb_word(acc[lane], w, SUM_KEYS[lane]);
            lane += 1;
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            acc[lane] = absorb_word(acc[lane], u64::from_le_bytes(last), SUM_KEYS[lane]);
        }
        let mut h = acc[0].rotate_left(1)
            ^ acc[1].rotate_left(7)
            ^ acc[2].rotate_left(12)
            ^ acc[3].rotate_left(18);
        h ^= self.len;
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        h
    }
}

/// Path used in errors from the writer/reader-level entry points,
/// where no file is involved.
pub(crate) const STREAM: &str = "<stream>";

/// Serializes the database to a writer in the binary snapshot format.
///
/// The encoder enforces the same limits the decoder does
/// ([`MAX_SNAPSHOT_SHAPES`], [`MAX_NAME_BYTES`], mesh caps), so any
/// file this writes is one the decoder accepts.
pub fn save_binary<W: Write>(db: &ShapeDatabase, mut w: W) -> Result<(), PersistError> {
    let shapes = db.shapes();
    let extractor = db.extractor();
    let config = db.index_config();
    let stream = |section, reason: String| corrupt(Path::new(STREAM), section, reason);

    if shapes.len() > MAX_SNAPSHOT_SHAPES {
        return Err(stream(
            SECTION_META,
            format!(
                "database holds {} shapes, format cap is {MAX_SNAPSHOT_SHAPES}",
                shapes.len()
            ),
        ));
    }

    let mut meta = Writer::new();
    meta.put_u32(extractor.voxel_resolution as u32);
    meta.put_u32(extractor.spectrum_dim as u32);
    meta.put_u64(db.next_id());
    meta.put_u64(shapes.len() as u64);
    meta.put_u32(config.max_entries as u32);
    meta.put_u32(config.min_entries as u32);
    meta.put_u32(FeatureKind::ALL.len() as u32);
    for kind in FeatureKind::ALL {
        meta.put_u32(extractor.dim(kind) as u32);
        meta.put_f64(db.dmax(kind));
    }

    let mut shps = Writer::new();
    for s in shapes {
        if s.name.len() > MAX_NAME_BYTES {
            return Err(stream(
                SECTION_SHPS,
                format!("shape {} name exceeds {MAX_NAME_BYTES} bytes", s.id),
            ));
        }
        if s.mesh.vertices.len() > MAX_MESH_VERTICES || s.mesh.triangles.len() > MAX_MESH_FACES {
            return Err(stream(
                SECTION_SHPS,
                format!("shape {} mesh exceeds format caps", s.id),
            ));
        }
        shps.put_u64(s.id);
        shps.put_str(&s.name);
        shps.put_count(s.mesh.vertices.len());
        shps.put_count(s.mesh.triangles.len());
        shps.put_vertices(&s.mesh.vertices);
        shps.put_triangles(&s.mesh.triangles);
    }

    let mut feat = Writer::new();
    for kind in FeatureKind::ALL {
        for s in shapes {
            feat.put_f64s(s.features.get(kind));
        }
    }

    let bytes = |body: Writer, section| body.into_bytes().map_err(|e| stream(section, e.into()));
    let mut file = Writer::new();
    file.put_bytes(&SNAPSHOT_MAGIC);
    file.put_u32(SNAPSHOT_VERSION);
    file.put_u32(SECTION_COUNT);
    w.write_all(&bytes(file, "header")?)?;
    for (section, body) in [
        (SECTION_META, meta),
        (SECTION_SHPS, shps),
        (SECTION_FEAT, feat),
    ] {
        let payload = bytes(body, section)?;
        let mut head = Writer::new();
        head.put_bytes(section.as_bytes());
        head.put_u64(payload.len() as u64);
        head.put_u64(checksum64(&payload));
        w.write_all(&bytes(head, section)?)?;
        w.write_all(&payload)?;
    }
    Ok(())
}

/// Everything the `META` section declares.
struct Meta {
    extractor: FeatureExtractor,
    next_id: ShapeId,
    shape_count: usize,
    config: RTreeConfig,
    dims: Vec<usize>,
    /// Indexed by `FeatureKind as usize`.
    dmax: [f64; FeatureKind::ALL.len()],
}

/// Rejects extractor settings no database could have been built with
/// (and a spectrum dimension past [`MAX_FEATURE_DIM`], which would
/// size the feature arrays). Shared by both formats.
pub(crate) fn check_extractor(extractor: &FeatureExtractor) -> Result<(), String> {
    let FeatureExtractor {
        voxel_resolution,
        spectrum_dim,
    } = *extractor;
    if voxel_resolution == 0 || spectrum_dim == 0 || spectrum_dim > MAX_FEATURE_DIM {
        // hotpath: allow(hot-alloc) — error path: formats once, then the load aborts; `load` is on the hot path only by name
        return Err(format!(
            "implausible extractor config: voxel_resolution {voxel_resolution}, \
             spectrum_dim {spectrum_dim}"
        ));
    }
    Ok(())
}

/// Rejects a feature vector that does not hold exactly `dim` values
/// within ±[`MAX_FEATURE_MAGNITUDE`] (so finite, and no distance
/// between two accepted vectors overflows), `dim` being the extractor's
/// dimension for `kind`. Shared by both load formats, which prefix the
/// shape id, and by the network front end for submitted vectors. A
/// `TDSS` vector has `dim` values by construction, so only its values
/// can fail there.
pub fn check_vector(kind: FeatureKind, v: &[f64], dim: usize) -> Result<(), String> {
    if v.len() != dim {
        // hotpath: allow(hot-alloc) — formats only on the rejected path: the load aborts or the request is refused
        return Err(format!(
            "{kind:?} vector has {} values, the extractor config implies {dim}",
            v.len()
        ));
    }
    if !features_in_range(v) {
        return Err(format!(
            "{kind:?} vector has non-finite values or values beyond ±{MAX_FEATURE_MAGNITUDE:e}"
        ));
    }
    Ok(())
}

fn decode_meta(payload: &[u8]) -> Result<Meta, String> {
    let mut r = Reader::new(payload);
    let voxel_resolution = r.get_u32()? as usize;
    let spectrum_dim = r.get_u32()? as usize;
    let next_id = r.get_u64()?;
    let shape_count_raw = r.get_u64()?;
    let max_entries = r.get_u32()? as usize;
    let min_entries = r.get_u32()? as usize;
    let kind_count = r.get_u32()? as usize;

    let shape_count = usize::try_from(shape_count_raw).unwrap_or(usize::MAX);
    if shape_count > MAX_SNAPSHOT_SHAPES {
        return Err(format!(
            "declared shape count {shape_count_raw} exceeds cap {MAX_SNAPSHOT_SHAPES}"
        ));
    }
    let extractor = FeatureExtractor {
        voxel_resolution,
        spectrum_dim,
    };
    check_extractor(&extractor)?;
    if kind_count != FeatureKind::ALL.len() {
        return Err(format!(
            "declared {kind_count} feature kinds, this build knows {}",
            FeatureKind::ALL.len()
        ));
    }
    let mut dims = Vec::with_capacity(FeatureKind::ALL.len());
    let mut dmax = [0.0; FeatureKind::ALL.len()];
    for kind in FeatureKind::ALL {
        let dim = r.get_u32()? as usize;
        if dim != extractor.dim(kind) {
            return Err(format!(
                "declared dimension {dim} for {kind:?}, extractor config implies {}",
                extractor.dim(kind)
            ));
        }
        dims.push(dim);
        dmax[kind as usize] = r.get_f64()?;
    }
    r.expect_end()?;
    Ok(Meta {
        extractor,
        next_id,
        shape_count,
        config: RTreeConfig {
            max_entries,
            min_entries,
        },
        dims,
        dmax,
    })
}

fn empty_feature_set() -> FeatureSet {
    FeatureSet {
        moment_invariants: Vec::new(),
        geometric: Vec::new(),
        principal_moments: Vec::new(),
        eigenvalues: Vec::new(),
        higher_order: Vec::new(),
        shape_distribution: Vec::new(),
        shell_histogram: Vec::new(),
    }
}

fn decode_shapes(payload: &[u8], shape_count: usize) -> Result<Vec<Arc<StoredShape>>, String> {
    let mut r = Reader::new(payload);
    // shape_count was capped against MAX_SNAPSHOT_SHAPES in META, and
    // is re-bounded here where the allocation it sizes lives.
    if shape_count > MAX_SNAPSHOT_SHAPES {
        return Err(format!(
            "shape count {shape_count} exceeds cap {MAX_SNAPSHOT_SHAPES}"
        ));
    }
    let mut shapes = Vec::with_capacity(shape_count.min(MAX_SNAPSHOT_SHAPES));
    for _ in 0..shape_count {
        let id = r.get_u64()?;
        let name = r.get_str()?;
        if name.len() > MAX_NAME_BYTES {
            return Err(format!(
                "declared name length {} exceeds cap {MAX_NAME_BYTES}",
                name.len()
            ));
        }
        let nv = r.get_count(24)?;
        let nt = r.get_count(12)?;
        if nv > MAX_MESH_VERTICES {
            return Err(format!(
                "declared vertex count {nv} exceeds cap {MAX_MESH_VERTICES}"
            ));
        }
        if nt > MAX_MESH_FACES {
            return Err(format!(
                "declared triangle count {nt} exceeds cap {MAX_MESH_FACES}"
            ));
        }
        let mesh = TriMesh {
            vertices: r.get_vertices(nv)?,
            triangles: r.get_triangles(nt)?,
        };
        mesh.check_input()
            .map_err(|defect| format!("shape {id}: {defect}"))?;
        shapes.push(Arc::new(StoredShape {
            id,
            name: name.to_string(),
            mesh,
            features: empty_feature_set(),
        }));
    }
    r.expect_end()?;
    Ok(shapes)
}

/// Fills `shapes[i].features` from the fixed-stride `FEAT` arrays and
/// verifies the section's checksum. The shapes are the unshared records
/// [`decode_shapes`] just allocated, filled in place so no second copy
/// of them is ever built.
fn decode_features(
    payload: &[u8],
    declared_sum: u64,
    shapes: &mut [Arc<StoredShape>],
    dims: &[usize],
) -> Result<(), String> {
    let mut r = Reader::new(payload);
    // The checksum is folded in one kind-block ahead of the vector
    // decode below, so this multi-megabyte section is streamed
    // through memory once, not twice, and the block being decoded is
    // still cache-warm. Corruption is still always detected before
    // any decoded value escapes: nothing is returned until the final
    // whole-payload verdict.
    let mut sum = StreamSum::new();
    for (kind, &dim) in FeatureKind::ALL.into_iter().zip(dims) {
        if dim > MAX_FEATURE_DIM {
            return Err(format!(
                "dimension {dim} for {kind:?} exceeds cap {MAX_FEATURE_DIM}"
            ));
        }
        let block = r.get_unread();
        let block_len = shapes.len().saturating_mul(dim).saturating_mul(8);
        sum.absorb(&block[..block_len.min(block.len())]);
        for shape in shapes.iter_mut() {
            let Some(shape) = Arc::get_mut(shape) else {
                return Err("shape record shared during decode".to_string());
            };
            let v = r.get_f64s(dim)?;
            // Checked here, while the freshly decoded values are
            // cache-hot, instead of in a second pass over every vector.
            if let Err(reason) = check_vector(kind, &v, dim) {
                // A flipped bit can push a value out of range: when the
                // whole payload's checksum fails too, that is the fault.
                sum.absorb(&block[block_len.min(block.len())..]);
                sum_matches(sum.finish(), declared_sum)?;
                return Err(format!("shape {}: {reason}", shape.id));
            }
            match kind {
                FeatureKind::MomentInvariants => shape.features.moment_invariants = v,
                FeatureKind::GeometricParams => shape.features.geometric = v,
                FeatureKind::PrincipalMoments => shape.features.principal_moments = v,
                FeatureKind::Eigenvalues => shape.features.eigenvalues = v,
                FeatureKind::HigherOrder => shape.features.higher_order = v,
                FeatureKind::ShapeDistribution => shape.features.shape_distribution = v,
                FeatureKind::ShellHistogram => shape.features.shell_histogram = v,
            }
        }
    }
    r.expect_end()?;
    sum_matches(sum.finish(), declared_sum)
}

/// Compares a section's checksum with its header's claim.
fn sum_matches(actual: u64, declared: u64) -> Result<(), String> {
    if actual != declared {
        return Err(format!(
            "checksum mismatch: header says {declared:#018x}, payload is {actual:#018x}"
        ));
    }
    Ok(())
}

/// Reads the next section's header (tag, length under its cap,
/// checksum), borrows its payload out of the file, and hands both to
/// `decode`. Every failure, `decode`'s included, is `Corrupt` naming
/// the section.
fn read_section<'a, T>(
    file: &mut Reader<'a>,
    section: &'static str,
    path: &Path,
    decode: impl FnOnce(&'a [u8], u64) -> Result<T, String>,
) -> Result<T, PersistError> {
    let framed = || {
        let tag: [u8; 4] = file.get_array()?;
        if tag != section.as_bytes() {
            return Err(format!(
                "expected section tag {section:?}, found {:?}",
                String::from_utf8_lossy(&tag)
            ));
        }
        let len = file.get_u64()?;
        let declared_sum = file.get_u64()?;
        if len > MAX_SECTION_BYTES {
            return Err(format!(
                "declared length {len} exceeds cap {MAX_SECTION_BYTES}"
            ));
        }
        let payload = file.get_bytes(usize::try_from(len).unwrap_or(usize::MAX))?;
        decode(payload, declared_sum)
    };
    framed().map_err(|reason| corrupt(path, section, reason))
}

/// Decodes a binary snapshot from a reader. `path` is used only in
/// error messages (pass the file's path, or anything descriptive for
/// in-memory readers).
///
/// The whole stream is read into memory first and decoded from the
/// buffer: sections are borrowed rather than copied, and the only
/// allocation sized by the input is bounded by the bytes the stream
/// actually delivered, never by a declared length.
pub fn load_binary<R: Read>(mut r: R, path: &Path) -> Result<ShapeDatabase, PersistError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf).map_err(PersistError::Io)?;
    load_binary_bytes(&buf, path)
}

/// Decodes a binary snapshot already sitting in memory.
pub fn load_binary_bytes(buf: &[u8], path: &Path) -> Result<ShapeDatabase, PersistError> {
    let mut file = Reader::new(buf);
    let header = |file: &mut Reader<'_>| -> Result<_, LeError> {
        Ok((file.get_array::<4>()?, file.get_u32()?, file.get_u32()?))
    };
    let (magic, version, section_count) =
        header(&mut file).map_err(|e| corrupt(path, "header", e))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic {
            path: path.to_path_buf(),
            found: magic,
        });
    }
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    if section_count != SECTION_COUNT {
        return Err(corrupt(
            path,
            "header",
            format!("version 1 snapshots have 3 sections, header declares {section_count}"),
        ));
    }

    let meta = read_section(&mut file, SECTION_META, path, |payload, declared| {
        sum_matches(checksum64(payload), declared)?;
        decode_meta(payload)
    })?;
    let mut shapes = read_section(&mut file, SECTION_SHPS, path, |payload, declared| {
        sum_matches(checksum64(payload), declared)?;
        decode_shapes(payload, meta.shape_count)
    })?;
    // FEAT verifies its (much larger) payload in the pass that parses it.
    read_section(&mut file, SECTION_FEAT, path, |payload, declared| {
        decode_features(payload, declared, &mut shapes, &meta.dims)
    })?;

    ShapeDatabase::from_loaded_parts(meta.extractor, meta.next_id, shapes, meta.dmax, meta.config)
        .map_err(|reason| corrupt(path, "database", reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        assert_eq!(checksum64(&data), checksum64(&data));
        // Flipping any single bit of any byte must change the sum —
        // single-word corruption detection is certain, not
        // probabilistic (see the function docs).
        let base = checksum64(&data);
        for i in (0..data.len()).step_by(97) {
            let mut tampered = data.clone();
            tampered[i] ^= 0x10;
            assert_ne!(checksum64(&tampered), base, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn checksum_distinguishes_zero_padded_lengths() {
        // The tail is zero-padded before absorption, so the length
        // term in the finalizer must keep "abc" and "abc\0" apart.
        assert_ne!(checksum64(b"abc"), checksum64(b"abc\0"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(&[0u8; 8]), checksum64(&[0u8; 16]));
    }

    /// A vector passes with exactly `dim` values within ±1e150; a
    /// wrong length, a NaN, an infinity or a 1e200 component (whose
    /// square overflows a distance) is rejected.
    #[test]
    fn check_vector_bounds_lengths_and_magnitudes() {
        let kind = FeatureKind::GeometricParams;
        let ok = [1.0, -1e150, 1e150, 0.0, 2e-48];
        assert_eq!(check_vector(kind, &ok, 5), Ok(()));
        assert!(check_vector(kind, &ok[..4], 5)
            .unwrap_err()
            .contains("4 values"));
        for bad in [f64::NAN, f64::INFINITY, -f64::INFINITY, 1e200, -1e151] {
            let mut v = ok;
            v[2] = bad;
            let err = check_vector(kind, &v, 5).unwrap_err();
            assert!(
                err.contains("non-finite values or values beyond ±1e150"),
                "{bad}: {err}"
            );
        }
    }
}
