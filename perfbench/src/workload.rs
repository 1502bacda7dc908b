//! The two workloads and their seeded request streams. Every input is
//! derived from the workload seed; the server only ever sees the
//! generated requests, so two runs with one seed do the same work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdess_core::{MultiStepPlan, Query, ShapeId};
use tdess_dataset::{synth_corpus, Family};
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet};
use tdess_geom::{Mat3, TriMesh, Vec3};
use tdess_net::Request;

use crate::procs::{Snapshot, CORPUS_RESOLUTION, SYNTH_RESOLUTION, SYNTH_SEED};

/// Hits per search request.
pub const TOP_K: usize = 10;
/// Distinct query points of the `features` stream; coprime to the
/// seven kinds it cycles through, so every point meets every kind.
const QUERY_POINTS: usize = 2000;
/// Requests pre-generated for `example`: about 17 times what a 25 s
/// phase sends today (≈120/s), so a much faster extraction still
/// measures for the whole phase. A run that exhausts the stream says so.
const EXAMPLE_OPS: usize = 50_000;
/// Every n-th `example` request is a part's first sighting (20%).
const FRESH_EVERY: usize = 5;
/// Every n-th `example` request (offset 3) is multi-step (25%).
const MULTISTEP_EVERY: usize = 4;
/// One-shot kinds of `example`: the paper's four feature vectors.
const EXAMPLE_KINDS: [FeatureKind; 4] = [
    FeatureKind::MomentInvariants,
    FeatureKind::GeometricParams,
    FeatureKind::PrincipalMoments,
    FeatureKind::Eigenvalues,
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Features,
    Example,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "features" => Some(Workload::Features),
            "example" => Some(Workload::Example),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Features => "features",
            Workload::Example => "example",
        }
    }

    pub fn snapshot(self) -> Snapshot {
        match self {
            Workload::Example => Snapshot::Corpus,
            Workload::Features => Snapshot::Synthetic,
        }
    }

    /// The extractor of the served database.
    pub fn extractor(self) -> FeatureExtractor {
        let voxel_resolution = match self.snapshot() {
            Snapshot::Corpus => CORPUS_RESOLUTION,
            Snapshot::Synthetic => SYNTH_RESOLUTION,
        };
        FeatureExtractor {
            voxel_resolution,
            ..Default::default()
        }
    }
}

/// A sub-seed for one purpose, so streams drawn from one workload seed
/// are independent (splitmix64 finalizer).
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut x = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What one read asks for.
#[derive(Clone)]
pub enum ReadBody {
    /// `SearchFeatures` with the stream's query point.
    Features(FeatureSet),
    /// `SearchMesh` or `MultiStep` with stream part `part`.
    Mesh { part: usize, fresh: bool },
}

/// One read of a stream, before it becomes a wire request.
#[derive(Clone)]
pub struct Read {
    pub body: ReadBody,
    /// `Some` for a one-shot search, `None` for multi-step.
    pub query: Option<Query>,
}

/// A workload's read stream: request `i` is a pure function of the
/// seed and `i`.
pub enum ReadStream {
    /// `SearchFeatures` top-10, cycling over all seven kinds and over
    /// unseen query points.
    Features(Vec<FeatureSet>),
    /// Query-by-example over fresh parts and Zipf-chosen repeats.
    Example {
        parts: Vec<TriMesh>,
        reads: Vec<Read>,
    },
}

impl ReadStream {
    pub fn new(workload: Workload, seed: u64) -> Result<ReadStream, String> {
        match workload {
            Workload::Features => feature_stream(workload, seed),
            Workload::Example => Ok(example_stream(seed)),
        }
    }

    /// Requests available; `usize::MAX` for the cyclic features stream.
    pub fn len(&self) -> usize {
        match self {
            ReadStream::Features(_) => usize::MAX,
            ReadStream::Example { reads, .. } => reads.len(),
        }
    }

    pub fn read(&self, i: usize) -> Read {
        match self {
            ReadStream::Features(points) => Read {
                body: ReadBody::Features(points[i % points.len()].clone()),
                query: Some(Query::top_k(
                    FeatureKind::ALL[i % FeatureKind::ALL.len()],
                    TOP_K,
                )),
            },
            ReadStream::Example { reads, .. } => reads[i].clone(),
        }
    }

    pub fn mesh(&self, part: usize) -> &TriMesh {
        match self {
            ReadStream::Example { parts, .. } => &parts[part],
            ReadStream::Features(_) => unreachable!("the features stream carries no meshes"),
        }
    }

    /// The wire request for read `i`.
    pub fn request(&self, i: usize) -> Request {
        self.to_request(&self.read(i))
    }

    pub fn to_request(&self, read: &Read) -> Request {
        match (&read.body, &read.query) {
            (ReadBody::Features(features), Some(query)) => Request::SearchFeatures {
                features: features.clone(),
                query: query.clone(),
            },
            (ReadBody::Mesh { part, .. }, Some(query)) => Request::SearchMesh {
                mesh: self.mesh(*part).clone(),
                query: query.clone(),
            },
            (ReadBody::Mesh { part, .. }, None) => Request::MultiStep {
                mesh: self.mesh(*part).clone(),
                plan: MultiStepPlan::paper_default(),
            },
            (ReadBody::Features(_), None) => unreachable!("feature reads are one-shot"),
        }
    }

    /// Digest of the whole stream definition (every vector and mesh
    /// bit, every op), for the same-seed self-check.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            ReadStream::Features(points) => {
                for p in points {
                    h.features(p);
                }
            }
            ReadStream::Example { parts, reads } => {
                for m in parts {
                    h.mesh(m);
                }
                for r in reads {
                    if let ReadBody::Mesh { part, fresh } = r.body {
                        h.u64(part as u64);
                        h.u64(u64::from(fresh));
                    }
                    h.u64(r.query.as_ref().map_or(99, |q| q.kind as u64));
                }
            }
        }
        h.0
    }
}

fn feature_stream(workload: Workload, seed: u64) -> Result<ReadStream, String> {
    let mut qseed = sub_seed(seed, 1);
    if qseed == SYNTH_SEED {
        // The served database is synth_corpus(SYNTH_SEED): never query
        // with its own points.
        qseed ^= 1;
    }
    let points = synth_corpus(&workload.extractor(), qseed, QUERY_POINTS)
        .map_err(|e| format!("query points: {e}"))?;
    Ok(ReadStream::Features(
        points.into_iter().map(|(_, _, f)| f).collect(),
    ))
}

fn example_stream(seed: u64) -> ReadStream {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let mut families = FamilyCycle::new(READ_PARTS_SEED);
    let mut parts: Vec<TriMesh> = Vec::new();
    // Cumulative Zipf(s=1) weights over seen parts, earliest first.
    let mut cumulative: Vec<f64> = Vec::new();
    let mut reads = Vec::with_capacity(EXAMPLE_OPS);
    for i in 0..EXAMPLE_OPS {
        let fresh = i % FRESH_EVERY == 0;
        let part = if fresh {
            parts.push(families.fresh_part(&mut rng));
            let total = cumulative.last().copied().unwrap_or(0.0);
            cumulative.push(total + 1.0 / parts.len() as f64);
            parts.len() - 1
        } else {
            let u = rng.gen_range(0.0..1.0) * cumulative[cumulative.len() - 1];
            cumulative.partition_point(|&c| c <= u).min(parts.len() - 1)
        };
        let query = if i % MULTISTEP_EVERY == MULTISTEP_EVERY - 1 {
            None
        } else {
            let slot = i / MULTISTEP_EVERY * (MULTISTEP_EVERY - 1) + i % MULTISTEP_EVERY;
            Some(Query::top_k(
                EXAMPLE_KINDS[slot % EXAMPLE_KINDS.len()],
                TOP_K,
            ))
        };
        reads.push(Read {
            body: ReadBody::Mesh { part, fresh },
            query,
        });
    }
    ReadStream::Example { parts, reads }
}

/// Geometry streams of the fresh parts: fixed, so the workload seed
/// draws only poses and choices (reads and writes get different parts).
const READ_PARTS_SEED: u64 = 0x7d35_0001;
const WRITE_PARTS_SEED: u64 = 0x7d35_0002;
/// Pose stream of the inserted parts. A part's extraction cost varies
/// up to threefold with its pose, and the insert tail (the 20 slowest
/// of 200) must be made of the same work in every run, so inserts do
/// not take their poses from the workload seed.
const WRITE_POSES_SEED: u64 = 0x7d35_0003;

/// Hands out fresh parts cycling through the families in a fixed
/// order, with dimensions from a fixed stream, each at a pose drawn
/// from the stream the caller passes. Read parts take their poses from
/// the workload seed: the mix of cold extractions, and of cache hits
/// (whose popularity follows first-sighting order), is the same in
/// every run, while the meshes sent differ bit for bit.
struct FamilyCycle {
    next: usize,
    geometry: StdRng,
}

impl FamilyCycle {
    fn new(geometry_seed: u64) -> FamilyCycle {
        FamilyCycle {
            next: 0,
            geometry: StdRng::seed_from_u64(geometry_seed),
        }
    }

    fn fresh_part(&mut self, pose: &mut StdRng) -> TriMesh {
        let family = Family::ALL[self.next % Family::ALL.len()];
        self.next += 1;
        posed(family.generate(&mut self.geometry), pose)
    }
}

/// `mesh` at a random pose: a rotation about a random axis and a
/// translation.
fn posed(mut mesh: TriMesh, rng: &mut StdRng) -> TriMesh {
    let axis = Vec3::new(
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(0.1..1.0),
    );
    mesh.rotate(&Mat3::rotation_axis_angle(
        axis,
        rng.gen_range(0.0..std::f64::consts::TAU),
    ));
    mesh.translate(Vec3::new(
        rng.gen_range(-10.0..10.0),
        rng.gen_range(-10.0..10.0),
        rng.gen_range(-10.0..10.0),
    ));
    mesh
}

/// One writer operation.
pub enum Write {
    Insert { name: String, mesh: TriMesh },
    Remove { id: ShapeId },
}

/// Writer operations: `inserts` of `Insert` (a fresh family part at a
/// fixed pseudo-random pose) and `removes` of `Remove` (a seeded-random
/// stored shape among ids `1..=stored`, never the same twice), spread
/// evenly and starting with an insert.
pub fn writes(seed: u64, inserts: usize, removes: usize, stored: usize) -> Vec<Write> {
    assert!(
        removes <= stored,
        "{removes} removes of {stored} stored shapes"
    );
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    let mut poses = StdRng::seed_from_u64(WRITE_POSES_SEED);
    let mut families = FamilyCycle::new(WRITE_PARTS_SEED);
    let mut removable: Vec<ShapeId> = (1..=stored as ShapeId).collect();
    let (mut inserted, mut removed) = (0, 0);
    let mut ops = Vec::with_capacity(inserts + removes);
    while inserted + removed < inserts + removes {
        // An insert unless inserts are ahead of their share.
        if removed == removes || (inserted < inserts && inserted * removes <= removed * inserts) {
            ops.push(Write::Insert {
                name: format!("ingest-{}", ops.len()),
                mesh: families.fresh_part(&mut poses),
            });
            inserted += 1;
        } else {
            let pick = rng.gen_range(0..removable.len());
            ops.push(Write::Remove {
                id: removable.swap_remove(pick),
            });
            removed += 1;
        }
    }
    ops
}

/// Digest of a writer stream.
pub fn writes_digest(ops: &[Write]) -> u64 {
    let mut h = Fnv::new();
    for op in ops {
        match op {
            Write::Insert { mesh, .. } => h.mesh(mesh),
            Write::Remove { id } => h.u64(*id),
        }
    }
    h.0
}

/// 64-bit FNV-1a over the bit patterns fed to it.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn features(&mut self, f: &FeatureSet) {
        for kind in FeatureKind::ALL {
            for x in f.get(kind) {
                self.u64(x.to_bits());
            }
        }
    }

    fn mesh(&mut self, m: &TriMesh) {
        for v in &m.vertices {
            self.u64(v.x.to_bits());
            self.u64(v.y.to_bits());
            self.u64(v.z.to_bits());
        }
        for t in &m.triangles {
            self.u64(u64::from(t[0]) | u64::from(t[1]) << 21 | u64::from(t[2]) << 42);
        }
    }
}
