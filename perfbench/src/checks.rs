//! Answer checks and the same-seed self-check. All of it runs outside
//! the timed phase; a wrong answer counts as a failed operation.

use std::collections::HashMap;
use std::path::Path;

use tdess_core::{multi_step_search_with_stats, MultiStepPlan, ShapeDatabase, ShapeId};
use tdess_features::{FeatureKind, FeatureSet};
use tdess_index::QueryStats;
use tdess_net::{HitsReport, NetClient, Request, RequestEnvelope, Response};

use crate::workload::{Fnv, ReadBody, ReadStream, Write, TOP_K};

/// The trace id length `NetClient` sends, so encoded sizes match the
/// wire exactly.
const TRACE_ID: &str = "0000000000000000";

/// The wire payload of `req`, enveloped as `NetClient` sends it.
pub fn envelope(req: Request) -> Vec<u8> {
    tdess_net::proto::encode(&RequestEnvelope {
        trace_id: Some(TRACE_ID.to_string()),
        request: req,
    })
    .expect("requests always encode")
}

/// The wire payload of a hits reply.
pub fn reply(report: HitsReport) -> Vec<u8> {
    tdess_net::proto::encode(&Response::Hits(report)).expect("replies always encode")
}

/// Whether two answers agree down to ids, names and f64 bits.
pub fn same_hits(a: &HitsReport, b: &HitsReport) -> bool {
    a.hits.len() == b.hits.len()
        && a.hits.iter().zip(&b.hits).all(|(x, y)| {
            x.id == y.id
                && x.name == y.name
                && x.distance.to_bits() == y.distance.to_bits()
                && x.similarity.to_bits() == y.similarity.to_bits()
        })
}

/// Counts that must repeat exactly between runs with one seed and
/// differ between seeds.
#[derive(Default, PartialEq)]
pub struct Fingerprint {
    /// Digest of the read and write streams.
    pub digest: u64,
    /// Reads checked against the in-process answer.
    pub reads_checked: usize,
    /// Write operations sent.
    pub writes: usize,
    /// Cache misses the server reports after the fixed warm-up.
    pub cache_misses: u64,
    /// Request and reply frame bytes of the checked reads and writes.
    pub req_bytes: usize,
    pub resp_bytes: usize,
    /// Index nodes visited and entries checked by the checked reads.
    pub nodes: usize,
    pub entries: usize,
}

impl Fingerprint {
    fn line(&self) -> String {
        format!(
            "digest {:016x} reads_checked {} writes {} cache_misses {} req_bytes {} resp_bytes {} nodes {} entries {}",
            self.digest,
            self.reads_checked,
            self.writes,
            self.cache_misses,
            self.req_bytes,
            self.resp_bytes,
            self.nodes,
            self.entries
        )
    }
}

/// The uncached in-process answer to read `i`, with its index counters.
pub fn expected(
    stream: &ReadStream,
    db: &ShapeDatabase,
    i: usize,
    extracted: &mut HashMap<usize, FeatureSet>,
) -> Result<(HitsReport, QueryStats), String> {
    let read = stream.read(i);
    let features = match &read.body {
        ReadBody::Features(f) => f.clone(),
        ReadBody::Mesh { part, .. } => match extracted.get(part) {
            Some(f) => f.clone(),
            None => {
                let f = db
                    .extract_query(stream.mesh(*part))
                    .map_err(|e| format!("extracting part {part}: {e}"))?;
                extracted.insert(*part, f.clone());
                f
            }
        },
    };
    let mut stats = QueryStats::default();
    let hits = match &read.query {
        Some(q) => db.search_with_stats(&features, q, &mut stats),
        None => {
            multi_step_search_with_stats(db, &features, &MultiStepPlan::paper_default(), &mut stats)
        }
    };
    Ok((HitsReport::new(db, &hits), stats))
}

/// Checks kept wire answers against the uncached in-process path on
/// the served snapshot. Returns the number of wrong answers.
pub fn check_reads(
    stream: &ReadStream,
    db: &ShapeDatabase,
    kept: &[(usize, HitsReport)],
    fp: &mut Fingerprint,
) -> Result<usize, String> {
    let mut extracted = HashMap::new();
    let mut wrong = 0;
    for (i, got) in kept {
        let (want, stats) = expected(stream, db, *i, &mut extracted)?;
        if !same_hits(&want, got) {
            eprintln!("perfbench: read {i} answered differently from the in-process path");
            wrong += 1;
        }
        fp.reads_checked += 1;
        fp.req_bytes += envelope(stream.request(*i)).len();
        fp.resp_bytes += reply(got.clone()).len();
        fp.nodes += stats.nodes_visited;
        fp.entries += stats.entries_checked;
    }
    Ok(wrong)
}

/// After the writes: the server holds `shapes` shapes, and every
/// inserted shape (every `stride`-th one checked) is its own nearest
/// neighbour at distance 0. Returns the number of failures.
pub fn check_writes(
    client: &mut NetClient,
    shapes: usize,
    writes: &[Write],
    inserted: &[(ShapeId, usize)],
    stride: usize,
    fp: &mut Fingerprint,
) -> Result<usize, String> {
    let mut failed = 0;
    let info = client.info().map_err(|e| format!("Info: {e}"))?;
    if info.shapes != shapes {
        eprintln!(
            "perfbench: {} shapes stored after the writes, expected {shapes}",
            info.shapes
        );
        failed += 1;
    }
    for (n, &(id, k)) in inserted.iter().enumerate().step_by(stride) {
        let Write::Insert { mesh, .. } = &writes[k] else {
            return Err(format!("op {k} is not an insert"));
        };
        // Skeleton spectra are often equal across parts (all-zero for
        // a loop-free skeleton), so the self-query rotates over the
        // other spaces, and the shape must be among the hits tied at
        // distance 0.
        let kinds = [
            FeatureKind::MomentInvariants,
            FeatureKind::GeometricParams,
            FeatureKind::PrincipalMoments,
            FeatureKind::HigherOrder,
            FeatureKind::ShapeDistribution,
            FeatureKind::ShellHistogram,
        ];
        let kind = kinds[n % kinds.len()];
        let top = client
            .search_mesh(mesh, &tdess_core::Query::top_k(kind, TOP_K))
            .map_err(|e| format!("self-query of {id}: {e}"))?;
        if !top
            .hits
            .iter()
            .take_while(|h| h.distance == 0.0)
            .any(|h| h.id == id)
        {
            eprintln!(
                "perfbench: inserted shape {id} is not its own top-1 at distance 0 ({kind:?})"
            );
            failed += 1;
        }
    }
    fp.writes += writes.len();
    for op in writes {
        fp.req_bytes += envelope(match op {
            Write::Insert { name, mesh } => Request::Insert {
                name: name.clone(),
                mesh: mesh.clone(),
            },
            Write::Remove { id } => Request::Remove { id: *id },
        })
        .len();
    }
    Ok(failed)
}

/// Identifies the build under test: a digest of the files that make it
/// (the spawned `tdess` and this benchmark's own executable).
pub fn build_id(files: &[&Path]) -> Result<u64, String> {
    let mut h = Fnv::new();
    for file in files {
        h.bytes(&std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?);
    }
    Ok(h.0)
}

/// The same-seed self-check. Regenerating the streams from `seed` must
/// reproduce `digest`, another seed must not, and the fingerprint must
/// equal the one recorded by any earlier run of the same build with
/// this seed in `dir`, and differ from those recorded with other seeds.
/// Frame bytes and index counts follow the product code, so records of
/// other builds are never compared.
pub fn self_check(
    dir: &Path,
    build: u64,
    workload: &str,
    seed: u64,
    regenerate: impl Fn(u64) -> Result<u64, String>,
    fp: &Fingerprint,
) -> Result<(), String> {
    if regenerate(seed)? != fp.digest {
        return Err("the same seed generated a different request stream".into());
    }
    if regenerate(seed.wrapping_add(1))? == fp.digest {
        return Err("two seeds generated the same request stream".into());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let line = fp.line();
    let prefix = format!("fingerprint-{build:016x}-{workload}-");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(other) = name.strip_prefix(&prefix) else {
            continue;
        };
        let recorded = std::fs::read_to_string(entry.path()).unwrap_or_default();
        if other == seed.to_string() && recorded.trim() != line {
            return Err(format!(
                "seed {seed} repeated different work:\n  recorded {}\n  this run {line}",
                recorded.trim()
            ));
        }
        if other != seed.to_string() && recorded.trim() == line {
            return Err(format!(
                "seeds {seed} and {other} did identical work: {line}"
            ));
        }
    }
    let path = dir.join(format!("{prefix}{seed}"));
    std::fs::write(&path, format!("{line}\n")).map_err(|e| format!("{}: {e}", path.display()))
}
