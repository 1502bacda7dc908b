//! The v2 binary payload codec: the put/get helpers and every message
//! layout, in one place (the layout is documented in [`crate::proto`]).
//!
//! Writing never fails midway: a length that does not fit a `u32`
//! count, or a report that will not serialize, is remembered and
//! surfaces once, when the payload is taken. Reading checks every
//! declared count against the bytes actually left before it allocates,
//! so a hostile count costs a typed [`WireError::Malformed`] and
//! nothing else.

use serde::{Deserialize, Serialize};
use tdess_core::{MultiStepPlan, Query, QueryMode, Weights};
use tdess_features::{FeatureKind, FeatureSet};
use tdess_geom::{TriMesh, Vec3};

use crate::proto::{
    ErrorKind, ErrorReply, HitsReport, NamedHit, Payload, Request, RequestEnvelope, Response,
    WireError, MAX_TRACE_ID_BYTES,
};

/// Bytes of one encoded hit before its name: id, name length,
/// distance and similarity.
const HIT_FIXED_BYTES: usize = 8 + 4 + 8 + 8;

/// Why a [`Writer`] could not write a field.
enum Unwritable {
    /// A length that does not fit the wire's u32 count.
    Count(usize),
    /// A report that would not serialize.
    Json(serde_json::Error),
}

/// Appends little-endian fields to a payload.
struct Writer {
    buf: Vec<u8>,
    /// The first field that could not be written, reported by
    /// [`Writer::into_payload`].
    fault: Option<Unwritable>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            // One allocation covers a feature search (about 1.1 kB)
            // and a top-10 reply; only meshes grow it.
            buf: Vec::with_capacity(2048),
            fault: None,
        }
    }

    fn into_payload(self) -> Result<Vec<u8>, WireError> {
        match self.fault {
            None => Ok(self.buf),
            // hotpath: allow(hot-alloc) — formats only for a value the wire cannot carry
            Some(Unwritable::Count(n)) => Err(WireError::Malformed(format!(
                "{n} elements exceed a u32 count"
            ))),
            Some(Unwritable::Json(e)) => Err(WireError::Malformed(e.to_string())),
        }
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_flag(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` value (not a count) travels as a u64.
    fn put_size(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A u32 element count.
    fn put_count(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(n) => self.put_u32(n),
            Err(_) => {
                self.fault.get_or_insert(Unwritable::Count(n));
            }
        }
    }

    fn put_str(&mut self, s: &str) {
        self.put_count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn put_floats(&mut self, v: &[f64]) {
        self.put_count(v.len());
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    fn put_kind(&mut self, kind: FeatureKind) {
        let index = FeatureKind::ALL.iter().position(|k| *k == kind);
        self.put_u8(index.map_or(u8::MAX, |i| i as u8));
    }

    /// A report as its serde JSON, length-prefixed.
    fn put_json<T: Serialize>(&mut self, value: &T) {
        match serde_json::to_string(value) {
            Ok(text) => self.put_str(&text),
            Err(e) => {
                self.fault.get_or_insert(Unwritable::Json(e));
            }
        }
    }
}

/// Reads little-endian fields off a payload, never past its end.
struct Reader<'a> {
    rest: &'a [u8],
}

/// The typed error of every decode failure.
fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

impl<'a> Reader<'a> {
    fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(malformed(format!(
                "payload ends {} bytes short",
                n - self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.get_bytes(N)?);
        Ok(out)
    }

    fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.get_bytes(1)?[0])
    }

    fn get_flag(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("flag byte {b} is neither 0 nor 1"))),
        }
    }

    fn get_u32(&mut self) -> Result<u32, WireError> {
        self.get_array().map(u32::from_le_bytes)
    }

    fn get_u64(&mut self) -> Result<u64, WireError> {
        self.get_array().map(u64::from_le_bytes)
    }

    fn get_size(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| malformed(format!("{v} does not fit this host's usize")))
    }

    fn get_f64(&mut self) -> Result<f64, WireError> {
        self.get_array().map(f64::from_le_bytes)
    }

    /// A u32 count of elements at least `min_bytes` long each, checked
    /// against the bytes left before anyone allocates for it.
    fn get_count(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_bytes) > self.rest.len() {
            return Err(malformed(format!(
                "count {n} needs more than the {} bytes left",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    fn get_str(&mut self) -> Result<&'a str, WireError> {
        let n = self.get_count(1)?;
        std::str::from_utf8(self.get_bytes(n)?).map_err(|e| malformed(format!("string: {e}")))
    }

    /// Fixed-width records of `N` bytes each, behind a u32 count.
    fn get_records<const N: usize>(
        &mut self,
    ) -> Result<std::slice::ChunksExact<'a, u8>, WireError> {
        let n = self.get_count(N)?;
        Ok(self.get_bytes(n * N)?.chunks_exact(N))
    }

    fn get_floats(&mut self) -> Result<Vec<f64>, WireError> {
        Ok(self.get_records::<8>()?.map(le_f64).collect())
    }

    fn get_kind(&mut self) -> Result<FeatureKind, WireError> {
        let b = self.get_u8()?;
        FeatureKind::ALL
            .get(usize::from(b))
            .copied()
            .ok_or_else(|| malformed(format!("feature kind {b} out of range")))
    }

    fn get_json<T: Deserialize>(&mut self) -> Result<T, WireError> {
        serde_json::from_str(self.get_str()?).map_err(|e| malformed(e.to_string()))
    }

    /// Whole-payload decodes end here: leftover bytes are malformed.
    fn expect_end(&self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(malformed(format!("{n} trailing bytes"))),
        }
    }
}

/// An f64 from 8 little-endian bytes (a `chunks_exact(8)` chunk).
fn le_f64(b: &[u8]) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    f64::from_le_bytes(a)
}

/// A u32 from 4 little-endian bytes.
fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    u32::from_le_bytes(a)
}

fn put_features(w: &mut Writer, f: &FeatureSet) {
    for kind in FeatureKind::ALL {
        w.put_floats(f.get(kind));
    }
}

/// Reads the vectors in `FeatureKind::ALL` order, as `put_features`
/// writes them (fields initialize in the order written).
fn get_features(r: &mut Reader<'_>) -> Result<FeatureSet, WireError> {
    Ok(FeatureSet {
        moment_invariants: r.get_floats()?,
        geometric: r.get_floats()?,
        principal_moments: r.get_floats()?,
        eigenvalues: r.get_floats()?,
        higher_order: r.get_floats()?,
        shape_distribution: r.get_floats()?,
        shell_histogram: r.get_floats()?,
    })
}

fn put_query(w: &mut Writer, q: &Query) {
    w.put_kind(q.kind);
    match &q.weights.0 {
        None => w.put_flag(false),
        Some(weights) => {
            w.put_flag(true);
            w.put_floats(weights);
        }
    }
    match q.mode {
        QueryMode::TopK(k) => {
            w.put_u8(0);
            w.put_size(k);
        }
        QueryMode::Threshold(s) => {
            w.put_u8(1);
            w.put_f64(s);
        }
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<Query, WireError> {
    let kind = r.get_kind()?;
    let weights = Weights(if r.get_flag()? {
        Some(r.get_floats()?)
    } else {
        None
    });
    let mode = match r.get_u8()? {
        0 => QueryMode::TopK(r.get_size()?),
        1 => QueryMode::Threshold(r.get_f64()?),
        t => return Err(malformed(format!("query mode tag {t}"))),
    };
    Ok(Query {
        kind,
        weights,
        mode,
    })
}

fn put_mesh(w: &mut Writer, m: &TriMesh) {
    w.put_count(m.vertices.len());
    w.buf.reserve(24 * m.vertices.len());
    for v in &m.vertices {
        w.put_f64(v.x);
        w.put_f64(v.y);
        w.put_f64(v.z);
    }
    w.put_count(m.triangles.len());
    w.buf.reserve(12 * m.triangles.len());
    for t in &m.triangles {
        t.iter().for_each(|&i| w.put_u32(i));
    }
}

fn get_mesh(r: &mut Reader<'_>) -> Result<TriMesh, WireError> {
    let vertices = r
        .get_records::<24>()?
        .map(|b| Vec3 {
            x: le_f64(&b[..8]),
            y: le_f64(&b[8..16]),
            z: le_f64(&b[16..]),
        })
        .collect();
    let triangles = r
        .get_records::<12>()?
        .map(|b| [le_u32(&b[..4]), le_u32(&b[4..8]), le_u32(&b[8..])])
        .collect();
    Ok(TriMesh {
        vertices,
        triangles,
    })
}

fn put_plan(w: &mut Writer, p: &MultiStepPlan) {
    w.put_count(p.steps.len());
    for &kind in &p.steps {
        w.put_kind(kind);
    }
    w.put_size(p.candidates);
    w.put_size(p.presented);
}

fn get_plan(r: &mut Reader<'_>) -> Result<MultiStepPlan, WireError> {
    let n = r.get_count(1)?;
    let steps = (0..n).map(|_| r.get_kind()).collect::<Result<_, _>>()?;
    Ok(MultiStepPlan {
        steps,
        candidates: r.get_size()?,
        presented: r.get_size()?,
    })
}

/// Encodes a request envelope from its parts, so a caller holding a
/// borrowed request need not clone it: the trace id, then the
/// request's tag byte (its [`Request::kind`]) and fields.
pub(crate) fn encode_envelope(trace_id: Option<&str>, req: &Request) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    match trace_id {
        None => w.put_flag(false),
        Some(id) => {
            w.put_flag(true);
            w.put_str(id);
        }
    }
    w.put_u8(req.kind() as u8);
    match req {
        Request::SearchFeatures { features, query } => {
            put_features(&mut w, features);
            put_query(&mut w, query);
        }
        Request::SearchMesh { mesh, query } => {
            put_mesh(&mut w, mesh);
            put_query(&mut w, query);
        }
        Request::MultiStep { mesh, plan } => {
            put_mesh(&mut w, mesh);
            put_plan(&mut w, plan);
        }
        Request::Insert { name, mesh } => {
            w.put_str(name);
            put_mesh(&mut w, mesh);
        }
        Request::Remove { id } => w.put_u64(*id),
        Request::Traces { last, slow } => {
            w.put_size(*last);
            w.put_flag(*slow);
        }
        Request::Info | Request::Stats | Request::Ping => {}
    }
    w.into_payload()
}

fn get_envelope(r: &mut Reader<'_>) -> Result<RequestEnvelope, WireError> {
    let trace_id = if r.get_flag()? {
        // Checked before the copy that the trace will keep.
        let id = r.get_str()?;
        if id.len() > MAX_TRACE_ID_BYTES {
            return Err(malformed(format!(
                "trace id of {} bytes exceeds the {MAX_TRACE_ID_BYTES}-byte limit",
                id.len()
            )));
        }
        Some(id.to_string())
    } else {
        None
    };
    let request = match r.get_u8()? {
        0 => Request::SearchFeatures {
            features: get_features(r)?,
            query: get_query(r)?,
        },
        1 => Request::SearchMesh {
            mesh: get_mesh(r)?,
            query: get_query(r)?,
        },
        2 => Request::MultiStep {
            mesh: get_mesh(r)?,
            plan: get_plan(r)?,
        },
        3 => Request::Insert {
            name: r.get_str()?.to_string(),
            mesh: get_mesh(r)?,
        },
        4 => Request::Remove { id: r.get_u64()? },
        5 => Request::Info,
        6 => Request::Stats,
        7 => Request::Traces {
            last: r.get_size()?,
            slow: r.get_flag()?,
        },
        8 => Request::Ping,
        t => return Err(malformed(format!("unknown request tag {t}"))),
    };
    Ok(RequestEnvelope { trace_id, request })
}

impl Payload for RequestEnvelope {
    fn to_payload(&self) -> Result<Vec<u8>, WireError> {
        encode_envelope(self.trace_id.as_deref(), &self.request)
    }

    fn from_payload(payload: &[u8]) -> Result<RequestEnvelope, WireError> {
        let mut r = Reader { rest: payload };
        let env = get_envelope(&mut r)?;
        r.expect_end()?;
        Ok(env)
    }
}

/// [`ErrorKind`]s by tag byte.
const ERROR_KINDS: [ErrorKind; 8] = [
    ErrorKind::VersionMismatch,
    ErrorKind::FrameTooLarge,
    ErrorKind::Malformed,
    ErrorKind::Busy,
    ErrorKind::Shutdown,
    ErrorKind::Extraction,
    ErrorKind::UnknownShape,
    ErrorKind::Internal,
];

fn put_response(w: &mut Writer, resp: &Response) {
    match resp {
        Response::Hits(report) => {
            w.put_u8(0);
            w.put_count(report.hits.len());
            for h in &report.hits {
                w.put_u64(h.id);
                w.put_str(&h.name);
                w.put_f64(h.distance);
                w.put_f64(h.similarity);
            }
        }
        Response::Inserted { id } => {
            w.put_u8(1);
            w.put_u64(*id);
        }
        Response::Removed { id } => {
            w.put_u8(2);
            w.put_u64(*id);
        }
        Response::Info(report) => {
            w.put_u8(3);
            w.put_json(report);
        }
        Response::Stats(report) => {
            w.put_u8(4);
            w.put_json(report);
        }
        Response::Traces(report) => {
            w.put_u8(5);
            w.put_json(report);
        }
        Response::Pong => w.put_u8(6),
        Response::Error(e) => {
            w.put_u8(7);
            let index = ERROR_KINDS.iter().position(|k| *k == e.kind);
            w.put_u8(index.map_or(u8::MAX, |i| i as u8));
            w.put_str(&e.message);
        }
    }
}

fn get_hit(r: &mut Reader<'_>) -> Result<NamedHit, WireError> {
    Ok(NamedHit {
        id: r.get_u64()?,
        name: r.get_str()?.to_string(),
        distance: r.get_f64()?,
        similarity: r.get_f64()?,
    })
}

fn get_response(r: &mut Reader<'_>) -> Result<Response, WireError> {
    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_count(HIT_FIXED_BYTES)?;
            let hits = (0..n).map(|_| get_hit(r)).collect::<Result<_, _>>()?;
            Response::Hits(HitsReport { hits })
        }
        1 => Response::Inserted { id: r.get_u64()? },
        2 => Response::Removed { id: r.get_u64()? },
        3 => Response::Info(r.get_json()?),
        4 => Response::Stats(r.get_json()?),
        5 => Response::Traces(r.get_json()?),
        6 => Response::Pong,
        7 => {
            let b = r.get_u8()?;
            let kind = ERROR_KINDS
                .get(usize::from(b))
                .copied()
                .ok_or_else(|| malformed(format!("error kind {b} out of range")))?;
            Response::Error(ErrorReply::new(kind, r.get_str()?))
        }
        t => return Err(malformed(format!("unknown response tag {t}"))),
    })
}

impl Payload for Response {
    fn to_payload(&self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::new();
        put_response(&mut w, self);
        w.into_payload()
    }

    fn from_payload(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader { rest: payload };
        let resp = get_response(&mut r)?;
        r.expect_end()?;
        Ok(resp)
    }
}
