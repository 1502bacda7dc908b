//! The v2 binary payload codec: every message layout (documented in
//! [`crate::proto`]), written and read through `tdess-core`'s shared
//! little-endian [`Writer`] and [`Reader`].
//!
//! The reader checks every declared count against the bytes actually
//! left before it allocates, and every decode failure — a reader
//! error, an unknown tag, an out-of-range kind — is a typed
//! [`WireError::Malformed`] and nothing else. An unwritable payload (a
//! count past `u32`, a report that will not serialize) is `Malformed`
//! too, reported once when the payload is taken. The codec carries
//! meshes as they are; the server checks a submitted mesh before
//! anything uses it.

use serde::{Deserialize, Serialize};
use tdess_core::le::{LeError, Reader, Writer};
use tdess_core::{MultiStepPlan, Query, QueryMode, Weights};
use tdess_features::{FeatureKind, FeatureSet};
use tdess_geom::TriMesh;

use crate::proto::{
    ErrorKind, ErrorReply, HitsReport, NamedHit, Payload, Request, RequestEnvelope, Response,
    WireError, MAX_TRACE_ID_BYTES,
};

/// Bytes of one encoded hit before its name: id, name length,
/// distance and similarity.
const HIT_FIXED_BYTES: usize = 8 + 4 + 8 + 8;

/// The typed error of every decode failure.
fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

impl From<LeError> for WireError {
    fn from(e: LeError) -> WireError {
        WireError::Malformed(e.into())
    }
}

fn put_flag(w: &mut Writer, v: bool) {
    w.put_u8(u8::from(v));
}

fn get_flag(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(malformed(format!("flag byte {b} is neither 0 nor 1"))),
    }
}

/// A `usize` value (not a count) travels as a u64.
fn put_size(w: &mut Writer, v: usize) {
    w.put_u64(v as u64);
}

fn get_size(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let v = r.get_u64()?;
    usize::try_from(v).map_err(|_| malformed(format!("{v} does not fit this host's usize")))
}

/// A vector as its count, then its values.
fn put_floats(w: &mut Writer, v: &[f64]) {
    w.put_count(v.len());
    w.put_f64s(v);
}

fn get_floats(r: &mut Reader<'_>) -> Result<Vec<f64>, WireError> {
    let n = r.get_count(8)?;
    Ok(r.get_f64s(n)?)
}

fn put_kind(w: &mut Writer, kind: FeatureKind) {
    let index = FeatureKind::ALL.iter().position(|k| *k == kind);
    w.put_u8(index.map_or(u8::MAX, |i| i as u8));
}

fn get_kind(r: &mut Reader<'_>) -> Result<FeatureKind, WireError> {
    let b = r.get_u8()?;
    FeatureKind::ALL
        .get(usize::from(b))
        .copied()
        .ok_or_else(|| malformed(format!("feature kind {b} out of range")))
}

/// A report as its serde JSON, length-prefixed.
fn put_json<T: Serialize>(w: &mut Writer, value: &T) -> Result<(), WireError> {
    let text = serde_json::to_string(value).map_err(|e| malformed(e.to_string()))?;
    w.put_str(&text);
    Ok(())
}

fn get_json<T: Deserialize>(r: &mut Reader<'_>) -> Result<T, WireError> {
    serde_json::from_str(r.get_str()?).map_err(|e| malformed(e.to_string()))
}

fn put_features(w: &mut Writer, f: &FeatureSet) {
    for kind in FeatureKind::ALL {
        put_floats(w, f.get(kind));
    }
}

/// Reads the vectors in `FeatureKind::ALL` order, as `put_features`
/// writes them (fields initialize in the order written).
fn get_features(r: &mut Reader<'_>) -> Result<FeatureSet, WireError> {
    Ok(FeatureSet {
        moment_invariants: get_floats(r)?,
        geometric: get_floats(r)?,
        principal_moments: get_floats(r)?,
        eigenvalues: get_floats(r)?,
        higher_order: get_floats(r)?,
        shape_distribution: get_floats(r)?,
        shell_histogram: get_floats(r)?,
    })
}

fn put_query(w: &mut Writer, q: &Query) {
    put_kind(w, q.kind);
    match &q.weights.0 {
        None => put_flag(w, false),
        Some(weights) => {
            put_flag(w, true);
            put_floats(w, weights);
        }
    }
    match q.mode {
        QueryMode::TopK(k) => {
            w.put_u8(0);
            put_size(w, k);
        }
        QueryMode::Threshold(s) => {
            w.put_u8(1);
            w.put_f64(s);
        }
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<Query, WireError> {
    let kind = get_kind(r)?;
    let weights = Weights(if get_flag(r)? {
        Some(get_floats(r)?)
    } else {
        None
    });
    let mode = match r.get_u8()? {
        0 => QueryMode::TopK(get_size(r)?),
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
    w.put_vertices(&m.vertices);
    w.put_count(m.triangles.len());
    w.put_triangles(&m.triangles);
}

fn get_mesh(r: &mut Reader<'_>) -> Result<TriMesh, WireError> {
    let nv = r.get_count(24)?;
    let vertices = r.get_vertices(nv)?;
    let nt = r.get_count(12)?;
    Ok(TriMesh {
        vertices,
        triangles: r.get_triangles(nt)?,
    })
}

fn put_plan(w: &mut Writer, p: &MultiStepPlan) {
    w.put_count(p.steps.len());
    for &kind in &p.steps {
        put_kind(w, kind);
    }
    put_size(w, p.candidates);
    put_size(w, p.presented);
}

fn get_plan(r: &mut Reader<'_>) -> Result<MultiStepPlan, WireError> {
    let n = r.get_count(1)?;
    let steps = (0..n).map(|_| get_kind(r)).collect::<Result<_, _>>()?;
    Ok(MultiStepPlan {
        steps,
        candidates: get_size(r)?,
        presented: get_size(r)?,
    })
}

/// Encodes a request envelope from its parts, so a caller holding a
/// borrowed request need not clone it: the trace id, then the
/// request's tag byte (its [`Request::kind`]) and fields.
pub(crate) fn encode_envelope(trace_id: Option<&str>, req: &Request) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    match trace_id {
        None => put_flag(&mut w, false),
        Some(id) => {
            put_flag(&mut w, true);
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
            put_size(&mut w, *last);
            put_flag(&mut w, *slow);
        }
        Request::Info | Request::Stats | Request::Ping => {}
    }
    Ok(w.into_bytes()?)
}

fn get_envelope(r: &mut Reader<'_>) -> Result<RequestEnvelope, WireError> {
    let trace_id = if get_flag(r)? {
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
            last: get_size(r)?,
            slow: get_flag(r)?,
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
        let mut r = Reader::new(payload);
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

fn put_response(w: &mut Writer, resp: &Response) -> Result<(), WireError> {
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
            put_json(w, report)?;
        }
        Response::Stats(report) => {
            w.put_u8(4);
            put_json(w, report)?;
        }
        Response::Traces(report) => {
            w.put_u8(5);
            put_json(w, report)?;
        }
        Response::Pong => w.put_u8(6),
        Response::Error(e) => {
            w.put_u8(7);
            let index = ERROR_KINDS.iter().position(|k| *k == e.kind);
            w.put_u8(index.map_or(u8::MAX, |i| i as u8));
            w.put_str(&e.message);
        }
    }
    Ok(())
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
        3 => Response::Info(get_json(r)?),
        4 => Response::Stats(get_json(r)?),
        5 => Response::Traces(get_json(r)?),
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
        put_response(&mut w, self)?;
        Ok(w.into_bytes()?)
    }

    fn from_payload(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = get_response(&mut r)?;
        r.expect_end()?;
        Ok(resp)
    }
}
