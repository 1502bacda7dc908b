//! The v2 binary payload codec, off the socket: every request and
//! response variant round-trips bit for bit, and hostile payloads draw
//! a typed `Malformed`, never a panic and never an allocation sized by
//! a declared count.

use proptest::prelude::*;
use std::sync::Arc;

use tdess_core::{CacheStatsSnapshot, MultiStepPlan, Query, QueryMode, ServerMetrics, Weights};
use tdess_features::{FeatureKind, FeatureSet};
use tdess_geom::{TriMesh, Vec3};
use tdess_net::proto::{decode, decode_request, encode};
use tdess_net::{
    ErrorKind, ErrorReply, HitsReport, InfoReport, LatencyStats, NamedHit, Request,
    RequestEnvelope, RequestStats, Response, SpaceInfo, StageStats, StatsReport, TracesReport,
    TransportStats, WireError, MAX_TRACE_ID_BYTES,
};
use tdess_obs::RequestTrace;

const SIGN: u64 = 1 << 63;
const EXP: u64 = 0x7ff0_0000_0000_0000;
const MANT: u64 = 0x000f_ffff_ffff_ffff;

/// Any f64 bit pattern, with NaN payloads, ±0, subnormals and ±inf
/// drawn often.
fn float() -> impl Strategy<Value = f64> {
    (0..6u8, any::<u64>()).prop_map(|(class, bits)| {
        f64::from_bits(match class {
            0 => EXP | (bits & (SIGN | MANT)) | 1, // NaN, any payload
            1 => bits & SIGN,                      // ±0
            2 => bits & (SIGN | MANT),             // subnormal
            3 => EXP | (bits & SIGN),              // ±inf
            _ => bits,
        })
    })
}

/// Finite values, for the reports that ride as JSON.
fn finite() -> impl Strategy<Value = f64> {
    -1e12..1e12f64
}

fn floats(max: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(float(), 0..max)
}

/// Up to 16 chars of up to 4 UTF-8 bytes: at most 64 bytes, so it also
/// fits a trace id.
fn text() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'Z', '0', ' ', '"', '\\', 'é', 'ß', 'λ', '中', '🦀', '\u{0}',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..17)
        .prop_map(|cs| cs.into_iter().collect::<String>())
}

fn kind() -> impl Strategy<Value = FeatureKind> {
    (0..7usize).prop_map(|i| FeatureKind::ALL[i])
}

fn features() -> impl Strategy<Value = FeatureSet> {
    (
        (floats(8), floats(8), floats(8), floats(400)),
        (floats(40), floats(200), floats(40)),
    )
        .prop_map(|((mi, ge, pm, ev), (ho, d2, sh))| FeatureSet {
            moment_invariants: mi,
            geometric: ge,
            principal_moments: pm,
            eigenvalues: ev,
            higher_order: ho,
            shape_distribution: d2,
            shell_histogram: sh,
        })
}

fn query() -> impl Strategy<Value = Query> {
    (
        kind(),
        any::<bool>(),
        floats(70),
        any::<bool>(),
        any::<u64>(),
        float(),
    )
        .prop_map(|(kind, weighted, w, top_k, k, s)| Query {
            kind,
            weights: Weights(weighted.then_some(w)),
            mode: if top_k {
                QueryMode::TopK(k as usize)
            } else {
                QueryMode::Threshold(s)
            },
        })
}

fn mesh() -> impl Strategy<Value = TriMesh> {
    (
        prop::collection::vec((float(), float(), float()), 0..60),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..60),
    )
        .prop_map(|(vs, ts)| TriMesh {
            vertices: vs.into_iter().map(|(x, y, z)| Vec3 { x, y, z }).collect(),
            triangles: ts.into_iter().map(|(a, b, c)| [a, b, c]).collect(),
        })
}

fn plan() -> impl Strategy<Value = MultiStepPlan> {
    (
        prop::collection::vec(kind(), 0..9),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(steps, candidates, presented)| MultiStepPlan {
            steps,
            candidates: candidates as usize,
            presented: presented as usize,
        })
}

/// Every `Request` variant, chosen by its tag.
fn request() -> impl Strategy<Value = Request> {
    (
        0..Request::KINDS.len(),
        features(),
        query(),
        mesh(),
        plan(),
        (text(), any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(
            |(tag, features, query, mesh, plan, (name, id, last, slow))| match tag {
                0 => Request::SearchFeatures { features, query },
                1 => Request::SearchMesh { mesh, query },
                2 => Request::MultiStep { mesh, plan },
                3 => Request::Insert { name, mesh },
                4 => Request::Remove { id },
                5 => Request::Info,
                6 => Request::Stats,
                7 => Request::Traces {
                    last: last as usize,
                    slow,
                },
                _ => Request::Ping,
            },
        )
}

fn latency() -> impl Strategy<Value = LatencyStats> {
    (any::<u64>(), finite(), finite(), finite(), finite()).prop_map(|(count, a, b, c, d)| {
        LatencyStats {
            count,
            min_s: a,
            mean_s: b,
            max_s: c,
            p50_s: d,
            p90_s: c,
            p99_s: a,
        }
    })
}

fn info() -> impl Strategy<Value = InfoReport> {
    (
        any::<u64>(),
        0..512usize,
        0..64usize,
        prop::collection::vec((kind(), 0..100usize, finite()), 0..8),
    )
        .prop_map(
            |(shapes, voxel_resolution, spectrum_dim, spaces)| InfoReport {
                shapes: shapes as usize,
                voxel_resolution,
                spectrum_dim,
                spaces: spaces
                    .into_iter()
                    .map(|(kind, dim, dmax)| SpaceInfo { kind, dim, dmax })
                    .collect(),
            },
        )
}

fn stats() -> impl Strategy<Value = StatsReport> {
    (
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec((text(), latency()), 0..4),
        prop::collection::vec((text(), latency()), 0..4),
        any::<bool>(),
    )
        .prop_map(
            |(shapes, (a, b, c, d), stages, requests, cached)| StatsReport {
                shapes: shapes as usize,
                server: ServerMetrics::default(),
                transport: TransportStats {
                    connections_accepted: a,
                    connections_rejected: b,
                    frames_decoded: c,
                    decode_errors: d,
                    requests_served: a ^ d,
                },
                stages: stages
                    .into_iter()
                    .map(|(stage, latency)| StageStats { stage, latency })
                    .collect(),
                requests: requests
                    .into_iter()
                    .map(|(request, latency)| RequestStats { request, latency })
                    .collect(),
                cache: cached.then(CacheStatsSnapshot::default),
            },
        )
}

fn traces() -> impl Strategy<Value = TracesReport> {
    (
        any::<u64>(),
        prop::collection::vec(
            (text(), text(), any::<u64>(), any::<u64>(), any::<bool>()),
            0..4,
        ),
    )
        .prop_map(|(slow_threshold_us, traces)| TracesReport {
            slow_threshold_us,
            traces: traces
                .into_iter()
                .map(|(trace_id, name, ts_unix_us, dur_us, error)| {
                    Arc::new(RequestTrace {
                        trace_id,
                        name,
                        ts_unix_us,
                        dur_us,
                        error,
                        retained: "sampled".into(),
                        dropped_spans: 0,
                        spans: Vec::new(),
                    })
                })
                .collect(),
        })
}

/// Every `Response` variant, chosen by its tag.
fn response() -> impl Strategy<Value = Response> {
    (
        0..8usize,
        prop::collection::vec((any::<u64>(), text(), float(), float()), 0..40),
        (any::<u64>(), 0..8usize, text()),
        info(),
        stats(),
        traces(),
    )
        .prop_map(
            |(tag, hits, (id, kind, message), info, stats, traces)| match tag {
                0 => Response::Hits(HitsReport {
                    hits: hits
                        .into_iter()
                        .map(|(id, name, distance, similarity)| NamedHit {
                            id,
                            name,
                            distance,
                            similarity,
                        })
                        .collect(),
                }),
                1 => Response::Inserted { id },
                2 => Response::Removed { id },
                3 => Response::Info(info),
                4 => Response::Stats(stats),
                5 => Response::Traces(traces),
                6 => Response::Pong,
                _ => Response::Error(ErrorReply::new(ERROR_KINDS[kind], message)),
            },
        )
}

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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn malformed<T: std::fmt::Debug>(got: Result<T, WireError>) -> bool {
    matches!(got, Err(WireError::Malformed(_)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The encoding writes every field's exact bits, so re-encoding
    /// the decoded envelope reproduces the payload only if the decode
    /// reproduced the envelope bit for bit. The feature vectors are
    /// also compared bit by bit directly.
    #[test]
    fn every_request_round_trips_bit_for_bit(
        request in request(),
        traced in any::<bool>(),
        trace_id in text(),
    ) {
        let env = RequestEnvelope { trace_id: traced.then_some(trace_id), request };
        let payload = encode(&env).unwrap();
        let (trace_id, back) = decode_request(&payload).unwrap();
        prop_assert_eq!(&trace_id, &env.trace_id);
        prop_assert_eq!(back.kind(), env.request.kind());
        let again = encode(&RequestEnvelope { trace_id, request: back.clone() }).unwrap();
        prop_assert_eq!(again, payload);
        if let (
            Request::SearchFeatures { features: a, .. },
            Request::SearchFeatures { features: b, .. },
        ) = (&env.request, &back)
        {
            for kind in FeatureKind::ALL {
                prop_assert_eq!(bits(a.get(kind)), bits(b.get(kind)));
            }
        }
    }

    #[test]
    fn every_response_round_trips_bit_for_bit(resp in response()) {
        let payload = encode(&resp).unwrap();
        let back: Response = decode(&payload).unwrap();
        prop_assert_eq!(encode(&back).unwrap(), payload);
        if let (Response::Hits(a), Response::Hits(b)) = (&resp, &back) {
            let distances = |r: &HitsReport| r.hits.iter().map(|h| h.distance.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(distances(a), distances(b));
        } else {
            // No NaN outside hit lists: plain equality holds.
            prop_assert_eq!(back, resp);
        }
    }
}

/// One valid payload of every request variant.
fn sample_requests() -> Vec<Vec<u8>> {
    let mesh = TriMesh {
        vertices: vec![Vec3::new(0.0, 1.0, 2.0), Vec3::new(-0.0, f64::NAN, 1e-310)],
        triangles: vec![[0, 1, 1]],
    };
    let query = Query {
        weights: Weights(Some(vec![1.0, 2.0, 3.0])),
        ..Query::threshold(FeatureKind::PrincipalMoments, 0.5)
    };
    let features = FeatureSet {
        moment_invariants: vec![1.0, 2.0, 3.0],
        geometric: vec![4.0; 5],
        principal_moments: vec![5.0; 3],
        eigenvalues: vec![6.0; 8],
        higher_order: vec![7.0; 10],
        shape_distribution: vec![8.0; 64],
        shell_histogram: vec![9.0; 32],
    };
    let requests = [
        Request::SearchFeatures {
            features,
            query: query.clone(),
        },
        Request::SearchMesh {
            mesh: mesh.clone(),
            query,
        },
        Request::MultiStep {
            mesh: mesh.clone(),
            plan: MultiStepPlan::paper_default(),
        },
        Request::Insert {
            name: "bracket-é".into(),
            mesh,
        },
        Request::Remove { id: 7 },
        Request::Info,
        Request::Stats,
        Request::Traces {
            last: 3,
            slow: true,
        },
        Request::Ping,
    ];
    requests
        .into_iter()
        .map(|request| {
            encode(&RequestEnvelope {
                trace_id: Some("aabbccdd00112233".into()),
                request,
            })
            .unwrap()
        })
        .collect()
}

/// One valid payload of every response variant.
fn sample_responses() -> Vec<Vec<u8>> {
    let responses = [
        Response::Hits(HitsReport {
            hits: vec![NamedHit {
                id: 3,
                name: "gear".into(),
                distance: 0.25,
                similarity: 0.75,
            }],
        }),
        Response::Inserted { id: 1 },
        Response::Removed { id: 2 },
        Response::Info(InfoReport {
            shapes: 1,
            voxel_resolution: 24,
            spectrum_dim: 8,
            spaces: Vec::new(),
        }),
        Response::Stats(StatsReport {
            shapes: 1,
            server: ServerMetrics::default(),
            transport: TransportStats::default(),
            stages: Vec::new(),
            requests: Vec::new(),
            cache: None,
        }),
        Response::Traces(TracesReport {
            slow_threshold_us: 5,
            traces: Vec::new(),
        }),
        Response::Pong,
        Response::Error(ErrorReply::new(ErrorKind::UnknownShape, "no shape 9")),
    ];
    responses.iter().map(|r| encode(r).unwrap()).collect()
}

#[test]
fn every_strict_prefix_and_any_trailing_byte_is_malformed() {
    for payload in sample_requests() {
        assert!(decode_request(&payload).is_ok());
        for end in 0..payload.len() {
            assert!(
                malformed(decode_request(&payload[..end])),
                "request prefix {end}/{}",
                payload.len()
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(malformed(decode_request(&long)));
    }
    for payload in sample_responses() {
        assert!(decode::<Response>(&payload).is_ok());
        for end in 0..payload.len() {
            assert!(
                malformed(decode::<Response>(&payload[..end])),
                "response prefix {end}/{}",
                payload.len()
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(malformed(decode::<Response>(&long)));
    }
}

/// Payload builders for hand-made hostile inputs.
fn le32(n: u32) -> [u8; 4] {
    n.to_le_bytes()
}

/// An untraced envelope around a request tag and raw fields.
fn envelope(tag: u8, fields: &[&[u8]]) -> Vec<u8> {
    let mut p = vec![0, tag];
    fields.iter().for_each(|f| p.extend_from_slice(f));
    p
}

const EMPTY_MESH: [u8; 8] = [0; 8];

/// A top-1 query in feature space `kind`, unweighted.
fn query_bytes(kind: u8) -> Vec<u8> {
    let mut q = vec![kind, 0, 0];
    q.extend_from_slice(&1u64.to_le_bytes());
    q
}

#[test]
fn unknown_tags_bad_utf8_and_out_of_range_kinds_are_malformed() {
    // Unknown request and response tags, and a bad Option byte.
    assert!(malformed(decode_request(&envelope(9, &[]))));
    assert!(malformed(decode_request(&envelope(255, &[]))));
    assert!(malformed(decode_request(&[2, 8])));
    assert!(malformed(decode::<Response>(&[8])));
    assert!(malformed(decode::<Response>(&[255])));
    // A bad flag and a bad query-mode tag.
    assert!(malformed(decode_request(&envelope(7, &[&[0; 8], &[2]]))));
    let mut q = query_bytes(0);
    q[2] = 2;
    assert!(malformed(decode_request(&envelope(1, &[&EMPTY_MESH, &q]))));

    // Invalid UTF-8 in a name, a trace id, a hit name and a message.
    let name = [&le32(2)[..], &[0xff, 0xfe]].concat();
    assert!(malformed(decode_request(&envelope(
        3,
        &[&name, &EMPTY_MESH]
    ))));
    let traced = [&[1][..], &name, &[8]].concat();
    assert!(malformed(decode_request(&traced)));
    let hit = [&[0][..], &le32(1), &[0; 8], &name, &[0; 16]].concat();
    assert!(malformed(decode::<Response>(&hit)));
    let error = [&[7][..], &[2], &name].concat();
    assert!(malformed(decode::<Response>(&error)));

    // FeatureKind and ErrorKind outside their ranges.
    let ok = envelope(1, &[&EMPTY_MESH, &query_bytes(6)]);
    assert!(decode_request(&ok).is_ok());
    let bad = envelope(1, &[&EMPTY_MESH, &query_bytes(7)]);
    assert!(malformed(decode_request(&bad)));
    let plan = [&le32(1)[..], &[200], &[0; 16]].concat();
    assert!(malformed(decode_request(&envelope(
        2,
        &[&EMPTY_MESH, &plan]
    ))));
    let error = [&[7][..], &[8], &le32(0)].concat();
    assert!(malformed(decode::<Response>(&error)));
}

#[test]
fn counts_beyond_the_bytes_present_are_malformed_before_allocating() {
    // A SearchMesh declaring u32::MAX vertices in 20 bytes: allocating
    // for the count would ask for about 100 GB.
    let mesh = envelope(1, &[&le32(u32::MAX), &[0; 14]]);
    assert_eq!(mesh.len(), 20);
    assert!(malformed(decode_request(&mesh)));
    // The same for triangles, feature vectors, weights, plan steps,
    // strings, hits and a JSON report body.
    let triangles = envelope(1, &[&le32(0), &le32(u32::MAX), &[0; 12]]);
    assert!(malformed(decode_request(&triangles)));
    let vector = envelope(0, &[&le32(u32::MAX), &[0; 64]]);
    assert!(malformed(decode_request(&vector)));
    let weights = envelope(1, &[&EMPTY_MESH, &[0, 1], &le32(u32::MAX)]);
    assert!(malformed(decode_request(&weights)));
    let steps = envelope(2, &[&EMPTY_MESH, &le32(u32::MAX), &[0; 16]]);
    assert!(malformed(decode_request(&steps)));
    let name = envelope(3, &[&le32(u32::MAX), &[b'a'; 16]]);
    assert!(malformed(decode_request(&name)));
    let traced = [&[1][..], &le32(u32::MAX), &[b'a'; 16]].concat();
    assert!(malformed(decode_request(&traced)));
    let hits = [&[0][..], &le32(u32::MAX), &[0; 28]].concat();
    assert!(malformed(decode::<Response>(&hits)));
    let info = [&[3][..], &le32(u32::MAX), b"{}"].concat();
    assert!(malformed(decode::<Response>(&info)));
}

#[test]
fn trace_ids_are_capped_at_max_trace_id_bytes() {
    let with_id = |n: usize| RequestEnvelope {
        trace_id: Some("é".repeat(n / 2) + &"a".repeat(n % 2)),
        request: Request::Ping,
    };
    let (id, _) = decode_request(&encode(&with_id(MAX_TRACE_ID_BYTES)).unwrap()).unwrap();
    assert_eq!(id.map(|s| s.len()), Some(MAX_TRACE_ID_BYTES));
    let err = decode_request(&encode(&with_id(MAX_TRACE_ID_BYTES + 1)).unwrap()).unwrap_err();
    assert!(
        matches!(&err, WireError::Malformed(m) if m.contains("trace id")),
        "{err}"
    );
}
