//! The timed phase: wire requests only, tracing off. Reads run in a
//! closed loop on one connection; writes run after them on a second
//! one, each timed from its send.

use std::time::{Duration, Instant};

use tdess_core::ShapeId;
use tdess_net::{HitsReport, NetClient, Request, Response};

use crate::stats::{blocks, median};
use crate::workload::{ReadStream, Write};

/// What the reader saw.
pub struct ReadLog {
    /// Round trip of every completed read, ms.
    pub lat_ms: Vec<f64>,
    /// When each completed read finished, s since the loop started.
    pub done_s: Vec<f64>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that errored or came back with the wrong variant.
    pub failed: usize,
    /// `(stream index, answer)` of the reads `keep` selected.
    pub kept: Vec<(usize, HitsReport)>,
    /// Wall time of the loop, s.
    pub elapsed_s: f64,
    /// Stream index after the last read.
    pub next: usize,
}

/// Sends `stream` requests `range` back to back until `deadline`.
pub fn read_loop(
    client: &mut NetClient,
    stream: &ReadStream,
    range: std::ops::Range<usize>,
    deadline: Instant,
    keep: impl Fn(usize) -> bool,
) -> ReadLog {
    let t0 = Instant::now();
    let mut log = ReadLog {
        lat_ms: Vec::with_capacity(1 << 16),
        done_s: Vec::with_capacity(1 << 16),
        attempted: 0,
        failed: 0,
        kept: Vec::new(),
        elapsed_s: 0.0,
        next: range.start,
    };
    let mut i = range.start;
    while Instant::now() < deadline && i < range.end.min(stream.len()) {
        let req = stream.request(i);
        let sent = Instant::now();
        let resp = client.request(&req);
        let done = Instant::now();
        log.attempted += 1;
        match resp {
            Ok(Response::Hits(report)) => {
                log.lat_ms.push((done - sent).as_secs_f64() * 1e3);
                log.done_s.push((done - t0).as_secs_f64());
                if keep(i) {
                    log.kept.push((i, report));
                }
            }
            Ok(_) | Err(_) => log.failed += 1,
        }
        i += 1;
    }
    log.elapsed_s = t0.elapsed().as_secs_f64();
    log.next = i;
    log
}

/// What the writer saw.
#[derive(Default)]
pub struct WriteLog {
    pub insert_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    /// How late each send left against its schedule, ms.
    pub late_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// `(assigned id, op index)` of every successful insert.
    pub inserted: Vec<(ShapeId, usize)>,
}

/// How a writer schedules its ops.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Back to back; latency from the send.
    Closed,
    /// Op `k` due at `start + k / rate`, but never before the previous
    /// op answered; latency from the send. Spreads the samples over
    /// time without queueing.
    Paced(f64),
}

/// Sends `ops` from `start` on, scheduled by `pace`.
pub fn write_loop(client: &mut NetClient, ops: &[Write], pace: Pace, start: Instant) -> WriteLog {
    let mut log = WriteLog::default();
    for (k, op) in ops.iter().enumerate() {
        let due = match pace {
            Pace::Closed => Instant::now(),
            Pace::Paced(rate) => start + Duration::from_secs_f64(k as f64 / rate),
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let req = match op {
            Write::Insert { name, mesh } => Request::Insert {
                name: name.clone(),
                mesh: mesh.clone(),
            },
            Write::Remove { id } => Request::Remove { id: *id },
        };
        let sent = Instant::now();
        log.late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let resp = client.request(&req);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        match (op, resp) {
            (Write::Insert { .. }, Ok(Response::Inserted { id })) => {
                log.insert_ms.push(ms);
                log.inserted.push((id, k));
            }
            (Write::Remove { id }, Ok(Response::Removed { id: got })) if got == *id => {
                log.remove_ms.push(ms)
            }
            _ => log.failed += 1,
        }
    }
    log
}

impl ReadLog {
    /// Reads per second: the median over blocks of at least 100
    /// consecutive reads of each block's rate.
    pub fn qps(&self) -> f64 {
        let per: Vec<f64> = blocks(self.done_s.len(), 100)
            .map(|(lo, hi)| {
                let began = if lo == 0 { 0.0 } else { self.done_s[lo - 1] };
                (hi - lo) as f64 / (self.done_s[hi - 1] - began)
            })
            .collect();
        median(&per)
    }
}
