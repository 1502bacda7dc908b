//! Leveled structured tracing: env-filtered JSON-lines events, a
//! process-global redirectable sink, and thread-local trace-id
//! propagation.
//!
//! Events are emitted as single JSON objects per line:
//!
//! ```json
//! {"ts_ms":1712345678901,"level":"info","target":"tdess.serve","msg":"...","trace_id":"..."}
//! ```
//!
//! The active level comes from the `TDESS_LOG` environment variable
//! (`off`, `error`, `warn`, `info`, `debug`, `trace`; default `info`)
//! and can be overridden programmatically with [`set_level`]. The sink
//! defaults to stderr and can be redirected with [`set_sink`] — tests
//! use [`Capture`] to assert on emitted lines.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity of an event, and the verbosity threshold for the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is emitted and stage histograms stop recording.
    Off = 0,
    /// Unrecoverable or dropped-work conditions.
    Error = 1,
    /// Degraded conditions worth operator attention (slow queries,
    /// rejected connections).
    Warn = 2,
    /// Operational lifecycle (startup banner, shutdown). The default.
    Info = 3,
    /// Per-request and per-connection lifecycle.
    Debug = 4,
    /// The most verbose threshold. Per-stage timings are not events:
    /// they live in the stage histograms and request span trees.
    Trace = 5,
}

impl Level {
    /// Parses a `TDESS_LOG` value, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// Lowercase name as emitted in the JSON `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// Sentinel for "TDESS_LOG not parsed yet".
const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The active verbosity threshold, lazily read from `TDESS_LOG` on
/// first use (default [`Level::Info`] when unset or unparsable).
pub fn level() -> Level {
    // The whole state is the one u8 inside the atomic — no other
    // memory is published through it, so Relaxed carries everything
    // every reader needs, and this load sits on every event call site.
    // audit: ordering(single-cell u8 flag; the atomic value IS the whole state, nothing else is published)
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let parsed = std::env::var("TDESS_LOG")
                .ok()
                .and_then(|s| Level::parse(&s))
                .unwrap_or(Level::Info);
            // First writer wins so a racing `set_level` isn't clobbered.
            let _ = LEVEL.compare_exchange(
                LEVEL_UNSET,
                parsed as u8,
                Ordering::Relaxed, // audit: ordering(single-cell u8 flag; CAS success publishes only the cell itself)
                Ordering::Relaxed, // audit: ordering(failure load feeds no memory access, only the re-load below)
            );
            Level::from_u8(LEVEL.load(Ordering::Relaxed)) // audit: ordering(single-cell u8 flag; the atomic value IS the whole state)
        }
        v => Level::from_u8(v),
    }
}

/// Overrides the verbosity threshold for this process (wins over the
/// `TDESS_LOG` environment variable).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed); // audit: ordering(single-cell u8 flag; no other memory is published with it)
}

/// True when events at `l` pass the active filter.
pub fn enabled(l: Level) -> bool {
    l != Level::Off && (l as u8) <= (level() as u8)
}

/// `None` means "write to stderr".
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

fn sink_lock() -> MutexGuard<'static, Option<Box<dyn Write + Send>>> {
    // A panic while holding the lock leaves only a partially written
    // line; the sink itself stays usable.
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Redirects all emitted events to `w` (replacing any previous sink).
pub fn set_sink(w: Box<dyn Write + Send>) {
    *sink_lock() = Some(w);
}

/// Restores the default stderr sink.
pub fn sink_to_stderr() {
    *sink_lock() = None;
}

/// A cloneable in-memory sink for tests: install it, run the code
/// under test, then assert on [`Capture::contents`].
#[derive(Debug, Clone, Default)]
pub struct Capture {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl Capture {
    /// Creates a capture buffer and installs it as the global sink.
    pub fn install() -> Capture {
        let cap = Capture::default();
        set_sink(Box::new(CaptureWriter(Arc::clone(&cap.buf))));
        cap
    }

    /// Everything emitted since installation, as (lossy) UTF-8.
    pub fn contents(&self) -> String {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&buf).into_owned()
    }
}

struct CaptureWriter(Arc<Mutex<Vec<u8>>>);

impl Write for CaptureWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        // hotpath: allow(hot-block) — sink handoff under a one-line lock, events are filter-gated upstream
        let mut buf = self.0.lock().unwrap_or_else(|e| e.into_inner());
        buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

thread_local! {
    static TRACE_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Runs `f` with `id` as the ambient trace id for this thread; events
/// emitted inside pick it up automatically. Restores the previous id
/// (supporting nesting) on exit.
pub fn with_trace_id<R>(id: Option<String>, f: impl FnOnce() -> R) -> R {
    let prev = TRACE_ID.with(|c| c.replace(id));
    let out = f();
    TRACE_ID.with(|c| *c.borrow_mut() = prev);
    out
}

/// The ambient trace id set by the nearest enclosing [`with_trace_id`].
pub fn current_trace_id() -> Option<String> {
    TRACE_ID.with(|c| c.borrow().clone())
}

/// Generates a 16-hex-digit trace id without any RNG dependency: a
/// splitmix64 finalizer over wall-clock nanos, a process-wide counter,
/// and the thread id, so concurrent clients get distinct ids.
pub fn gen_trace_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed); // audit: ordering(uniqueness counter; atomic RMW alone guarantees distinct values)
    let mut hasher = DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    let mut x = nanos ^ seq.rotate_left(32) ^ hasher.finish();
    // splitmix64 finalizer: avalanche the structured inputs.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    // hotpath: allow(hot-alloc) — the id string is the generated artifact
    format!("{x:016x}")
}

pub(crate) fn push_json_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Emits one structured event as a JSON line to the active sink.
///
/// Does nothing when `level` fails the filter. The line carries
/// `ts_ms`, `level`, `target`, `msg`, the ambient trace id (if any),
/// and the supplied key/value fields. Prefer the [`event!`] and
/// [`event_kv!`] macros, which skip message formatting when disabled.
///
/// [`event!`]: crate::event
/// [`event_kv!`]: crate::event_kv
pub fn emit(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    use std::fmt::Write as _;
    if !enabled(level) {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = String::with_capacity(128);
    let _ = write!(line, "{{\"ts_ms\":{ts_ms},\"level\":\"{}\"", level.as_str());
    line.push_str(",\"target\":\"");
    push_json_escaped(&mut line, target);
    line.push_str("\",\"msg\":\"");
    push_json_escaped(&mut line, msg);
    line.push('"');
    if let Some(id) = current_trace_id() {
        line.push_str(",\"trace_id\":\"");
        push_json_escaped(&mut line, &id);
        line.push('"');
    }
    for (k, v) in fields {
        line.push_str(",\"");
        push_json_escaped(&mut line, k);
        line.push_str("\":\"");
        push_json_escaped(&mut line, v);
        line.push('"');
    }
    line.push_str("}\n");
    // Holding the sink lock across the write is the point: it is what
    // keeps concurrently emitted JSON lines from interleaving. The
    // line is fully formatted before the lock is taken, so the
    // critical section is exactly one buffered write plus flush.
    let mut guard = sink_lock();
    match guard.as_mut() {
        Some(w) => {
            let _ = w.write_all(line.as_bytes()); // audit: allow(lock-discipline) — the sink lock exists to serialize this write; line is preformatted, section is write+flush only
            let _ = w.flush();
        }
        None => {
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(line.as_bytes()); // audit: allow(lock-discipline) — stderr lock serializes one preformatted line, mirroring the sink branch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_accepts_aliases_and_rejects_junk() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("OFF"), Some(Level::Off));
        assert_eq!(Level::parse("none"), Some(Level::Off));
        assert_eq!(Level::parse(" warn "), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("TRACE"), Some(Level::Trace));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_order_by_verbosity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut out = String::new();
        push_json_escaped(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
    }

    #[test]
    fn trace_ids_are_distinct_and_well_formed() {
        let a = gen_trace_id();
        let b = gen_trace_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16, "{id}");
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
        }
    }

    #[test]
    fn trace_id_context_nests_and_restores() {
        assert_eq!(current_trace_id(), None);
        let inner = with_trace_id(Some("outer".into()), || {
            let nested = with_trace_id(Some("inner".into()), current_trace_id);
            assert_eq!(nested.as_deref(), Some("inner"));
            current_trace_id()
        });
        assert_eq!(inner.as_deref(), Some("outer"));
        assert_eq!(current_trace_id(), None);
    }
}
