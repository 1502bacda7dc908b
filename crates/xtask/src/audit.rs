//! The rule engine behind `cargo xtask audit` — concurrency and
//! resource-safety checks for the serving stack.
//!
//! Four rule families (see DESIGN.md "Static analysis &
//! error-handling policy"):
//!
//! * `lock-discipline` — a `Mutex`/`RwLock` guard binding must not
//!   stay live across blocking calls: I/O, channel operations,
//!   `thread::sleep`, or calls into extraction/search. Snapshot reads
//!   in the SERVER tier exist precisely so no lock is held through
//!   heavy work; this rule keeps that fixed mechanically.
//! * `atomic-ordering` — every `Ordering::Relaxed` in non-test code
//!   must carry an `// audit: ordering(<reason>)` justification (or be
//!   upgraded); `Ordering::SeqCst` is flagged as probable
//!   over-synchronization (Acquire/Release almost always suffices).
//! * `thread-hygiene` — every `thread::spawn` / `Builder::spawn` must
//!   have its `JoinHandle` joined somewhere in the same file
//!   (shutdown/Drop path) or carry a written detach waiver. Scoped
//!   spawns (`scope.spawn`, crossbeam) auto-join and are exempt.
//! * `wire-alloc` — on wire/file-decode paths, any
//!   `Vec::with_capacity(n)` / `vec![_; n]` / `.reserve(n)` whose size
//!   comes from decoded input must be dominated in-function by a cap
//!   check mentioning a named `MAX_*` constant (or an explicit
//!   max/limit comparison) on the same variable.
//!
//! Like `lint`, this is a masked line scanner, not a parser: it is
//! deliberately over-approximate and uses waivers
//! (`// audit: allow(<rule>) — <reason>`) as the escape hatch.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::scan::{mask, push_finding, test_lines, workspace_units, Report, Tool, Waiver};

/// Rule names (shared with waiver `allow(...)` syntax).
pub const RULE_LOCK: &str = "lock-discipline";
pub const RULE_ORDERING: &str = "atomic-ordering";
pub const RULE_THREAD: &str = "thread-hygiene";
pub const RULE_WIRE: &str = "wire-alloc";

/// All audit rule names, for waiver-inventory validation.
pub const AUDIT_RULES: [&str; 4] = [RULE_LOCK, RULE_ORDERING, RULE_THREAD, RULE_WIRE];

/// Files (workspace-relative prefixes) whose allocations decode wire
/// or file input and therefore fall under `wire-alloc`. The dataset
/// crate *generates* meshes procedurally and is deliberately absent.
const WIRE_AUDITED_PREFIXES: [&str; 5] = [
    "crates/net/src/",
    "crates/geom/src/io.rs",
    "crates/core/src/le.rs",
    "crates/core/src/persist.rs",
    "crates/core/src/snapshot.rs",
];

/// Line fragments that block: I/O, channel ops, sleeping, joining, or
/// calls into extraction/search. A live lock guard on such a line is a
/// `lock-discipline` finding. Shared with the `hotpath` pass, which
/// flags (a subset of) these inside stage-reachable functions.
pub const BLOCKING_PATTERNS: [&str; 25] = [
    "sleep(",
    ".recv()",
    ".recv_timeout(",
    ".recv_deadline(",
    ".send(",
    ".write_all(",
    ".read_exact(",
    ".read_to_end(",
    ".read_to_string(",
    ".flush()",
    "write_frame(",
    "read_frame(",
    ".accept()",
    "connect(",
    "connect_timeout(",
    ".join()",
    "extract(",
    "search_mesh(",
    "search_features(",
    "multi_step_search(",
    "multi_step_mesh(",
    "search_mesh_on(",
    "search_features_on(",
    "multi_step_mesh_on(",
    "bulk_insert(",
];

/// Audits the workspace rooted at `root` (same unit discovery as
/// `lint`). When `changed` is given, only files in that set are
/// scanned.
pub fn audit_root(root: &Path, changed: Option<&HashSet<PathBuf>>) -> Result<Report, String> {
    let mut report = Report::default();
    for unit in workspace_units(root, changed)? {
        for file in &unit.files {
            report.files_scanned += 1;
            let source = std::fs::read_to_string(file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .into_owned();
            audit_file(&mut report, &rel, &source);
        }
    }
    report.sort();
    Ok(report)
}

fn audit_file(report: &mut Report, rel: &str, source: &str) {
    let masked = mask(source);
    let lines: Vec<&str> = masked.text.lines().collect();
    let in_test = test_lines(&lines);
    let wire_audited = WIRE_AUDITED_PREFIXES
        .iter()
        .any(|p| rel == *p || rel.starts_with(p));

    check_locks(report, &masked.waivers, &lines, &in_test, rel);
    check_threads(report, &masked.waivers, &lines, &in_test, rel);
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let lineno = idx + 1;
        check_ordering(report, &masked.waivers, &lines, rel, lineno, line);
        if wire_audited {
            check_wire_alloc(report, &masked.waivers, &lines, rel, lineno, line);
        }
    }
}

// ---------------------------------------------------------------------
// Rule 1: lock-discipline
// ---------------------------------------------------------------------

/// A lock guard currently live in the scan.
struct LiveGuard {
    name: String,
    bound_line: usize,
    /// Brace depth at the end of the binding line; the guard dies when
    /// depth drops below this.
    depth: usize,
    /// Whether a finding was already emitted for this guard (one per
    /// guard is enough).
    reported: bool,
}

/// Tracks `let guard = ..lock()/..read()/..write()` bindings by brace
/// depth and flags the first blocking call each guard is live across.
fn check_locks(
    report: &mut Report,
    waivers: &[Waiver],
    lines: &[&str],
    in_test: &[bool],
    rel: &str,
) {
    let mut depth: usize = 0;
    let mut guards: Vec<LiveGuard> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let exempt = in_test[idx];

        // Explicit early release: drop(guard) retires the binding.
        if !guards.is_empty() {
            guards.retain(|g| !line.contains(&format!("drop({})", g.name)));
        }

        // Blocking call while a guard is live?
        if !exempt && !guards.is_empty() {
            let blocking = BLOCKING_PATTERNS.iter().find(|p| line.contains(**p));
            if let Some(pattern) = blocking {
                for guard in guards.iter_mut().filter(|g| !g.reported) {
                    // The binding line itself may both take the lock
                    // and name a blocking-looking call (e.g. a lock
                    // acquired from an accessor); only lines after the
                    // binding count.
                    if lineno > guard.bound_line {
                        guard.reported = true;
                        push_finding(
                            report,
                            waivers,
                            lines,
                            rel,
                            lineno,
                            Tool::Audit,
                            RULE_LOCK,
                            format!(
                                "lock guard `{}` (bound line {}) held across blocking call `{}` — \
                                 drop the guard first, or waive with a reason",
                                guard.name,
                                guard.bound_line,
                                pattern.trim_end_matches('(')
                            ),
                        );
                    }
                }
            }
        }

        // New guard binding on this line? Registered after the
        // blocking check so a binding never flags itself.
        if !exempt {
            if let Some(name) = lock_binding(line) {
                // `_` bindings drop the guard immediately — no risk.
                // `_name` bindings DO hold the guard and are tracked.
                if name != "_" {
                    guards.push(LiveGuard {
                        name,
                        bound_line: lineno,
                        depth: depth + line_open_delta(line),
                        reported: false,
                    });
                }
            }
        }

        // Brace tracking; retire guards whose scope closed.
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }
    }
}

/// Net `{` minus `}` before any scope can close on the binding line —
/// used so `let g = m.lock(); {` registers at the inner depth. For the
/// common single-statement case this is 0.
fn line_open_delta(line: &str) -> usize {
    let mut delta: isize = 0;
    let mut min = 0isize;
    for ch in line.chars() {
        match ch {
            '{' => delta += 1,
            '}' => {
                delta -= 1;
                min = min.min(delta);
            }
            _ => {}
        }
    }
    // Guards bound on a line that closes scopes are rare; anchor at
    // the post-line depth change, never below zero net.
    delta.max(min).max(0) as usize
}

/// If `line` binds a lock guard (`let [mut] name = ...lock()/.read()/
/// .write()...`), returns the binding name.
fn lock_binding(line: &str) -> Option<String> {
    let acquires = line.contains("lock()") || line.contains(".read()") || line.contains(".write()");
    if !acquires {
        return None;
    }
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    // The acquisition must come after the `=` (a destructured
    // `let Ok(g) = m.lock()` style is missed — documented limitation).
    let eq = trimmed.find('=')?;
    let after_eq = &trimmed[eq + 1..];
    let acquires_rhs = after_eq.contains("lock()")
        || after_eq.contains(".read()")
        || after_eq.contains(".write()");
    (!name.is_empty() && acquires_rhs).then_some(name)
}

// ---------------------------------------------------------------------
// Rule 2: atomic-ordering
// ---------------------------------------------------------------------

fn check_ordering(
    report: &mut Report,
    waivers: &[Waiver],
    lines: &[&str],
    rel: &str,
    lineno: usize,
    line: &str,
) {
    // Token-boundary matching on the bare name: `Ordering::Relaxed`,
    // `use ... Relaxed`, and aliased forms all hit, so the rule cannot
    // be dodged by importing the variant. `std::cmp::Ordering` never
    // declares these names, so there are no sort-comparator false
    // positives.
    if has_token(line, "Relaxed") {
        push_finding(
            report,
            waivers,
            lines,
            rel,
            lineno,
            Tool::Audit,
            RULE_ORDERING,
            "Ordering::Relaxed on a cross-thread atomic — upgrade the ordering or \
             justify with // audit: ordering(<reason>)"
                .to_string(),
        );
    }
    if has_token(line, "SeqCst") {
        push_finding(
            report,
            waivers,
            lines,
            rel,
            lineno,
            Tool::Audit,
            RULE_ORDERING,
            "Ordering::SeqCst is over-synchronization on hot paths — \
             Acquire/Release almost always suffices; justify with // audit: ordering(<reason>)"
                .to_string(),
        );
    }
}

/// Does `line` contain `token` delimited by non-identifier characters?
pub(crate) fn has_token(line: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let abs = start + pos;
        let prev_ok = !line[..abs]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let next_ok = !line[abs + token.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if prev_ok && next_ok {
            return true;
        }
        start = abs + token.len();
    }
    false
}

// ---------------------------------------------------------------------
// Rule 3: thread-hygiene
// ---------------------------------------------------------------------

/// Flags `thread::spawn` / `Builder::spawn` in files that never call
/// `.join()`. The heuristic is file-level: a spawn whose handle is
/// joined on some shutdown/Drop path elsewhere in the same file is
/// considered hygienic (matching how NetServer/MetricsServer are
/// structured); a file that spawns and never joins must waive each
/// spawn with a detach reason.
fn check_threads(
    report: &mut Report,
    waivers: &[Waiver],
    lines: &[&str],
    in_test: &[bool],
    rel: &str,
) {
    let file_joins = lines
        .iter()
        .enumerate()
        .any(|(idx, l)| !in_test[idx] && l.contains(".join()"));

    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let is_spawn = line.contains("thread::spawn(")
            || (line.contains(".spawn(") && !line.contains("Command"));
        if !is_spawn {
            continue;
        }
        // Scoped spawns auto-join at the end of the scope closure.
        if spawn_receiver_is_scope(line) {
            continue;
        }
        if !file_joins {
            push_finding(
                report,
                waivers,
                lines,
                rel,
                idx + 1,
                Tool::Audit,
                RULE_THREAD,
                "spawned thread with no .join() anywhere in this file — join the \
                 handle on shutdown/Drop or waive with a detach reason"
                    .to_string(),
            );
        }
    }
}

/// Is the receiver immediately before `.spawn(` the identifier
/// `scope`/`s` of a scoped-thread API (`scope.spawn(..)`)? Builder
/// chains (`Builder::new()...spawn(`) and `thread::spawn(` are not.
fn spawn_receiver_is_scope(line: &str) -> bool {
    line.find(".spawn(").is_some_and(|pos| {
        let recv: String = line[..pos]
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        recv == "scope" || recv == "s"
    })
}

// ---------------------------------------------------------------------
// Rule 4: wire-alloc
// ---------------------------------------------------------------------

/// The allocation forms rule 4 inspects.
const ALLOC_FORMS: [&str; 3] = ["with_capacity(", "vec![", ".reserve("];

fn check_wire_alloc(
    report: &mut Report,
    waivers: &[Waiver],
    lines: &[&str],
    rel: &str,
    lineno: usize,
    line: &str,
) {
    for form in ALLOC_FORMS {
        let Some(pos) = line.find(form) else { continue };
        let arg = match form {
            "vec![" => {
                // vec![expr; n] — the size is after the `;`.
                let inner = balanced_span(&line[pos + form.len()..], '[', ']');
                match inner.rsplit_once(';') {
                    Some((_, n)) => n.trim().to_string(),
                    None => continue, // vec![a, b, c] — literal list, fixed size
                }
            }
            _ => balanced_span(&line[pos + form.len()..], '(', ')')
                .trim()
                .to_string(),
        };
        let Some(var) = suspicious_size_var(&arg) else {
            continue;
        };
        if !cap_check_dominates(lines, lineno, &var) {
            push_finding(
                report,
                waivers,
                lines,
                rel,
                lineno,
                Tool::Audit,
                RULE_WIRE,
                format!(
                    "allocation sized by `{var}` on a wire/file-decode path with no \
                     dominating cap check against a MAX_* constant — validate the \
                     length first or waive with a reason"
                ),
            );
        }
        break; // one finding per line
    }
}

/// The argument text up to the matching close delimiter (or the rest
/// of the line if unbalanced — line-local scanner limitation).
pub(crate) fn balanced_span(rest: &str, open: char, close: char) -> &str {
    let mut depth = 1;
    for (i, ch) in rest.char_indices() {
        if ch == open {
            depth += 1;
        } else if ch == close {
            depth -= 1;
            if depth == 0 {
                return &rest[..i];
            }
        }
    }
    rest
}

/// Extracts the first "suspicious" size variable from an allocation
/// argument, or `None` if the size is evidently safe.
///
/// Safe tokens: numeric literals, `SCREAMING_CASE` constants, `self`,
/// and identifiers immediately followed by `(` or `.` (function/method
/// results like `cfg.workers.max(1)` — sizes derived through calls are
/// config-shaped, not raw wire integers). An argument containing
/// `.min(` or `.clamp(` is self-capping. What remains — a bare
/// lower-case identifier like `len` or `nv` — is the decoded-input
/// shape this rule exists for.
pub(crate) fn suspicious_size_var(arg: &str) -> Option<String> {
    if arg.contains(".min(") || arg.contains(".clamp(") {
        return None;
    }
    let bytes = arg.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let ident = &arg[start..i];
            // Skip numeric-literal suffixes (`100usize`) — the
            // preceding char is a digit.
            if start > 0 && bytes[start - 1].is_ascii_digit() {
                continue;
            }
            let next_non_space = arg[i..].chars().find(|c| !c.is_whitespace());
            let is_call_or_path =
                matches!(next_non_space, Some('(') | Some('.')) || arg[i..].starts_with("::");
            let is_const = ident
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                && ident.chars().any(|c| c.is_ascii_uppercase());
            let is_keyword = matches!(
                ident,
                "self" | "as" | "usize" | "u8" | "u16" | "u32" | "u64"
            );
            if !is_call_or_path && !is_const && !is_keyword {
                return Some(ident.to_string());
            }
        } else {
            i += 1;
        }
    }
    None
}

/// Looks backward from the allocation to the enclosing `fn` header for
/// a line that mentions `var` together with cap evidence: a `MAX_*`
/// name, or a `<`/`>` comparison alongside a max/limit/cap token.
fn cap_check_dominates(lines: &[&str], alloc_lineno: usize, var: &str) -> bool {
    let alloc_idx = alloc_lineno - 1;
    // Find the enclosing fn header (nearest preceding line with `fn `
    // at depth — heuristically, just the nearest `fn ` line).
    let fn_idx = lines[..alloc_idx]
        .iter()
        .rposition(|l| {
            let t = l.trim_start();
            t.starts_with("fn ") || t.starts_with("pub fn ") || t.contains(" fn ")
        })
        .unwrap_or(0);
    lines[fn_idx..alloc_idx].iter().any(|l| {
        if !has_token(l, var) {
            return false;
        }
        if l.contains("MAX_") {
            return true;
        }
        let compares = l.contains('<') || l.contains('>');
        let capish = ["max", "limit", "cap"]
            .iter()
            .any(|t| l.to_ascii_lowercase().contains(t));
        compares && capish
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::standalone_target;

    fn run(src: &str, rel: &str) -> Report {
        let mut report = Report::default();
        audit_file(&mut report, rel, src);
        report
    }

    #[test]
    fn lock_across_blocking_is_flagged_once() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {
    let guard = m.lock();
    stream.write_all(b\"x\");
    stream.flush();
}
";
        let r = run(src, "crates/x/src/lib.rs");
        let locks: Vec<_> = r.findings.iter().filter(|f| f.rule == RULE_LOCK).collect();
        assert_eq!(locks.len(), 1, "{:?}", r.findings);
        assert_eq!(locks[0].line, 3);
    }

    #[test]
    fn dropped_guard_is_fine() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {
    let guard = m.lock();
    drop(guard);
    std::thread::sleep(d);
}
";
        let r = run(src, "crates/x/src/lib.rs");
        assert!(r.findings.iter().all(|f| f.rule != RULE_LOCK));
    }

    #[test]
    fn guard_scope_close_retires_it() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {
    {
        let guard = m.lock();
    }
    std::thread::sleep(d);
}
";
        let r = run(src, "crates/x/src/lib.rs");
        assert!(r.findings.iter().all(|f| f.rule != RULE_LOCK));
    }

    #[test]
    fn underscore_binding_is_not_a_live_guard() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {
    let _ = m.lock();
    std::thread::sleep(d);
}
";
        let r = run(src, "crates/x/src/lib.rs");
        assert!(r.findings.iter().all(|f| f.rule != RULE_LOCK));
    }

    #[test]
    fn named_underscore_guard_is_live() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {
    let _writer = m.lock();
    other.bulk_insert(meshes);
}
";
        let r = run(src, "crates/x/src/lib.rs");
        assert_eq!(r.findings.iter().filter(|f| f.rule == RULE_LOCK).count(), 1);
    }

    #[test]
    fn relaxed_and_seqcst_are_flagged_and_waivable() {
        let src = "\
fn f(a: &AtomicU64) {
    a.fetch_add(1, Ordering::Relaxed); // audit: ordering(pure counter, read via join barrier)
    a.load(Ordering::Relaxed);
    a.store(0, Ordering::SeqCst);
}
";
        let r = run(src, "crates/x/src/lib.rs");
        let ord: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_ORDERING)
            .collect();
        assert_eq!(ord.len(), 3);
        assert!(ord[0].waiver.is_some());
        assert!(ord[1].waiver.is_none());
        assert!(ord[2].waiver.is_none());
    }

    #[test]
    fn cmp_ordering_is_not_flagged() {
        let src = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.total_cmp(&b) }\n";
        let r = run(src, "crates/x/src/lib.rs");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn spawn_without_join_is_flagged_with_join_is_not() {
        let bad = "fn f() { std::thread::spawn(|| work()); }\n";
        let r = run(bad, "crates/x/src/lib.rs");
        assert_eq!(
            r.findings.iter().filter(|f| f.rule == RULE_THREAD).count(),
            1
        );

        let good = "\
fn f() -> JoinHandle<()> { std::thread::spawn(|| work()) }
fn stop(h: JoinHandle<()>) { let _ = h.join(); }
";
        let r = run(good, "crates/x/src/lib.rs");
        assert!(r.findings.iter().all(|f| f.rule != RULE_THREAD));
    }

    #[test]
    fn scoped_spawn_is_exempt() {
        let src = "fn f() { crossbeam::scope(|scope| { scope.spawn(|_| work()); }); }\n";
        let r = run(src, "crates/x/src/lib.rs");
        assert!(r.findings.iter().all(|f| f.rule != RULE_THREAD));
    }

    #[test]
    fn wire_alloc_without_cap_is_flagged() {
        let src = "\
fn decode(len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    payload
}
";
        let r = run(src, "crates/net/src/proto.rs");
        let wire: Vec<_> = r.findings.iter().filter(|f| f.rule == RULE_WIRE).collect();
        assert_eq!(wire.len(), 1, "{:?}", r.findings);
        assert_eq!(wire[0].line, 2);
    }

    #[test]
    fn wire_alloc_with_cap_passes() {
        let src = "\
fn decode(len: usize) -> Result<Vec<u8>, E> {
    if len > MAX_FRAME_LEN {
        return Err(E::TooLarge);
    }
    let mut payload = vec![0u8; len];
    Ok(payload)
}
";
        let r = run(src, "crates/net/src/proto.rs");
        assert!(r.findings.iter().all(|f| f.rule != RULE_WIRE));
    }

    #[test]
    fn wire_alloc_outside_audited_paths_is_ignored() {
        let src = "fn gen(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
        let r = run(src, "crates/dataset/src/generate.rs");
        assert!(r.findings.is_empty());
    }

    #[test]
    fn config_shaped_sizes_are_benign() {
        let src =
            "fn f(cfg: &Cfg) { let w = Vec::with_capacity(cfg.workers.max(1)); let _ = w; }\n";
        let r = run(src, "crates/net/src/server.rs");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn const_sized_alloc_is_benign() {
        let src = "fn f() { let v: Vec<u8> = Vec::with_capacity(MAX_HEADER); let _ = v; }\n";
        let r = run(src, "crates/net/src/proto.rs");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn cap_check_must_be_in_same_fn() {
        let src = "\
fn checked(len: usize) {
    if len > MAX_LEN { return; }
}
fn unchecked(len: usize) {
    let v = vec![0u8; len];
    let _ = v;
}
";
        let r = run(src, "crates/net/src/proto.rs");
        assert_eq!(r.findings.iter().filter(|f| f.rule == RULE_WIRE).count(), 1);
    }

    #[test]
    fn test_code_is_exempt_from_all_rules() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let g = m.lock();
        stream.write_all(b\"x\");
        a.load(Ordering::Relaxed);
        std::thread::spawn(|| ());
        let v = vec![0u8; len];
    }
}
";
        let r = run(src, "crates/net/src/proto.rs");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn standalone_waiver_covers_next_line() {
        let src = "\
fn f(a: &AtomicU64) {
    // audit: allow(atomic-ordering) — counter is only read after join
    a.fetch_add(1, Ordering::Relaxed);
}
";
        let r = run(src, "crates/x/src/lib.rs");
        assert_eq!(r.unwaived_count(), 0, "{:?}", r.findings);
        assert_eq!(r.waived_count(), 1);
    }

    #[test]
    fn standalone_target_helper() {
        let lines = vec!["a", "", "b"];
        assert_eq!(standalone_target(&lines, 1), Some(3));
    }
}
