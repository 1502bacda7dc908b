//! The rule engine behind `cargo xtask hotpath` — hot-path
//! allocation and blocking analysis.
//!
//! Unlike `lint` and `audit`, which scan every line, this pass first
//! builds the shared intra-workspace call graph ([`crate::graph`])
//! over the masked sources and only judges functions *reachable from
//! the hot path*:
//!
//! * **roots** — every function whose body starts a stage timer
//!   (`StageTimer::start(`), i.e. the instrumented pipeline, query
//!   and write stages, plus the net request-dispatch path (`dispatch` /
//!   `serve_request` in `crates/net/src/`);
//! * **edges** — the shared graph's name-resolved call edges (see
//!   `graph.rs` for the resolution rules and their deliberate
//!   over-approximation).
//!
//! Two rule families fire inside reachable functions, at **function
//! granularity** — one finding per (function, rule), anchored at the
//! first offending line, with the remaining sites listed in the
//! message:
//!
//! * `hot-alloc` — per-call heap allocation: `Vec::new`, `vec![]`,
//!   `.collect()`, `.clone()`, `.to_vec()`, `.to_owned()`, `String`
//!   construction, `format!`, `Box::new`, and `with_capacity` sized
//!   by an un-capped variable;
//! * `hot-block` — blocking calls (audit's table minus the
//!   extraction/search entries, which *are* the hot path, plus
//!   `.lock()`).
//!
//! `#[cfg(test)]` regions contribute neither definitions, edges, nor
//! findings. Assertion/panic lines are exempt (their format arguments
//! only run on failure). Waivers use the unified grammar:
//! `// hotpath: allow(<rule>) — <reason>`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::audit::{suspicious_size_var, BLOCKING_PATTERNS};
use crate::graph::{has_pattern, load_workspace_sources, CallGraph, COLD_LINE_PREFIXES};
use crate::scan::{push_finding, Report, Tool};

pub use crate::graph::SourceFile;

/// Rule names (shared with waiver `allow(...)` syntax).
pub const RULE_HOT_ALLOC: &str = "hot-alloc";
pub const RULE_HOT_BLOCK: &str = "hot-block";

/// All hotpath rule names, for waiver-inventory validation.
pub const HOTPATH_RULES: [&str; 2] = [RULE_HOT_ALLOC, RULE_HOT_BLOCK];

/// Per-call allocation forms. Exact-arity suffixes (`.clone()` rather
/// than `.clone(`) keep `.cloned()` and friends out.
const ALLOC_PATTERNS: [&str; 16] = [
    "Vec::new(",
    "VecDeque::new(",
    "HashMap::new(",
    "HashSet::new(",
    "BTreeMap::new(",
    "vec![",
    ".collect()",
    ".collect::<",
    ".clone()",
    ".to_vec()",
    ".to_owned()",
    "String::new(",
    "String::from(",
    ".to_string()",
    "format!(",
    "Box::new(",
];

/// Entries of audit's blocking table that are calls *into* the
/// pipeline — they are the hot path, not a detour off it.
const PIPELINE_CALLS: [&str; 9] = [
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

/// Analyzes the workspace rooted at `root`. The call graph always
/// covers the full tree; `changed` only restricts which files'
/// findings are emitted.
pub fn hotpath_root(root: &Path, changed: Option<&HashSet<PathBuf>>) -> Result<Report, String> {
    let files = load_workspace_sources(root, changed)?;
    Ok(analyze(&files))
}

fn analyze(files: &[SourceFile]) -> Report {
    let g = CallGraph::build(files);

    // Roots: stage-timer starts (in file/line order), then the net
    // dispatch entry points.
    let mut roots: Vec<usize> = Vec::new();
    for (fi, info) in g.infos.iter().enumerate() {
        for (idx, line) in info.masked.lines().enumerate() {
            if info.in_test[idx] {
                continue;
            }
            let Some(di) = g.fn_of_line[fi][idx] else {
                continue;
            };
            if g.defs[di].in_test {
                continue;
            }
            if line.contains("StageTimer::start(") && !roots.contains(&di) {
                roots.push(di);
            }
        }
    }
    for (di, d) in g.defs.iter().enumerate() {
        if !d.in_test
            && (d.name == "dispatch" || d.name == "serve_request")
            && files[d.file].rel.starts_with("crates/net/src/")
            && !roots.contains(&di)
        {
            roots.push(di);
        }
    }

    let reach = g.forward_reach(&roots);

    // Findings, one per (reachable fn, rule family).
    let mut report = Report {
        files_scanned: files.iter().filter(|f| f.eligible).count(),
        ..Report::default()
    };
    for (di, d) in g.defs.iter().enumerate() {
        let Some(&root) = reach.get(&di) else {
            continue;
        };
        if !files[d.file].eligible {
            continue;
        }
        let info = &g.infos[d.file];
        let lines: Vec<&str> = info.masked.lines().collect();
        let mut alloc_sites: Vec<(usize, &str)> = Vec::new();
        let mut block_sites: Vec<(usize, &str)> = Vec::new();
        for (idx, &line) in lines
            .iter()
            .enumerate()
            .take(d.end.min(lines.len()))
            .skip(d.start - 1)
        {
            if info.in_test[idx] || g.fn_of_line[d.file][idx] != Some(di) {
                continue;
            }
            let trimmed = line.trim_start();
            if COLD_LINE_PREFIXES.iter().any(|p| trimmed.starts_with(p)) {
                continue;
            }
            if let Some(pat) = alloc_pattern(line) {
                alloc_sites.push((idx + 1, pat));
            }
            if let Some(pat) = block_pattern(line) {
                block_sites.push((idx + 1, pat));
            }
        }
        for (rule, sites, verb, advice) in [
            (
                RULE_HOT_ALLOC,
                &alloc_sites,
                "allocates per call",
                "reuse a scratch buffer or hoist the allocation",
            ),
            (
                RULE_HOT_BLOCK,
                &block_sites,
                "may block",
                "move I/O and locking off the hot path",
            ),
        ] {
            let Some(&(lineno, pat)) = sites.first() else {
                continue;
            };
            let more = if sites.len() > 1 {
                let rest: Vec<String> = sites[1..].iter().map(|(l, _)| l.to_string()).collect();
                format!(" (+{} more: line {})", sites.len() - 1, rest.join(", "))
            } else {
                String::new()
            };
            push_finding(
                &mut report,
                &info.waivers,
                &lines,
                &files[d.file].rel,
                lineno,
                Tool::Hotpath,
                rule,
                format!(
                    "hot fn `{}` (reachable from `{}`) {verb}: `{}`{more} — {advice}, \
                     or waive with a reason",
                    d.name,
                    g.defs[root].name,
                    pat.trim_end_matches('('),
                ),
            );
        }
    }
    report.sort();
    report
}

/// The first allocation pattern on `line`, if any. `with_capacity` is
/// only an allocation smell when sized by an un-capped variable.
fn alloc_pattern(line: &str) -> Option<&'static str> {
    for pat in ALLOC_PATTERNS {
        if has_pattern(line, pat) {
            return Some(pat);
        }
    }
    if let Some(pos) = line.find("with_capacity(") {
        let arg = crate::audit::balanced_span(&line[pos + "with_capacity(".len()..], '(', ')');
        if suspicious_size_var(arg).is_some() {
            return Some("with_capacity(");
        }
    }
    None
}

/// Lock acquisitions: `Mutex::lock` and `RwLock::read`/`write`. The
/// empty argument lists keep `io::Read::read(buf)` and
/// `io::Write::write(buf)` out.
const LOCK_CALLS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// The first blocking pattern on `line`, if any.
fn block_pattern(line: &str) -> Option<&'static str> {
    BLOCKING_PATTERNS
        .iter()
        .filter(|p| !PIPELINE_CALLS.contains(p))
        .chain(&LOCK_CALLS)
        .find(|p| has_pattern(line, p))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Report {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile {
                rel: rel.to_string(),
                source: src.to_string(),
                eligible: true,
            })
            .collect();
        analyze(&files)
    }

    const ROOT_FN: &str = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    helper(m);
}
";

    #[test]
    fn allocation_in_root_fn_is_flagged() {
        let src = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    let v: Vec<u8> = Vec::new();
    let w = v.clone();
}
";
        let r = run(&[("crates/voxel/src/lib.rs", src)]);
        let alloc: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_HOT_ALLOC)
            .collect();
        // One finding per fn, anchored at the first site, listing the
        // second.
        assert_eq!(alloc.len(), 1, "{:?}", r.findings);
        assert_eq!(alloc[0].line, 3);
        assert!(alloc[0].message.contains("+1 more"), "{}", alloc[0].message);
    }

    #[test]
    fn unreachable_fn_is_not_flagged() {
        let src = "\
pub fn cold(m: &Mesh) {
    let v: Vec<u8> = Vec::new();
    let _ = v;
}
";
        let r = run(&[("crates/voxel/src/lib.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn reachability_crosses_files_and_crates() {
        let callee = "\
pub fn helper(m: &Mesh) {
    let v = m.verts.to_vec();
    let _ = v;
}
";
        let r = run(&[
            ("crates/voxel/src/lib.rs", ROOT_FN),
            ("crates/geom/src/lib.rs", callee),
        ]);
        let alloc: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_HOT_ALLOC)
            .collect();
        assert_eq!(alloc.len(), 1, "{:?}", r.findings);
        assert_eq!(alloc[0].file, "crates/geom/src/lib.rs");
        assert!(alloc[0].message.contains("reachable from `voxelize`"));
    }

    #[test]
    fn qualified_calls_resolve_against_workspace_impls_only() {
        let root = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    let g = Grid::make(m);
    let v = Vec::with_capacity(16);
    let _ = (g, v);
}
";
        let callee = "\
pub struct Grid;
impl Grid {
    pub fn make(m: &Mesh) -> Grid {
        let bits = vec![0u64; 4];
        let _ = bits;
        Grid
    }
}
pub struct Other;
impl Other {
    pub fn make(m: &Mesh) -> Other {
        let leak: Vec<u8> = Vec::new();
        let _ = leak;
        Other
    }
}
";
        let r = run(&[
            ("crates/voxel/src/lib.rs", root),
            ("crates/voxel/src/grid.rs", callee),
        ]);
        // Grid::make is reachable; Other::make is not (the qualifier
        // disambiguates); Vec::with_capacity creates no edge.
        let files: Vec<(&str, usize)> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_HOT_ALLOC)
            .map(|f| (f.file.as_str(), f.line))
            .collect();
        assert_eq!(
            files,
            vec![("crates/voxel/src/grid.rs", 4)],
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn method_calls_resolve_by_name() {
        let root = "\
pub fn skeletonize(g: &Grid) {
    let _t = StageTimer::start(Stage::Skeletonize);
    g.thin_once();
}
";
        let callee = "\
impl Grid {
    pub fn thin_once(&self) {
        let c: Vec<u8> = Vec::new();
        let _ = c;
    }
}
";
        let r = run(&[
            ("crates/skeleton/src/lib.rs", root),
            ("crates/skeleton/src/thin.rs", callee),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].file, "crates/skeleton/src/thin.rs");
    }

    #[test]
    fn cfg_test_fns_contribute_neither_edges_nor_findings() {
        let src = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    helper(m);
}
#[cfg(test)]
mod tests {
    fn helper(m: &Mesh) {
        let v: Vec<u8> = Vec::new();
        let _ = v;
    }
    #[test]
    fn t() {
        let big: Vec<u8> = Vec::new();
        let _ = big;
    }
}
";
        let r = run(&[("crates/voxel/src/lib.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn net_dispatch_is_a_root() {
        let src = "\
fn serve_request(req: Request) {
    let body = req.body.to_vec();
    let _ = body;
}
";
        let r = run(&[("crates/net/src/server.rs", src)]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("serve_request"));
    }

    #[test]
    fn blocking_calls_are_flagged_but_pipeline_calls_are_not() {
        let src = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    let g = sink.lock();
    extract(m);
    let _ = g;
}
";
        let r = run(&[("crates/voxel/src/lib.rs", src)]);
        let block: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_HOT_BLOCK)
            .collect();
        assert_eq!(block.len(), 1, "{:?}", r.findings);
        assert_eq!(block[0].line, 3);
        assert!(
            !block[0].message.contains("+1 more"),
            "{}",
            block[0].message
        );
    }

    #[test]
    fn capped_with_capacity_is_fine_uncapped_is_not() {
        let src = "\
pub fn voxelize(m: &Mesh, n: usize) {
    let _t = StageTimer::start(Stage::Voxelize);
    let a: Vec<u8> = Vec::with_capacity(MAX_CELLS);
    let b: Vec<u8> = Vec::with_capacity(n);
    let _ = (a, b);
}
";
        let r = run(&[("crates/voxel/src/lib.rs", src)]);
        let alloc: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_HOT_ALLOC)
            .collect();
        assert_eq!(alloc.len(), 1, "{:?}", r.findings);
        assert_eq!(alloc[0].line, 4);
    }

    #[test]
    fn assertion_lines_are_exempt() {
        let src = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    assert!(m.ok(), \"bad mesh: {}\", m.id.to_string());
    debug_assert_eq!(m.n, m.verts.clone().len());
}
";
        let r = run(&[("crates/voxel/src/lib.rs", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn waivers_silence_and_cross_tool_waivers_do_not() {
        let src = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    let v: Vec<u8> = Vec::new(); // hotpath: allow(hot-alloc) — grown once, reused after
    let g = sink.lock(); // audit: allow(hot-block) — wrong tool
    let _ = (v, g);
}
";
        let r = run(&[("crates/voxel/src/lib.rs", src)]);
        assert_eq!(r.waived_count(), 1, "{:?}", r.findings);
        assert_eq!(r.unwaived_count(), 1);
        assert_eq!(r.unwaived().next().unwrap().rule, RULE_HOT_BLOCK);
    }

    #[test]
    fn shadowed_local_names_still_resolve_to_workspace_fns() {
        // A local closure named like a workspace fn still produces the
        // edge — the scanner is name-based and over-approximate by
        // design; this test pins that behavior.
        let root = "\
pub fn voxelize(m: &Mesh) {
    let _t = StageTimer::start(Stage::Voxelize);
    let helper = |x: u32| x + 1;
    helper(3);
}
";
        let callee = "\
pub fn helper(m: &Mesh) {
    let v: Vec<u8> = Vec::new();
    let _ = v;
}
";
        let r = run(&[
            ("crates/voxel/src/lib.rs", root),
            ("crates/geom/src/lib.rs", callee),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].file, "crates/geom/src/lib.rs");
    }

    #[test]
    fn ineligible_files_stay_in_the_graph_but_emit_nothing() {
        let callee = "\
pub fn helper(m: &Mesh) {
    let v = m.verts.to_vec();
    let _ = v;
}
";
        let files = vec![
            SourceFile {
                rel: "crates/voxel/src/lib.rs".to_string(),
                source: ROOT_FN.to_string(),
                eligible: false,
            },
            SourceFile {
                rel: "crates/geom/src/lib.rs".to_string(),
                source: callee.to_string(),
                eligible: true,
            },
        ];
        let r = analyze(&files);
        // The root file is filtered out, but its edges still make the
        // callee reachable.
        assert_eq!(r.files_scanned, 1);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].file, "crates/geom/src/lib.rs");
    }

    #[test]
    fn self_calls_resolve_through_the_impl_type() {
        let src = "\
pub struct Pipe;
impl Pipe {
    pub fn run(&self) {
        let _t = StageTimer::start(Stage::Normalize);
        Self::step();
    }
    fn step() {
        let v: Vec<u8> = Vec::new();
        let _ = v;
    }
}
";
        let r = run(&[("crates/core/src/lib.rs", src)]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 8);
    }
}
