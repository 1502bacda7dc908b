//! Integration tests for `cargo xtask hotpath`: fixture trees as
//! library calls and through the built binary, covering reachability
//! (cross-crate, qualified, method), cfg(test) exclusion, waivers,
//! `--json`, and the full-graph/filtered-findings `--changed` split.

use std::path::PathBuf;
use std::process::Command;

use xtask::hotpath::{RULE_HOT_ALLOC, RULE_HOT_BLOCK};
use xtask::hotpath_root;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn positive_fixture_flags_reachable_fns_only() {
    let report = hotpath_root(&fixture("hotpath-positive"), None).unwrap();
    assert_eq!(report.waived_count(), 0);

    let allocs: Vec<&str> = report
        .unwaived()
        .filter(|f| f.rule == RULE_HOT_ALLOC)
        .map(|f| f.message.as_str())
        .collect();
    // One finding per hot function: the free helper (name call), the
    // impl method (qualified call), the cross-crate callee, and the
    // net dispatch root's un-capped with_capacity.
    assert_eq!(allocs.len(), 4, "{allocs:?}");
    for name in ["`helper`", "`run`", "`cross`", "`dispatch`"] {
        assert!(
            allocs.iter().any(|m| m.contains(name)),
            "no hot-alloc finding for {name}: {allocs:?}"
        );
    }
    // Root provenance is part of the message.
    assert!(
        allocs
            .iter()
            .any(|m| m.contains("reachable from `extract_stage`")),
        "{allocs:?}"
    );

    let blocks: Vec<&str> = report
        .unwaived()
        .filter(|f| f.rule == RULE_HOT_BLOCK)
        .map(|f| f.message.as_str())
        .collect();
    // dispatch's write_all fires; its call into the pipeline
    // (`.extract(`) does not.
    assert_eq!(blocks.len(), 1, "{blocks:?}");
    assert!(blocks[0].contains("`dispatch`"), "{blocks:?}");
    assert!(blocks[0].contains("write_all"), "{blocks:?}");

    // The unreachable fn and the cfg(test) module stay silent.
    for f in &report.findings {
        assert!(!f.message.contains("cold_utility"), "{f:?}");
        assert!(!f.message.contains("test_code_is_invisible"), "{f:?}");
    }
}

#[test]
fn negative_fixture_is_clean_with_waivers_counted() {
    let report = hotpath_root(&fixture("hotpath-negative"), None).unwrap();
    assert_eq!(
        report.unwaived_count(),
        0,
        "unexpected findings: {:?}",
        report.unwaived().collect::<Vec<_>>()
    );
    // The waived response-envelope alloc and reply-frame write.
    assert_eq!(report.waived_count(), 2);
    for f in &report.findings {
        let reason = f.waiver.as_deref().unwrap_or("");
        assert!(!reason.is_empty(), "waiver without a reason: {f:?}");
    }
}

/// `RwLock::read()`/`write()` block like `Mutex::lock()`; the
/// buffer-taking `io::Read::read(buf)` and `io::Write::write(buf)` are
/// not lock calls.
#[test]
fn rwlock_read_and_write_are_hot_blocks() {
    let report = hotpath_root(&fixture("hotpath-rwlock"), None).unwrap();
    let blocks: Vec<&str> = report
        .unwaived()
        .filter(|f| f.rule == RULE_HOT_BLOCK)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(blocks.len(), 2, "{blocks:?}");
    assert!(
        blocks
            .iter()
            .any(|m| m.contains("`current_len`") && m.contains("`.read()`")),
        "{blocks:?}"
    );
    assert!(
        blocks
            .iter()
            .any(|m| m.contains("`publish`") && m.contains("`.write()`")),
        "{blocks:?}"
    );
    assert!(!blocks.iter().any(|m| m.contains("`echo`")), "{blocks:?}");
}

#[test]
fn binary_exits_nonzero_on_positive_and_zero_on_negative() {
    let bin = env!("CARGO_BIN_EXE_xtask");

    let out = Command::new(bin)
        .args(["hotpath", "--root"])
        .arg(fixture("hotpath-positive"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(RULE_HOT_ALLOC), "stdout: {text}");
    assert!(text.contains(RULE_HOT_BLOCK), "stdout: {text}");

    let out = Command::new(bin)
        .args(["hotpath", "--json", "--root"])
        .arg(fixture("hotpath-negative"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"unwaived\": 0"), "json: {json}");
    assert!(json.contains("\"waived\": 2"), "json: {json}");
    assert!(json.contains("\"waiver_reason\""), "json: {json}");
}

#[test]
fn waivers_inventory_sees_hotpath_waivers_as_active() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let out = Command::new(bin)
        .args(["waivers", "--json", "--root"])
        .arg(fixture("hotpath-negative"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"tool\": \"hotpath\""), "json: {json}");
    assert!(json.contains("\"rule\": \"hot-alloc\""), "json: {json}");
    assert!(json.contains("\"rule\": \"hot-block\""), "json: {json}");
    assert!(json.contains("\"status\": \"active\""), "json: {json}");
    assert!(!json.contains("\"status\": \"stale\""), "json: {json}");
}

/// `--changed` filters *findings* to modified files, but the call
/// graph still spans the whole tree: an unchanged root keeps a changed
/// callee hot.
#[test]
fn changed_mode_keeps_the_full_graph() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let dir = std::env::temp_dir().join(format!("tdess_hotpath_changed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src_a = dir.join("crates/a/src");
    let src_b = dir.join("crates/b/src");
    std::fs::create_dir_all(&src_a).unwrap();
    std::fs::create_dir_all(&src_b).unwrap();
    // A holds the stage root (with its own allocation) and is
    // committed untouched; B holds the callee, committed clean.
    std::fs::write(
        src_a.join("lib.rs"),
        "pub fn stage_root() {\n    let _t = StageTimer::start(Stage::Voxelize);\n    let v = vec![0u8; 4];\n    helper(&v);\n}\n",
    )
    .unwrap();
    std::fs::write(
        src_b.join("lib.rs"),
        "pub fn helper(v: &[u8]) -> usize {\n    v.len()\n}\n",
    )
    .unwrap();

    let git = |args: &[&str]| {
        let out = Command::new("git")
            .arg("-C")
            .arg(&dir)
            .args([
                "-c",
                "user.name=fixture",
                "-c",
                "user.email=fixture@example.invalid",
            ])
            .args(args)
            .output()
            .expect("run git");
        assert!(
            out.status.success(),
            "git {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    git(&["init", "-q"]);
    git(&["add", "."]);
    git(&["commit", "-q", "-m", "seed"]);

    // Uncommitted edit: the callee in B starts allocating.
    std::fs::write(
        src_b.join("lib.rs"),
        "pub fn helper(v: &[u8]) -> Vec<u8> {\n    v.to_vec()\n}\n",
    )
    .unwrap();

    let full = Command::new(bin)
        .args(["hotpath", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    let full_json = String::from_utf8_lossy(&full.stdout);
    // Full tree: the root's vec![] and the callee's to_vec().
    assert!(full_json.contains("\"unwaived\": 2"), "json: {full_json}");

    let changed = Command::new(bin)
        .args(["hotpath", "--json", "--changed", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    assert_eq!(changed.status.code(), Some(1));
    let changed_json = String::from_utf8_lossy(&changed.stdout);
    // Only B changed, so only B's finding is reported — but it is
    // reported, which requires the unchanged root in A to be in the
    // graph.
    assert!(
        changed_json.contains("\"unwaived\": 1"),
        "json: {changed_json}"
    );
    assert!(
        changed_json.contains("crates/b/src/lib.rs"),
        "{changed_json}"
    );
    assert!(
        !changed_json.contains("crates/a/src/lib.rs"),
        "{changed_json}"
    );
    assert!(
        changed_json.contains("\"files_scanned\": 1"),
        "{changed_json}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
