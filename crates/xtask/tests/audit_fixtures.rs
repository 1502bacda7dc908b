//! Integration tests for `cargo xtask audit` and `cargo xtask
//! waivers`: run over the fixture trees as library calls and through
//! the built binary, covering every rule family, waiver parsing,
//! `--json`, and `--changed`.

use std::path::PathBuf;
use std::process::Command;

use xtask::audit::{RULE_LOCK, RULE_ORDERING, RULE_THREAD, RULE_WIRE};
use xtask::{audit_root, waiver_inventory};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn positive_fixture_trips_every_rule_family() {
    let report = audit_root(&fixture("audit-positive"), None).unwrap();
    let rules: Vec<&str> = report.unwaived().map(|f| f.rule).collect();
    for rule in [RULE_LOCK, RULE_ORDERING, RULE_THREAD, RULE_WIRE] {
        assert!(rules.contains(&rule), "rule {rule} did not fire: {rules:?}");
    }
    assert_eq!(report.waived_count(), 0);
    // Both allocation forms in the net fixture fire: vec![_; n] and
    // .reserve(n).
    assert_eq!(
        report.unwaived().filter(|f| f.rule == RULE_WIRE).count(),
        2,
        "{:?}",
        report.findings
    );
    // The SeqCst store and the Relaxed load each produce a finding.
    assert_eq!(
        report
            .unwaived()
            .filter(|f| f.rule == RULE_ORDERING)
            .count(),
        2
    );
}

#[test]
fn negative_fixture_is_clean_with_waivers_counted() {
    let report = audit_root(&fixture("audit-negative"), None).unwrap();
    assert_eq!(
        report.unwaived_count(),
        0,
        "unexpected findings: {:?}",
        report.unwaived().collect::<Vec<_>>()
    );
    // One waived detach spawn + one ordering() shorthand waiver.
    assert_eq!(report.waived_count(), 2);
    for f in &report.findings {
        let reason = f.waiver.as_deref().unwrap_or("");
        assert!(!reason.is_empty(), "waiver without a reason: {f:?}");
    }
}

#[test]
fn binary_exits_nonzero_on_positive_and_zero_on_negative() {
    let bin = env!("CARGO_BIN_EXE_xtask");

    let out = Command::new(bin)
        .args(["audit", "--root"])
        .arg(fixture("audit-positive"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(RULE_WIRE), "stdout: {text}");
    assert!(text.contains(RULE_LOCK), "stdout: {text}");

    let out = Command::new(bin)
        .args(["audit", "--json", "--root"])
        .arg(fixture("audit-negative"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"unwaived\": 0"), "json: {json}");
    assert!(json.contains("\"waived\": 2"), "json: {json}");
    assert!(json.contains("\"waiver_reason\""), "json: {json}");
}

#[test]
fn malformed_waivers_fail_the_inventory() {
    let inv = waiver_inventory(&fixture("malformed"), None).unwrap();
    assert_eq!(inv.malformed.len(), 1, "{:?}", inv.malformed);
    assert!(inv.malformed[0].1.problem.contains("reason"));

    let bin = env!("CARGO_BIN_EXE_xtask");
    let out = Command::new(bin)
        .args(["waivers", "--json", "--root"])
        .arg(fixture("malformed"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"malformed\": 1"), "json: {json}");
    assert!(json.contains("\"unknown_rule\": 1"), "json: {json}");
    assert!(
        json.contains("waiver without a written reason"),
        "json: {json}"
    );
}

/// A well-formed waiver with no finding of its rule on its line is
/// stale, and a stale waiver fails the inventory as a malformed one
/// does.
#[test]
fn stale_waivers_fail_the_inventory() {
    let inv = waiver_inventory(&fixture("stale"), None).unwrap();
    assert_eq!(inv.entries.len(), 1, "{:?}", inv.entries);
    assert!(inv.malformed.is_empty(), "{:?}", inv.malformed);

    let bin = env!("CARGO_BIN_EXE_xtask");
    let out = Command::new(bin)
        .args(["waivers", "--json", "--root"])
        .arg(fixture("stale"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"stale\": 1"), "json: {json}");
    assert!(json.contains("\"status\": \"stale\""), "json: {json}");
    assert!(json.contains("\"malformed\": 0"), "json: {json}");
}

#[test]
fn waivers_inventory_is_clean_on_negative_fixture() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let out = Command::new(bin)
        .args(["waivers", "--json", "--root"])
        .arg(fixture("audit-negative"))
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"malformed\": 0"), "json: {json}");
    assert!(
        json.contains("\"rule\": \"thread-hygiene\""),
        "json: {json}"
    );
    // The ordering() shorthand surfaces as an atomic-ordering waiver.
    assert!(
        json.contains("\"rule\": \"atomic-ordering\""),
        "json: {json}"
    );
    // Both waivers cover live findings.
    assert!(json.contains("\"status\": \"active\""), "json: {json}");
    assert!(!json.contains("\"status\": \"stale\""), "json: {json}");
}

/// `--changed` scans only files differing from the merge-base (or the
/// working tree vs HEAD when no `main` ref exists, as in this temp
/// repo).
#[test]
fn changed_mode_scans_only_modified_files() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let dir = std::env::temp_dir().join(format!("tdess_xtask_changed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src_a = dir.join("crates/a/src");
    let src_b = dir.join("crates/b/src");
    std::fs::create_dir_all(&src_a).unwrap();
    std::fs::create_dir_all(&src_b).unwrap();
    // File A carries a committed violation; file B starts clean.
    std::fs::write(
        src_a.join("lib.rs"),
        "pub fn f(n: &AtomicU64) -> u64 { n.load(Ordering::Relaxed) }\n",
    )
    .unwrap();
    std::fs::write(src_b.join("lib.rs"), "pub fn ok() {}\n").unwrap();

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

    // Uncommitted edit: B gains an audit violation (but stays clean
    // for lint — crate root declares forbid(unsafe_code)); A is
    // untouched.
    std::fs::write(
        src_b.join("lib.rs"),
        "#![forbid(unsafe_code)]\npub fn bad(f: &AtomicBool) { f.store(true, Ordering::SeqCst); }\n",
    )
    .unwrap();

    let full = Command::new(bin)
        .args(["audit", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    let full_json = String::from_utf8_lossy(&full.stdout);
    assert!(full_json.contains("\"unwaived\": 2"), "json: {full_json}");

    let changed = Command::new(bin)
        .args(["audit", "--json", "--changed", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    let changed_json = String::from_utf8_lossy(&changed.stdout);
    assert_eq!(changed.status.code(), Some(1));
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

    // lint --changed takes the same path through the shared scanner.
    let lint_changed = Command::new(bin)
        .args(["lint", "--json", "--changed", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    assert_eq!(lint_changed.status.code(), Some(0));
    let lint_json = String::from_utf8_lossy(&lint_changed.stdout);
    assert!(lint_json.contains("\"files_scanned\": 1"), "{lint_json}");

    let _ = std::fs::remove_dir_all(&dir);
}
