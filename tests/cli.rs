//! Integration tests for the `tdess` CLI binary, driven through the
//! real executable (Cargo exposes its path via `CARGO_BIN_EXE_tdess`).

use std::path::PathBuf;
use std::process::Command;

fn tdess() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdess"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdess_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes a couple of small OFF meshes for indexing.
fn write_meshes(dir: &std::path::Path) -> Vec<PathBuf> {
    use threedess::geom::io::save_mesh;
    use threedess::geom::{primitives, Vec3};
    let specs: Vec<(&str, threedess::geom::TriMesh)> = vec![
        ("boxy", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5))),
        ("bally", primitives::uv_sphere(1.0, 12, 6)),
        ("roddy", primitives::cylinder(0.3, 4.0, 12)),
    ];
    specs
        .into_iter()
        .map(|(name, mesh)| {
            let p = dir.join(format!("{name}.off"));
            save_mesh(&mesh, &p).expect("write mesh");
            p
        })
        .collect()
}

#[test]
fn help_prints_usage() {
    let out = tdess().arg("help").output().expect("run tdess");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage:"), "{text}");
}

/// `help` lists every subcommand's options, not only the usage line.
#[test]
fn help_lists_subcommand_options() {
    let out = tdess().arg("help").output().expect("run tdess");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for option in ["--count", "--cache-bytes", "--resolution", "--trace-sample"] {
        assert!(
            text.contains(option),
            "`tdess help` lacks {option}:\n{text}"
        );
    }
}

#[test]
fn unknown_command_fails() {
    let out = tdess().arg("frobnicate").output().expect("run tdess");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn index_query_info_roundtrip() {
    let dir = temp_dir("roundtrip");
    let meshes = write_meshes(&dir);
    let db = dir.join("db.json");

    // Index three shapes at a low resolution for speed.
    let mut cmd = tdess();
    cmd.arg("index").arg(&db);
    for m in &meshes {
        cmd.arg(m);
    }
    cmd.args(["--resolution", "16"]);
    let out = cmd.output().expect("run tdess index");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(db.exists());

    // Query with a similar box: the stored box must rank first.
    let out = tdess()
        .arg("query")
        .arg(&db)
        .arg(&meshes[0])
        .args(["--kind", "pm", "--top", "2"])
        .output()
        .expect("run tdess query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let first_line = text.lines().nth(1).unwrap_or("");
    assert!(first_line.contains("boxy"), "{text}");

    // Info reports the shape count.
    let out = tdess()
        .arg("info")
        .arg(&db)
        .output()
        .expect("run tdess info");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("shapes: 3"));

    // Multistep also runs.
    let out = tdess()
        .arg("multistep")
        .arg(&db)
        .arg(&meshes[0])
        .args(["--steps", "pm,ev", "--candidates", "3", "--present", "2"])
        .output()
        .expect("run tdess multistep");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_missing_database_fails_cleanly() {
    let dir = temp_dir("missing");
    let meshes = write_meshes(&dir);
    let out = tdess()
        .arg("query")
        .arg(dir.join("nope.json"))
        .arg(&meshes[0])
        .output()
        .expect("run tdess query");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the serve child on drop so a failing test never leaks it.
/// Holds the child's stdout pipe open for the server's lifetime (a
/// closed pipe would fail the server's later writes).
struct ServeGuard {
    child: std::process::Child,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Indexes the test meshes, then starts `tdess serve` on an ephemeral
/// port and returns (guard, addr, db path, mesh paths, temp dir).
fn start_server(tag: &str) -> (ServeGuard, String, PathBuf, Vec<PathBuf>, PathBuf) {
    use std::io::BufRead;
    let dir = temp_dir(tag);
    let meshes = write_meshes(&dir);
    let db = dir.join("db.json");
    let mut cmd = tdess();
    cmd.arg("index").arg(&db);
    for m in &meshes {
        cmd.arg(m);
    }
    cmd.args(["--resolution", "16"]);
    let out = cmd.output().expect("run tdess index");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = tdess()
        .arg("serve")
        .arg(&db)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tdess serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read serve stdout");
    let addr = first
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {first}"))
        .to_string();
    let guard = ServeGuard {
        child,
        _stdout: reader,
    };
    (guard, addr, db, meshes, dir)
}

#[test]
fn json_output_parses_into_the_wire_payload_types() {
    use threedess::net::{HitsReport, InfoReport};
    let dir = temp_dir("json");
    let meshes = write_meshes(&dir);
    let db = dir.join("db.json");
    let mut cmd = tdess();
    cmd.arg("index").arg(&db);
    for m in &meshes {
        cmd.arg(m);
    }
    cmd.args(["--resolution", "16"]);
    assert!(cmd.output().expect("index").status.success());

    let out = tdess()
        .arg("query")
        .arg(&db)
        .arg(&meshes[0])
        .args(["--kind", "pm", "--top", "2", "--json"])
        .output()
        .expect("query --json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: HitsReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("parse hits JSON");
    assert_eq!(report.hits.len(), 2);
    assert_eq!(report.hits[0].name, "boxy");
    assert!(report.hits[0].similarity >= report.hits[1].similarity);

    let out = tdess()
        .arg("multistep")
        .arg(&db)
        .arg(&meshes[0])
        .args([
            "--steps",
            "pm,ev",
            "--candidates",
            "3",
            "--present",
            "2",
            "--json",
        ])
        .output()
        .expect("multistep --json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: HitsReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("parse multistep JSON");
    assert_eq!(report.hits.len(), 2);

    let out = tdess()
        .arg("info")
        .arg(&db)
        .arg("--json")
        .output()
        .expect("info --json");
    assert!(out.status.success());
    let report: InfoReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("parse info JSON");
    assert_eq!(report.shapes, 3);
    assert!(!report.spaces.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_remote_roundtrip_over_loopback() {
    use threedess::net::{HitsReport, StatsReport};
    let (guard, addr, _db, meshes, dir) = start_server("serve");

    let out = tdess()
        .args(["remote", &addr, "ping"])
        .output()
        .expect("remote ping");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("pong"));

    let out = tdess()
        .args(["remote", &addr, "query"])
        .arg(&meshes[0])
        .args(["--kind", "pm", "--top", "2", "--json"])
        .output()
        .expect("remote query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: HitsReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("parse remote hits");
    assert_eq!(report.hits.len(), 2);
    assert_eq!(report.hits[0].name, "boxy");

    let out = tdess()
        .args(["remote", &addr, "stats", "--json"])
        .output()
        .expect("remote stats");
    assert!(out.status.success());
    let stats: StatsReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("parse remote stats");
    assert_eq!(stats.shapes, 3);
    assert!(stats.transport.requests_served >= 2);
    assert_eq!(stats.transport.decode_errors, 0);
    // One latency row per kind served before this Stats request.
    let rows: Vec<(&str, u64)> = stats
        .requests
        .iter()
        .map(|r| (r.request.as_str(), r.latency.count))
        .collect();
    assert_eq!(rows, [("SearchMesh", 1), ("Ping", 1)]);

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}
