//! The `tdess` processes a run starts: snapshot builds and one served
//! database. Every child is waited for, a server is killed and reaped
//! when its handle drops (on success, on error returns and on panics),
//! and snapshot directories are removed the same way.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use tdess_net::NetClient;

/// Voxel resolution of the synthetic `features` database.
pub const SYNTH_RESOLUTION: usize = 24;
/// Shapes in the synthetic database.
pub const SYNTH_COUNT: usize = 10_000;
/// `tdess synth`'s default seed, which the served database uses.
pub const SYNTH_SEED: u64 = 2004;
/// Voxel resolution of the `example` corpus database.
pub const CORPUS_RESOLUTION: usize = 48;

/// Which snapshot a workload serves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Snapshot {
    /// `tdess synth --count 10000 --resolution 24`.
    Synthetic,
    /// `tdess corpus` + `tdess index --resolution 48 --format binary`.
    Corpus,
}

/// A directory removed with everything in it when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `base/<pid>-<tag>`, replacing any leftover of that name.
    pub fn new(base: &Path, tag: &str) -> Result<TempDir, String> {
        let dir = base.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `tdess serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Starts `tdess serve <db>` with its defaults on an ephemeral
    /// loopback port and reads the bound address from its banner.
    fn spawn(tdess: &Path, db: &Path, log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(tdess)
            .env_remove("TDESS_LOG")
            .arg("serve")
            .arg(db)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tdess.display()))?;
        // From here on the handle owns the child, so every error path
        // below kills and reaps it.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stdout = server
            .child
            .stdout
            .take()
            .ok_or("server stdout not captured")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A served snapshot: the server, the snapshot file it loaded, and the
/// directory holding both (removed after the server is reaped).
pub struct Served {
    pub server: Server,
    pub db: PathBuf,
    dir: TempDir,
}

impl Served {
    /// Replaces the server with a fresh `tdess serve` of the same
    /// snapshot (empty cache, no earlier requests).
    pub fn restart(&mut self, tdess: &Path) -> Result<(), String> {
        let fresh = Server::spawn(tdess, &self.db, &self.dir.path().join("serve2.log"))?;
        self.server = fresh;
        Ok(())
    }

    /// Pins every thread of the server and of this process to CPU 0,
    /// so the closed-loop ping-pong never waits for a second vCPU to be
    /// scheduled; on a shared host that wait is the largest source of
    /// run-to-run noise. Set-up runs before this, unpinned, so the
    /// snapshot builds and the server's start may use every CPU. Says
    /// on standard error when `taskset` is unavailable and the run
    /// stays unpinned.
    pub fn pin(&self) {
        if !(pin_to_cpu0(self.server.child.id()) && pin_to_cpu0(std::process::id())) {
            eprintln!("perfbench: warning: `taskset` could not pin the run to CPU 0");
        }
    }
}

/// `taskset -a -c -p 0 <pid>`: every thread of `pid` onto CPU 0.
fn pin_to_cpu0(pid: u32) -> bool {
    Command::new("taskset")
        .args(["-a", "-c", "-p", "0", &pid.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Builds the snapshot with the shipped binary and serves it. Returns
/// the served snapshot and the seconds from the first build command to
/// the first answered `Ping`.
pub fn set_up(tdess: &Path, snapshot: Snapshot, dir: TempDir) -> Result<(Served, f64), String> {
    let t0 = Instant::now();
    let db = dir.path().join("db.tdss");
    match snapshot {
        Snapshot::Synthetic => run_tool(
            Command::new(tdess)
                .arg("synth")
                .arg(&db)
                .args(["--count", &SYNTH_COUNT.to_string()])
                .args(["--resolution", &SYNTH_RESOLUTION.to_string()]),
        )?,
        Snapshot::Corpus => {
            run_tool(Command::new(tdess).arg("corpus").arg(dir.path()))?;
            let mesh_dir = dir.path().join("meshes");
            let mut meshes: Vec<PathBuf> = std::fs::read_dir(&mesh_dir)
                .map_err(|e| format!("{}: {e}", mesh_dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            meshes.sort();
            run_tool(
                Command::new(tdess)
                    .arg("index")
                    .arg(&db)
                    .args(&meshes)
                    .args(["--resolution", &CORPUS_RESOLUTION.to_string()])
                    .args(["--format", "binary"]),
            )?;
        }
    }
    let server = Server::spawn(tdess, &db, &dir.path().join("serve.log"))?;
    NetClient::connect_default(server.addr())
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("first ping: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((Served { server, db, dir }, secs))
}

/// Runs a build command to completion and fails on a non-zero exit.
fn run_tool(cmd: &mut Command) -> Result<(), String> {
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{cmd:?}: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{cmd:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}
