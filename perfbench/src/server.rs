//! The system under test as a child process: `arp serve` on a free
//! loopback port (with a fresh traffic state directory where the workload
//! is durable), its set-up time measured from spawn until `/api/health`
//! first answers `200`.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;
use crate::workload::{Workload, SERVER_SEED};

/// Longest a server may take to come up before the run fails.
const SETUP_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `arp serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn until the first `200` from `/api/health`.
    pub setup_s: f64,
    state_dir: PathBuf,
}

fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Spawns `arp serve` for `w` with default serving flags (plus a
    /// fresh `--state-dir` under `scratch` if `w.durable`), and waits
    /// until it is healthy.
    pub fn start(arp: &Path, w: &Workload, scratch: &Path, tag: &str) -> Result<Server, String> {
        let port = free_port().map_err(|e| format!("no free port: {e}"))?;
        let state_dir = scratch.join(format!("state-{tag}"));
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir).map_err(|e| format!("state dir: {e}"))?;
        let mut command = Command::new(arp);
        command
            .args(["serve", &w.city_arg(), "--scale", w.scale_arg()])
            .args(["--port", &port.to_string()])
            .args(["--seed", &SERVER_SEED.to_string()]);
        if w.durable {
            command.arg("--state-dir").arg(&state_dir);
        }
        let started = Instant::now();
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", arp.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            setup_s: 0.0,
            state_dir,
        };
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("arp serve exited during set-up: {status}"));
            }
            let probe = http::request(
                server.addr,
                "GET",
                "/api/health",
                "",
                Duration::from_secs(5),
            );
            if probe.is_ok_and(|r| r.status == 200) {
                server.setup_s = started.elapsed().as_secs_f64();
                return Ok(server);
            }
            if started.elapsed() > SETUP_TIMEOUT {
                return Err(format!("arp serve not healthy after {SETUP_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}
