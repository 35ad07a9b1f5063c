//! The netd child process: spawn, find its port, read its memory, stop it.

use crate::wire::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The load shape of every workload (the box has two cores): two workers,
/// so both connections of `service_mix` can be served at once; a session
/// cache of eight, above the four right-hand sides a warm workload cycles.
pub const NETD_ARGS: [&str; 10] = [
    "--tcp",
    "127.0.0.1:0",
    "--pool",
    "2",
    "--queue",
    "16",
    "--cache",
    "8",
    "--max-inflight",
    "8",
];

const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// A running netd. Dropping it kills and reaps the child.
pub struct Netd {
    child: Child,
    pub addr: SocketAddr,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Netd {
    /// Starts netd on a free loopback port and waits until it listens.
    /// `PARAPRE_THREADS` is removed so the product picks its own default.
    pub fn spawn(bin: &Path) -> Result<Netd, String> {
        let mut child = Command::new(bin)
            .args(NETD_ARGS)
            .env_remove("PARAPRE_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // netd announces "listening on tcp <addr>" on stderr once bound, or
        // reports why it could not and exits, which ends the read.
        let mut addr = None;
        let mut seen = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            seen.push_str(&line);
            if let Some(rest) = line.trim().strip_prefix("parapre-netd: listening on tcp ") {
                addr = rest.parse::<SocketAddr>().ok();
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("netd did not announce a port; stderr: {seen:?}"));
        };
        // Keep reading stderr so the child can never block on a full pipe.
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Netd {
            child,
            addr,
            stderr_drain: Some(stderr_drain),
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Peak resident set of the child so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Asks netd to drain and exit, then waits for it. Kills it if it does
    /// not exit in time; returns whether the exit was clean.
    pub fn shutdown(mut self) -> bool {
        if let Ok(mut c) = self.connect() {
            let _ = c.request_line("{\"cmd\":\"shutdown\"}");
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => break false,
            }
        };
        self.reap();
        clean
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        self.reap();
    }
}
