//! `parapre-netd` — the persistent network solve service.
//!
//! ```text
//! parapre-netd --unix /tmp/parapre.sock --pool 4
//! parapre-netd --tcp 127.0.0.1:7070
//! ```
//!
//! Serves concurrent clients until a `{"cmd":"shutdown"}` frame arrives,
//! then drains in-flight jobs and exits 0.

use parapre_net::{NetConfig, NetError, NetServer};
use std::path::PathBuf;

const USAGE: &str = "usage: parapre-netd [--tcp ADDR] [--unix PATH] [--pool N] [--queue N]
                    [--cache N] [--max-inflight N]
  --tcp ADDR        listen on a TCP address (host:port; port 0 picks one)
  --unix PATH       listen on a unix-domain socket
  --pool N          worker threads / concurrent jobs (default 4)
  --queue N         bounded queue capacity (default 16)
  --cache N         session-cache capacity (default 4)
  --max-inflight N  per-client in-flight job cap (default 8)
at least one of --tcp / --unix is required";

fn main() {
    let mut cfg = NetConfig::default();
    let mut tcp: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--tcp" => tcp = Some(take("--tcp")),
            "--unix" => unix = Some(PathBuf::from(take("--unix"))),
            "--pool" => cfg.service.pool_size = parse_num(&take("--pool"), "--pool"),
            "--queue" => cfg.service.queue_capacity = parse_num(&take("--queue"), "--queue"),
            "--cache" => cfg.service.cache_capacity = parse_num(&take("--cache"), "--cache"),
            "--max-inflight" => {
                cfg.max_inflight = parse_num(&take("--max-inflight"), "--max-inflight")
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    let server = match NetServer::start(cfg, tcp.as_deref(), unix.as_deref()) {
        Ok(server) => server,
        // Config errors are usage errors: the caller typed a size the
        // service refuses to run with.
        Err(e @ (NetError::Config(_) | NetError::NoListener)) => die(&format!("{e}\n{USAGE}")),
        Err(e) => die(&e.to_string()),
    };
    if let Some(addr) = server.tcp_addr() {
        eprintln!("parapre-netd: listening on tcp {addr}");
    }
    if let Some(path) = &unix {
        eprintln!("parapre-netd: listening on unix {}", path.display());
    }

    server.wait();
    let stats = server.service().cache_stats();
    eprintln!(
        "parapre-netd: drained; cache {} hits {} misses {} evictions",
        stats.hits, stats.misses, stats.evictions
    );
}

fn parse_num(s: &str, name: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) => n,
        _ => die(&format!("{name} needs a non-negative integer, got {s:?}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("parapre-netd: {msg}");
    std::process::exit(1);
}
