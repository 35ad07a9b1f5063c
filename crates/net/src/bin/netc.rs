//! `parapre-netc` — a line-oriented client for `parapre-netd`.
//!
//! Reads request lines from stdin (or `--jobs FILE`), sends each as one
//! frame, and prints every server response line to stdout as it arrives
//! (results stream back in completion order). A line of the form
//! `#put PATH` uploads the Matrix Market file at `PATH` through the
//! `put` ingest path; other `#`-prefixed lines are comments.
//!
//! After the input is exhausted a `{"cmd":"bye"}` frame is sent, the
//! server drains this connection's in-flight jobs, and the session ends.
//! Exits 0 iff no response line carried `"ok":false`.

use parapre_metrics::flatjson::{self, JsonValue};
use parapre_net::NetClient;
use std::io::{BufRead, BufReader, Write};

const USAGE: &str = "usage: parapre-netc (--tcp ADDR | --unix PATH) [--jobs FILE]
  --tcp ADDR   connect to a TCP address
  --unix PATH  connect to a unix-domain socket
  --jobs F     read request lines from F instead of stdin
input lines:  flat JSON jobs / {\"cmd\":...} controls; `#put FILE` uploads a matrix";

fn main() {
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut jobs_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--tcp" => tcp = Some(take("--tcp")),
            "--unix" => unix = Some(take("--unix")),
            "--jobs" => jobs_path = Some(take("--jobs")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    let mut client = match (&tcp, &unix) {
        (Some(addr), None) => NetClient::connect_tcp(addr.as_str())
            .unwrap_or_else(|e| die(&format!("connect {addr}: {e}"))),
        (None, Some(path)) => {
            NetClient::connect_unix(path).unwrap_or_else(|e| die(&format!("connect {path}: {e}")))
        }
        _ => die(&format!("give exactly one of --tcp / --unix\n{USAGE}")),
    };

    let reader: Box<dyn BufRead> = match &jobs_path {
        Some(path) => Box::new(BufReader::new(
            std::fs::File::open(path).unwrap_or_else(|e| die(&format!("{path}: {e}"))),
        )),
        None => Box::new(BufReader::new(std::io::stdin())),
    };

    for line in reader.lines() {
        let line = line.unwrap_or_else(|e| die(&format!("reading input: {e}")));
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(path) = trimmed.strip_prefix("#put ") {
            let path = path.trim();
            let mtx =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            client
                .put_mtx(&mtx)
                .unwrap_or_else(|e| die(&format!("sending put: {e}")));
            continue;
        }
        if trimmed.starts_with('#') {
            continue;
        }
        client
            .send_line(trimmed)
            .unwrap_or_else(|e| die(&format!("sending request: {e}")));
    }
    // End of input: ask the server to drain this connection and close.
    client
        .send_line("{\"cmd\":\"bye\"}")
        .unwrap_or_else(|e| die(&format!("sending bye: {e}")));

    let mut failures = 0usize;
    let stdout = std::io::stdout();
    while let Some(line) = client
        .recv_line()
        .unwrap_or_else(|e| die(&format!("reading response: {e}")))
    {
        if is_failure(&line) {
            failures += 1;
        }
        let mut out = stdout.lock();
        writeln!(out, "{line}").expect("stdout");
        out.flush().expect("stdout");
    }
    if failures > 0 {
        std::process::exit(2);
    }
}

/// Whether a response line is a failed record (`"ok":false`). Control
/// answers without an `ok` key never count.
fn is_failure(line: &str) -> bool {
    flatjson::parse_flat_object(line.trim())
        .ok()
        .and_then(|f| f.get("ok").and_then(JsonValue::as_bool))
        == Some(false)
}

fn die(msg: &str) -> ! {
    eprintln!("parapre-netc: {msg}");
    std::process::exit(1);
}
