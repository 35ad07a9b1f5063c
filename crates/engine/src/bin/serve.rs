//! `parapre-serve` — concurrent solve service over a JSONL job stream.
//!
//! Reads one job per line (from `--jobs FILE` or stdin), submits to a
//! bounded [`SolveService`], and prints one JSON result line per job, in
//! submission order, followed by a `#`-prefixed stats line. Exits 0 iff
//! every job ran to completion *and* converged, 2 otherwise.
//!
//! ```text
//! printf '%s\n' \
//!   '{"id":"a","case":"tc1","precond":"schur1","ranks":4}' \
//!   '{"id":"b","case":"tc1","precond":"schur1","ranks":4,"repeat":2}' \
//!   | parapre-serve --pool 2
//! ```
//!
//! Lines with a `"cmd"` key are control requests, answered in stream
//! order after every in-flight job has drained:
//!
//! * `{"cmd":"stats"}` — one JSON line of live service statistics
//!   (job/cache counters, latency quantiles, load gauges);
//! * `{"cmd":"watch"}` — the convergence events that arrived since the
//!   last `watch`, one JSON line each, terminated by a
//!   `{"watch_end":<last_seq>}` line;
//! * `{"cmd":"metrics"}` — the full Prometheus-style text exposition
//!   ([`parapre_metrics::metrics_text`]), terminated by a `# EOF` line.

use parapre_engine::{
    parse_job_fields, parse_line_fields, JobResult, JobTicket, ServiceConfig, SolveService,
    SubmitError,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

const USAGE: &str = "usage: parapre-serve [--pool N] [--queue N] [--cache N] [--jobs FILE]
  --pool N    worker threads / concurrent jobs (default 4)
  --queue N   bounded queue capacity (default 16)
  --cache N   session-cache capacity (default 4)
  --jobs F    read JSONL jobs from F instead of stdin";

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut jobs_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--pool" => cfg.pool_size = parse_num(&take("--pool"), "--pool"),
            "--queue" => cfg.queue_capacity = parse_num(&take("--queue"), "--queue"),
            "--cache" => cfg.cache_capacity = parse_num(&take("--cache"), "--cache"),
            "--jobs" => jobs_path = Some(take("--jobs")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    let reader: Box<dyn BufRead> = match &jobs_path {
        Some(path) => Box::new(BufReader::new(
            std::fs::File::open(path).unwrap_or_else(|e| die(&format!("{path}: {e}"))),
        )),
        None => Box::new(BufReader::new(std::io::stdin())),
    };

    let service = SolveService::start(cfg).unwrap_or_else(|e| die(&format!("{e}\n{USAGE}")));
    let stdout = std::io::stdout();
    let t0 = Instant::now();
    let mut pending: VecDeque<JobTicket> = VecDeque::new();
    let mut jobs = 0usize;
    let mut ok = 0usize;
    let mut all_converged = true;
    let mut watch_seq = 0u64;

    let finish = |result: JobResult, ok: &mut usize, all_converged: &mut bool| {
        if result.ok {
            *ok += 1;
        }
        *all_converged &= result.ok && result.converged;
        // Flush every line: piped consumers must see whole records as
        // they finish, not whenever the block buffer happens to fill.
        let mut out = stdout.lock();
        writeln!(out, "{}", result.to_json()).expect("stdout");
        out.flush().expect("stdout");
    };

    for (seq, line) in reader.lines().enumerate() {
        let line = line.unwrap_or_else(|e| die(&format!("reading jobs: {e}")));
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // A control line carries `"cmd"`; anything else — unparsable lines
        // included — is a job.
        let fields = parse_line_fields(trimmed);
        if let Some(cmd) = fields.as_ref().ok().and_then(|f| f.get("cmd")?.as_str()) {
            // Drain in-flight jobs first so the answer reflects every job
            // submitted before the command — stream order is the contract.
            for ticket in pending.drain(..) {
                finish(ticket.wait(), &mut ok, &mut all_converged);
            }
            serve_command(cmd, &service, &mut watch_seq);
            continue;
        }
        jobs += 1;
        let job = match fields.and_then(|f| parse_job_fields(&f, || format!("job-{seq}"))) {
            Ok(job) => job,
            Err(e) => {
                // Malformed lines become structured `rejected` records, not
                // aborts — the rest of the stream still runs.
                let mut r = JobResult::failed(format!("job-{seq}"), e.to_string());
                r.error_kind = Some("rejected".into());
                finish(r, &mut ok, &mut all_converged);
                continue;
            }
        };
        // Backpressure: when the bounded queue rejects, drain the oldest
        // in-flight result and retry — submission order is preserved. A
        // rejection that cannot be recovered becomes a *structured* result
        // record (`error_kind: "rejected"`) so clients can tell load
        // shedding from solver failure.
        loop {
            match service.submit_solve(job.clone()) {
                Ok(ticket) => {
                    pending.push_back(ticket);
                    break;
                }
                Err(e @ SubmitError::QueueFull { .. }) => match pending.pop_front() {
                    Some(ticket) => finish(ticket.wait(), &mut ok, &mut all_converged),
                    None => {
                        finish(rejected(&job.id, &e), &mut ok, &mut all_converged);
                        break;
                    }
                },
                Err(e @ SubmitError::ShuttingDown) => {
                    finish(rejected(&job.id, &e), &mut ok, &mut all_converged);
                    break;
                }
            }
        }
    }
    for ticket in pending {
        finish(ticket.wait(), &mut ok, &mut all_converged);
    }

    let wall = t0.elapsed().as_secs_f64();
    let stats = service.cache_stats();
    eprintln!(
        "# jobs={jobs} ok={ok} wall={wall:.3}s rate={:.2} jobs/s cache: {} hits {} misses {} evictions",
        if wall > 0.0 { jobs as f64 / wall } else { 0.0 },
        stats.hits,
        stats.misses,
        stats.evictions,
    );
    service.shutdown();
    if ok == jobs && all_converged {
        std::process::exit(0);
    }
    std::process::exit(2);
}

/// Answers one control request on stdout, one line per reply record.
fn serve_command(cmd: &str, service: &SolveService, watch_seq: &mut u64) {
    let mut out = std::io::stdout().lock();
    for record in service.read_command(cmd, watch_seq) {
        writeln!(out, "{record}").expect("stdout");
    }
    out.flush().expect("stdout");
}

/// A structured result record for a job the service refused to run.
fn rejected(id: &str, e: &SubmitError) -> JobResult {
    let mut r = JobResult::failed(id, e.to_string());
    r.error_kind = Some("rejected".into());
    r
}

fn parse_num(s: &str, name: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => die(&format!("{name} needs a positive integer, got {s:?}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("parapre-serve: {msg}");
    std::process::exit(1);
}
