//! Aggregate-throughput comparison: the one-shot experiment pipeline versus
//! the cached, concurrent solve service on an identical job stream.
//!
//! ```text
//! cargo run --release -p parapre-bench --bin throughput -- \
//!     [--extent 100] [--ranks 2] [--pool 4] [--repeats 6] \
//!     [--preconds block2,schur2]
//! ```
//!
//! The stream holds `preconds × repeats` jobs on the same TC1 system. The
//! baseline runs them sequentially, rebuilding partition, distribution, and
//! factorization for each — exactly what the experiment runner does. The
//! service runs the same jobs over a worker pool with a session cache, so
//! each preconditioner factors once and every other job hits. The
//! acceptance bar is an aggregate speedup above 2×; the binary exits 2
//! below it.
//!
//! The default mix is the *setup-dominated* one (Block 2 with a
//! high-quality ILUT, Schur 2's two-level ARMS): those are the
//! preconditioners whose factorization outweighs a solve, i.e. the
//! workload sessions exist for. Pass `--preconds block1,schur1` to watch
//! the speedup evaporate when setup is cheap relative to the applies —
//! the same setup-cost-versus-iteration-cost tradeoff the paper's timing
//! tables turn on.

use parapre_core::{CaseId, CaseSize, PrecondKind};
use parapre_engine::{
    resolve_problem, ProblemSpec, RhsSpec, ServiceConfig, SessionConfig, SolveJob, SolveRequest,
    SolveService, SolverSession,
};
use parapre_krylov::IlutConfig;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut extent = 100usize;
    let mut ranks = 2usize;
    let mut pool = 4usize;
    let mut repeats = 6usize;
    let mut precond_list = "block2,schur2".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--preconds" => {
                i += 1;
                precond_list = args[i].clone();
            }
            "--extent" => {
                i += 1;
                extent = args[i].parse().expect("extent");
            }
            "--ranks" => {
                i += 1;
                ranks = args[i].parse().expect("rank count");
            }
            "--pool" => {
                i += 1;
                pool = args[i].parse().expect("pool size");
            }
            "--repeats" => {
                i += 1;
                repeats = args[i].parse().expect("repeats");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    let preconds: Vec<PrecondKind> = precond_list
        .split(',')
        .map(|s| PrecondKind::parse(s).unwrap_or_else(|| panic!("unknown precond {s}")))
        .collect();
    let jobs: Vec<SolveJob> = preconds
        .iter()
        .flat_map(|&p| {
            (0..repeats).map(move |r| {
                let mut session = SessionConfig::paper(p, ranks);
                // Block 2 gets a high-quality factorization: expensive to
                // build, cheap to apply — the workload sessions exist for.
                // One factorization serves every repeat of its jobs. (The
                // Schur variants keep paper defaults: their applies run
                // inner solves, so extra fill would slow every iteration.)
                session.params.ilut = IlutConfig {
                    drop_tol: 1e-6,
                    fill: 100,
                };
                SolveJob {
                    id: format!("{}-{r}", p.key()),
                    problem: ProblemSpec::Case {
                        id: CaseId::Tc1,
                        size: CaseSize::Tiny,
                        extent: Some(extent),
                    },
                    rhs: RhsSpec::Natural,
                    repeat: 1,
                    batch: 1,
                    auto_precond: false,
                    session,
                    recovery: parapre_engine::RecoveryPolicy::none(),
                    fault: None,
                    deadline_ms: None,
                }
            })
        })
        .collect();
    eprintln!(
        "[throughput] {} jobs ({} preconds x {repeats}), TC1 extent {extent}, P={ranks}, pool={pool}",
        jobs.len(),
        preconds.len()
    );

    // Baseline: sequential one-shot pipeline — full setup per job.
    let t0 = Instant::now();
    let (mut resolve_s, mut setup_s, mut solve_s) = (0.0, 0.0, 0.0);
    for job in &jobs {
        let t = Instant::now();
        let resolved = resolve_problem(job).expect("resolve");
        resolve_s += t.elapsed().as_secs_f64();
        let session =
            SolverSession::build(&resolved.a, resolved.owner(), &job.session).expect("setup");
        setup_s += session.setup_seconds();
        let rep = session
            .run(SolveRequest {
                x0: resolved.x0.as_deref(),
                ..SolveRequest::new(&resolved.b)
            })
            .expect("solve")
            .single();
        solve_s += rep.solve_seconds;
        assert!(rep.converged, "baseline job {} diverged", job.id);
    }
    let baseline = t0.elapsed().as_secs_f64();
    eprintln!(
        "[throughput] sequential one-shot: {baseline:.3}s \
         (resolve {resolve_s:.3}s, setup {setup_s:.3}s, solve {solve_s:.3}s)"
    );

    // Service: same jobs through the pool + session cache.
    let service = SolveService::start(ServiceConfig {
        pool_size: pool,
        queue_capacity: jobs.len(),
        cache_capacity: preconds.len(),
    })
    .expect("valid config");
    let t0 = Instant::now();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|job| {
            service
                .submit_solve(job.clone())
                .expect("queue sized to fit")
        })
        .collect();
    for t in tickets {
        let r = t.wait();
        assert!(
            r.ok && r.converged,
            "service job {} failed: {:?}",
            r.id,
            r.error
        );
    }
    let serviced = t0.elapsed().as_secs_f64();
    let stats = service.cache_stats();
    let peak = service.peak_concurrency();
    service.shutdown();

    let speedup = baseline / serviced;
    eprintln!(
        "[throughput] service: {serviced:.3}s (peak concurrency {peak}, cache {} hits / {} misses)",
        stats.hits, stats.misses
    );
    println!(
        "jobs={} baseline={baseline:.3}s service={serviced:.3}s speedup={speedup:.2}x \
         cache_hits={} cache_misses={}",
        jobs.len(),
        stats.hits,
        stats.misses
    );
    if speedup <= 2.0 {
        eprintln!("[throughput] FAIL: aggregate speedup {speedup:.2}x is not above 2x");
        std::process::exit(2);
    }
    eprintln!("[throughput] PASS: aggregate speedup {speedup:.2}x > 2x");
}
