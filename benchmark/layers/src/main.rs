//! `parapre-bench-layers`: the traced run of one workload.
//!
//! `--workload W --seed N --seconds S --trace 1` (started by the e2e binary
//! or `benchmark/run.sh`). Prints every per-layer metric as
//! `name value unit`, writes the spans to `benchmark/out/trace_W.jsonl`, and
//! ends with the result object. See `benchmark/README.md` for what each
//! metric is and which end-to-end metric it should move.

mod micro;
mod system;
mod waterfall;

use parapre_bench_e2e::host;
use parapre_bench_e2e::netd::Netd;
use parapre_bench_e2e::report::{self, Metric};
use parapre_bench_e2e::spans::{self, Recorder, Span};
use parapre_bench_e2e::spec::Spec;
use parapre_bench_e2e::stats::{highest_supported, median, percentile};
use parapre_bench_e2e::workloads::{self, Class, Env, Phase, RunConfig, Workload, MAX_TRUE_RELRES};
use parapre_engine::session::partition_matrix;
use parapre_engine::{matrix_graph, SolverSession};
use parapre_partition::Partition;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use system::System;
use waterfall::{replay_build, replay_solve};

/// Replayed solves per run are capped so the trace of a millisecond-sized
/// system stays a few megabytes.
const MAX_SOLVE_ROUNDS: usize = 150;

struct Out {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric::single(name, value, unit));
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("parapre-bench-layers: check failed: {what}");
        }
    }
}

fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("parapre-bench-layers: {e}");
            ExitCode::from(2)
        }
    }
}

fn max_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, f64::max)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let spec = Spec::load(&root)?;
    let workload = arg::<String>(args, "--workload")
        .and_then(|w| Workload::parse(&w))
        .ok_or("--workload needs one of the workload names")?;
    let seed: u64 = arg(args, "--seed").unwrap_or(1);
    let seconds: f64 = arg(args, "--seconds").unwrap_or(spec.run_seconds);
    let env = Env {
        netd_bin: std::env::var_os("PARAPRE_BENCH_NETD")
            .map(PathBuf::from)
            .ok_or("PARAPRE_BENCH_NETD is not set: start through benchmark/run.sh")?,
        out_dir: root.join("benchmark").join("out"),
    };
    let epoch = Instant::now();
    let mut out = Out {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut trace: Vec<Span> = Vec::new();

    // One system per distinct build of the workload (the new-pattern cell of
    // `cold_build` builds exactly what its same-pattern twin builds). The
    // first is the primary: solves, kernels and probes use it.
    let systems: Vec<System> = workload
        .cells()
        .iter()
        .filter(|c| !c.new_pattern)
        .map(|c| System::prepare(c, seed))
        .collect();
    let sys = &systems[0];

    // host: what this machine can do, measured in the same run.
    let (spmv_s, spmv_gbs) = micro::spmv(&sys.a);
    let spmv_bytes = micro::spmv_bytes(&sys.a);
    out.put("host.nproc", host::nproc() as f64, "count");
    out.put("host.llc_bytes", host::llc_bytes() as f64, "bytes");
    out.put("host.triad_gbs", host::triad_gbs(spmv_bytes), "GB/s");
    out.put(
        "host.jitter_pct",
        host::jitter_pct(Duration::from_secs(1)),
        "%",
    );

    // sparse
    out.put("sparse.spmv_s", spmv_s, "s");
    out.put("sparse.spmv_gbs", spmv_gbs, "GB/s");
    out.put("sparse.spmv_bytes", spmv_bytes as f64, "bytes");
    let io = micro::sparse_io(sys);
    out.put("sparse.mtx_parse_ms", io.mtx_parse_ms, "ms");
    out.put("sparse.fingerprint_ms", io.fingerprint_ms, "ms");

    // partition, and engine's resolve step (partition + right-hand-side load).
    let rhs_text: String = sys.rhs[0].iter().map(|v| format!("{v:e}\n")).collect();
    let mut part_s = Vec::new();
    let mut resolve_s = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let part = partition_matrix(&sys.a, sys.cfg.n_ranks, sys.cfg.partition_seed);
        part_s.push(t0.elapsed().as_secs_f64());
        let b = parapre_sparse::io::read_vector(std::io::BufReader::new(rhs_text.as_bytes()))
            .map_err(|e| format!("own vector text: {e:?}"))?;
        resolve_s.push(t0.elapsed().as_secs_f64());
        out.check(
            part.1 == sys.owner && b.len() == sys.a.n_rows(),
            "partitioning repeats",
        );
    }
    let part = Partition {
        owner: sys.owner.clone(),
        n_parts: sys.cfg.n_ranks,
    };
    out.put("partition.graph_ms", median(&part_s) * 1e3, "ms");
    out.put(
        "partition.edge_cut",
        part.edge_cut(&matrix_graph(&sys.a)) as f64,
        "count",
    );
    out.put("partition.imbalance", part.imbalance(), "ratio");
    out.put("engine.resolve_ms", median(&resolve_s) * 1e3, "ms");

    // Build waterfall, summed over the workload's distinct builds: the
    // session build as netd runs it, then the same steps replayed with spans.
    let mut req = 0u64;
    let (mut build_ms, mut extract_ms, mut precond_ms) = (0.0, 0.0, 0.0);
    let (mut fallbacks, mut pivot_shifts) = (0, 0);
    let mut primary = None;
    for s in &systems {
        let mut whole = Vec::new();
        let mut extract = Vec::new();
        let mut precond = Vec::new();
        for _ in 0..3 {
            req += 1;
            let mut launcher = Recorder::new(epoch, 0);
            let id = launcher.open("engine.session_build", 0, req);
            let session =
                SolverSession::build(&s.a, &s.owner, &s.cfg).map_err(|e| e.to_string())?;
            launcher.close(id);
            whole.push(launcher.spans[0].dur_ns() as f64 * 1e-9);
            trace.extend(launcher.spans);
            fallbacks += session.build_fallbacks();
            pivot_shifts += session.pivot_shifts();

            req += 1;
            let from = trace.len();
            let built = replay_build(s, epoch, req, &mut trace);
            let rank_max = |name: &str| {
                max_of(
                    trace[from..]
                        .iter()
                        .filter(|sp| sp.name == name)
                        .map(|sp| sp.dur_ns() as f64 * 1e-9),
                )
            };
            extract.push(rank_max("dist.extract"));
            precond.push(rank_max("core.precond_build"));
            fallbacks += built[0].fallbacks;
            pivot_shifts += built.iter().map(|r| r.pivot_shifts).sum::<usize>();
            if primary.is_none() {
                primary = Some((Arc::new(session), built));
            }
        }
        build_ms += median(&whole) * 1e3;
        extract_ms += median(&extract) * 1e3;
        precond_ms += median(&precond) * 1e3;
    }
    let (session, built) = primary.expect("a workload has at least one cell");
    out.put("dist.extract_ms", extract_ms, "ms");
    out.put("core.precond_build_ms", precond_ms, "ms");
    out.put("core.fallbacks", fallbacks as f64, "count");
    out.put("core.pivot_shifts", pivot_shifts as f64, "count");
    out.put("engine.session_build_ms", build_ms, "ms");
    out.put(
        "engine.build_unattributed_ms",
        build_ms - extract_ms - precond_ms,
        "ms",
    );

    // Solve waterfall on the primary system: the session solve as netd runs
    // it, the replay with spans, and the replay without, in turn.
    let launch = micro::mpisim();
    let budget = Duration::from_secs_f64(seconds * 0.25);
    let started = Instant::now();
    let mut whole_s = Vec::new();
    let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
    let mut per_solve: Vec<waterfall::ReplayedSolve> = Vec::new();
    let mut expected_iters: Vec<Option<usize>> = vec![None; sys.rhs.len()];
    let mut round = 0;
    while round < 2 || (started.elapsed() < budget && round < MAX_SOLVE_ROUNDS) {
        let k = round % sys.rhs.len();
        let b = &sys.rhs[k];
        req += 1;
        let mut launcher = Recorder::new(epoch, 0);
        let id = launcher.open("engine.session_solve", 0, req);
        let rep = session.solve(b).map_err(|e| e.to_string())?;
        launcher.close(id);
        whole_s.push(launcher.spans[0].dur_ns() as f64 * 1e-9);
        trace.extend(launcher.spans);
        out.check(rep.converged, "session solve converges");
        out.check(
            sys.true_relres(b, &rep.x) <= MAX_TRUE_RELRES,
            "‖b − Ax‖/‖b‖ by the benchmark's own loop",
        );
        let want = *expected_iters[k].get_or_insert(rep.iterations);
        out.check(
            rep.iterations == want,
            "equal iterations for equal right-hand sides",
        );

        req += 1;
        let traced = replay_solve(sys, &built, b, true, epoch, req, &mut trace);
        let plain = replay_solve(sys, &built, b, false, epoch, req, &mut trace);
        for r in [&traced, &plain] {
            let x = r.ranks[0].x_global.as_ref().expect("rank 0 gathers");
            out.check(
                r.ranks[0].converged
                    && r.ranks[0].iterations == want
                    && sys.true_relres(b, x) <= MAX_TRUE_RELRES,
                "the replayed solve matches the session's",
            );
        }
        traced_wall.push(traced.wall_s);
        plain_wall.push(plain.wall_s);
        per_solve.push(traced);
        round += 1;
    }
    let over_solves = |f: &dyn Fn(&waterfall::RankSolve) -> f64| {
        let per: Vec<f64> = per_solve
            .iter()
            .map(|s| max_of(s.ranks.iter().map(f)))
            .collect();
        median(&per)
    };
    let matvec_s = over_solves(&|r| r.matvec_s);
    let apply_s = over_solves(&|r| r.precond_apply_s);
    let gmres_self_s = over_solves(&|r| r.gmres_self_s);
    let gmres_s = over_solves(&|r| r.gmres_s);
    let other_s = over_solves(&|r| r.other_s);
    let first = &per_solve[0].ranks;
    let matvec_calls = first[0].matvec_calls;
    let session_solve_ms = median(&whole_s) * 1e3;
    // Rank 0's local rows, sequentially and alone: what the matvecs would
    // cost if nothing had to be exchanged or waited for.
    let (local_spmv_s, _) = micro::spmv(&built[0].dm.a_loc);
    out.put("dist.matvec_s", matvec_s, "s");
    out.put("dist.matvec_calls", matvec_calls as f64, "count");
    out.put(
        "dist.halo_wait_s",
        matvec_s - local_spmv_s * matvec_calls as f64,
        "s",
    );
    out.put("dist.gmres_self_s", gmres_self_s, "s");
    out.put("core.precond_apply_s", apply_s, "s");
    out.put(
        "core.precond_apply_calls",
        first[0].precond_apply_calls as f64,
        "count",
    );
    out.put("krylov.iters", first[0].iterations as f64, "count");
    out.put("mpisim.launch_us", launch.launch_us, "us");
    out.put("mpisim.allreduce_us", launch.allreduce_us, "us");
    out.put(
        "mpisim.msgs",
        first.iter().map(|r| r.comm.msgs_sent).sum::<u64>() as f64,
        "count",
    );
    out.put(
        "mpisim.bytes",
        first.iter().map(|r| r.comm.bytes_sent).sum::<u64>() as f64,
        "bytes",
    );
    out.put(
        "mpisim.wait_s",
        over_solves(&|r| r.comm.wait_us as f64 * 1e-6),
        "s",
    );
    out.put("engine.session_solve_ms", session_solve_ms, "ms");
    out.put(
        "engine.solve_overhead_ms",
        session_solve_ms - gmres_s * 1e3,
        "ms",
    );
    out.put(
        "engine.solve_unattributed_ms",
        session_solve_ms - gmres_s * 1e3 - other_s * 1e3 - launch.launch_us * 1e-3,
        "ms",
    );
    out.put(
        "bench.trace_overhead_pct",
        100.0 * (median(&traced_wall) / median(&plain_wall) - 1.0),
        "%",
    );

    // krylov: the local factorizations and the sequential reference.
    let f = micro::factorizations(sys, &built);
    out.put("krylov.ilu0_factor_ms", f.ilu0_ms, "ms");
    out.put("krylov.ilut_factor_ms", f.ilut_ms, "ms");
    out.put("krylov.arms_factor_ms", f.arms_ms, "ms");
    out.put("krylov.factor_nnz", f.factor_nnz as f64, "count");
    out.put("krylov.sweep_us", f.sweep_us, "us");
    let (seq_s, seq_iters) = micro::sequential_baseline(sys);
    out.put("krylov.seq_baseline_s", seq_s, "s");
    out.put("krylov.seq_baseline_iters", seq_iters as f64, "count");

    // core: iteration counts as ranks are added.
    for p in [2, 4, 8] {
        out.put(
            &format!("core.iters_p{p}"),
            micro::iterations_at(sys, p) as f64,
            "count",
        );
    }

    // engine and net: single calls.
    let e = micro::engine(sys, &session);
    out.put("engine.parse_job_us", e.parse_job_us, "us");
    out.put("engine.result_json_us", e.result_json_us, "us");
    out.put("engine.cache_hit_us", e.cache_hit_us, "us");
    out.put("net.frame_us", micro::frame_us(), "us");

    // The two instrumentation layers, on and off in alternating pairs.
    let pairs = ((seconds * 0.08 / (session_solve_ms * 2e-3)) as usize).clamp(4, 60);
    let b0 = &sys.rhs[0];
    let solve = || {
        std::hint::black_box(session.solve(b0).expect("session solve"));
    };
    let m = micro::overhead_pct(
        pairs,
        || {
            parapre_metrics::set_enabled(false);
            solve();
            parapre_metrics::set_enabled(true);
        },
        solve,
    );
    let t = micro::overhead_pct(pairs, solve, || {
        std::hint::black_box(
            session
                .solve_traced(b0, None)
                .expect("traced session solve"),
        );
    });
    out.put("metrics.overhead_pct", m.pct, "%");
    out.put("trace.overhead_pct", t.pct, "%");
    eprintln!(
        "# overhead quartiles over {pairs} pairs: metrics [{:.2}, {:.2}] trace [{:.2}, {:.2}]",
        m.q1_pct, m.q3_pct, t.q1_pct, t.q3_pct
    );

    // net: the workload's own request mix against a real netd, briefly.
    let per_request_us = e.parse_job_us + e.result_json_us + io.fingerprint_ms * 1e3;
    wire(
        &mut out,
        &mut trace,
        workload,
        seed,
        seconds * 0.2,
        &env,
        epoch,
        per_request_us,
    )?;

    // Every name BENCHMARK.json lists, and no other.
    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut listed: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    listed.sort_unstable();
    if names != listed {
        let missing: Vec<_> = listed.iter().filter(|n| !names.contains(n)).collect();
        let extra: Vec<_> = names.iter().filter(|n| !listed.contains(n)).collect();
        return Err(format!(
            "per-layer metrics differ from BENCHMARK.json: not reported {missing:?}, not listed {extra:?}"
        ));
    }
    for m in &mut out.metrics {
        let listed = spec
            .per_layer
            .iter()
            .find(|l| l.name == m.name)
            .expect("checked above");
        if listed.unit != m.unit {
            return Err(format!(
                "{}: unit {} here, {} in BENCHMARK.json",
                m.name, m.unit, listed.unit
            ));
        }
    }

    std::fs::create_dir_all(&env.out_dir).map_err(|e| format!("{}: {e}", env.out_dir.display()))?;
    let path = env.out_dir.join(format!("trace_{}.jsonl", workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    spans::write_jsonl(std::io::BufWriter::new(file), &trace)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "# {} traced, seed {seed}: {} spans in {}",
        workload.name(),
        trace.len(),
        path.display()
    );
    println!(
        "# sparse.spmv_gbs and host.triad_gbs are computed bytes over time at the same footprint ({spmv_bytes} bytes), \
         below the last-level cache: cache rates, not a DRAM roofline"
    );
    for m in &out.metrics {
        println!("{}", m.human());
    }
    println!(
        "{}",
        report::result_line(
            out.failed == 0,
            out.attempted.max(1),
            out.failed,
            &out.metrics
        )
    );
    Ok(ExitCode::SUCCESS)
}

/// Runs the workload's request mix through netd for `seconds` and reports
/// what only the wire can show: the client-side latency, what the result
/// lines say the server spent, and the difference.
#[allow(clippy::too_many_arguments)]
fn wire(
    out: &mut Out,
    trace: &mut Vec<Span>,
    workload: Workload,
    seed: u64,
    seconds: f64,
    env: &Env,
    epoch: Instant,
    // Measured cost of what netd does per job outside queue, build and
    // solve: parsing the job line, fingerprinting the resolved matrix (done
    // on every job, hit or miss) and rendering the result line.
    per_request_us: f64,
) -> Result<(), String> {
    // Round trips of `ping` on an idle server: framing, dispatch and the
    // socket, nothing else.
    let netd = Netd::spawn(&env.netd_bin)?;
    let mut conn = netd.connect()?;
    let mut pings = Vec::new();
    for _ in 0..300 {
        let reply = conn.request_line("{\"cmd\":\"ping\"}")?;
        out.check(reply.line.bool("pong") == Some(true), "ping answers pong");
        pings.push(reply.latency_s);
    }
    drop(conn);
    out.check(netd.shutdown(), "netd exits cleanly");
    let ping_us = median(&pings[50..]) * 1e6;

    let offset_s = epoch.elapsed().as_secs_f64();
    let run = workloads::run(
        &RunConfig {
            workload,
            seed,
            seconds: seconds.max(1.0),
            setups: 1,
        },
        env,
    )?;
    out.attempted += run.attempted();
    out.failed += run.failed();

    let timed: Vec<_> = run
        .records
        .iter()
        .filter(|r| r.phase == Phase::Timed && r.ok)
        .collect();
    let of = |class: Class| timed.iter().copied().filter(move |r| r.class == class);
    let ms = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) * 1e3 };
    let hit_latency: Vec<f64> = of(Class::Hit).map(|r| r.latency_s).collect();
    let overhead: Vec<f64> = of(Class::Hit)
        .map(|r| r.latency_s - (r.queue_ms + r.build_ms + r.solve_ms) * 1e-3)
        .collect();
    let queue: Vec<f64> = timed.iter().map(|r| r.queue_ms * 1e-3).collect();
    let mut puts: Vec<f64> = of(Class::Put).map(|r| r.latency_s).collect();
    let mut misses: Vec<f64> = of(Class::Miss).map(|r| r.latency_s).collect();
    if puts.is_empty() {
        let setup = |class: Class| {
            run.records
                .iter()
                .filter(move |r| r.phase == Phase::Setup && r.class == class && r.ok)
                .map(|r| r.latency_s)
        };
        puts = setup(Class::Put).collect();
        misses = setup(Class::Miss).collect();
    }
    let overhead_ms = ms(overhead);
    out.put("net.ping_us", ping_us, "us");
    out.put("net.put_ms", ms(puts), "ms");
    out.put("net.req_p50_ms", ms(hit_latency.clone()), "ms");
    let tail_pct = highest_supported(hit_latency.len()).unwrap_or(50);
    out.put(
        "net.req_tail_ms",
        percentile(&hit_latency, tail_pct).map_or(0.0, |v| v * 1e3),
        "ms",
    );
    out.put("net.req_tail_pct", f64::from(tail_pct), "count");
    out.put("net.miss_p50_ms", ms(misses), "ms");
    out.put(
        "net.batch_p50_ms",
        ms(of(Class::Batch).map(|r| r.latency_s).collect()),
        "ms",
    );
    out.put(
        "net.newpat_setup_ms",
        ms(report::cold_setup_samples(&run, true, false)),
        "ms",
    );
    out.put("net.overhead_ms", overhead_ms, "ms");
    out.put(
        "net.request_unattributed_ms",
        overhead_ms - (ping_us + per_request_us) * 1e-3,
        "ms",
    );
    out.put(
        "net.rejected",
        run.fails.get("rejected").copied().unwrap_or(0) as f64,
        "count",
    );
    out.put("engine.queue_ms", ms(queue), "ms");
    let stat = |k: &str| run.server_stats.get(k).copied().unwrap_or(0.0);
    let lookups = stat("cache_hits") + stat("cache_misses");
    out.put(
        "engine.cache_hit_ratio",
        if lookups > 0.0 {
            stat("cache_hits") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    out.put("engine.cache_evictions", stat("cache_evictions"), "count");

    // The requests as client-side spans, on the trace's clock.
    let mut client = Recorder::new(epoch, 1000);
    for (i, r) in run.records.iter().enumerate() {
        let name = match r.class {
            Class::Put => "net.put",
            Class::Miss => "net.miss",
            Class::Hit => "net.hit",
            Class::Batch => "net.batch",
            Class::Stats => "net.stats",
        };
        let start = ((offset_s + r.sent_s) * 1e9) as u64;
        let end = start + (r.latency_s.max(0.0) * 1e9) as u64;
        client.push(name, 0, (1 << 32) + i as u64, start, end);
    }
    trace.extend(client.spans);
    Ok(())
}
