//! `parapre-bench-e2e`: see `USAGE`. Normally started by `benchmark/run.sh`,
//! which builds netd and both benchmark packages first.

use parapre_bench_e2e::host::{self, HostFacts};
use parapre_bench_e2e::json::{self, Json};
use parapre_bench_e2e::report::{self, Metric};
use parapre_bench_e2e::spec::Spec;
use parapre_bench_e2e::stats;
use parapre_bench_e2e::workloads::{self, Env, FailCounts, IterationTable, RunConfig, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage (from the root of the checkout, through benchmark/run.sh):
  run.sh --workload W --seed N --seconds S --trace 0|1
        one run; the last line of stdout is the result object. --trace 0
        reports the end-to-end metrics, --trace 1 the per-layer metrics.
  run.sh [--seed N] [--smoke]
        all workloads with tracing off, then the traced runs; prints every
        metric as `name value unit`, writes benchmark/out/result.json, exits
        non-zero if any request failed. --smoke runs an eighth of the time
        and is not for comparison.
  run.sh repeat --sets K [--seed N] [--vary-seed] [--with-layers] [--smoke]
        K full sets; per metric and workload the median, quartiles and
        spread between sets; exits non-zero if a spread exceeds the bound.
        With --vary-seed set i uses seed N+i and the spread is the
        interquartile range over the median (the acceptance procedure);
        otherwise all sets use seed N and the spread is the largest
        difference over the median, and counts must agree exactly.
  run.sh compare A.json B.json
        B against baseline A (two result.json files); refuses when the
        hosts differ in nproc.
  run.sh probe [--seconds S]
        samples the host-speed probe alone (see benchmark/README.md).
  run.sh test
        the unit tests of both benchmark packages.";

/// Exact counters of the traced run that must repeat between sets.
const EXACT_LAYER_COUNTS: [&str; 8] = [
    "krylov.iters",
    "krylov.factor_nnz",
    "mpisim.msgs",
    "mpisim.bytes",
    "core.iters_p2",
    "core.iters_p4",
    "core.iters_p8",
    "partition.edge_cut",
];

struct Ctx {
    spec: Spec,
    env: Env,
    layers_bin: Option<PathBuf>,
}

struct WorkloadResult {
    workload: Workload,
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    fails: FailCounts,
    metrics: Vec<Metric>,
    diagnostics: Vec<Metric>,
    iterations: IterationTable,
    /// Per-layer metrics of the traced run; `None` when it was not run or
    /// the `layers` package is unavailable.
    layers: Option<Vec<Metric>>,
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or(format!("{name} needs a value\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flag(&args, "--help") || flag(&args, "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("parapre-bench-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let spec = Spec::load(&root)?;
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return Err(format!("compare needs two result files\n{USAGE}"));
        };
        return compare(&spec, Path::new(a), Path::new(b));
    }
    if args.first().map(String::as_str) == Some("probe") {
        return probe(value(args, "--seconds")?.unwrap_or(10.0));
    }
    let netd_bin = std::env::var_os("PARAPRE_BENCH_NETD")
        .map(PathBuf::from)
        .ok_or("PARAPRE_BENCH_NETD is not set: start through benchmark/run.sh")?;
    let ctx = Ctx {
        spec,
        env: Env {
            netd_bin,
            out_dir: root.join("benchmark").join("out"),
        },
        layers_bin: std::env::var_os("PARAPRE_BENCH_LAYERS")
            .filter(|p| !p.is_empty())
            .map(PathBuf::from),
    };
    let seed: u64 = value(args, "--seed")?.unwrap_or(1);
    let smoke = flag(args, "--smoke");
    if let Some(name) = value::<String>(args, "--workload")? {
        let workload =
            Workload::parse(&name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
        let seconds: f64 = value(args, "--seconds")?.unwrap_or(ctx.spec.run_seconds);
        return match value::<u8>(args, "--trace")?.unwrap_or(0) {
            0 => driver_run(&ctx, workload, seed, seconds),
            _ => traced_passthrough(&ctx, workload, seed, seconds),
        };
    }
    if args.first().map(String::as_str) == Some("repeat") {
        let sets: usize =
            value(args, "--sets")?.ok_or(format!("repeat needs --sets K\n{USAGE}"))?;
        return repeat(
            &ctx,
            sets.max(2),
            seed,
            flag(args, "--vary-seed"),
            flag(args, "--with-layers"),
            smoke,
        );
    }
    full(&ctx, seed, smoke)
}

fn seconds_for(ctx: &Ctx, smoke: bool) -> f64 {
    if smoke {
        ctx.spec.run_seconds / 8.0
    } else {
        ctx.spec.run_seconds
    }
}

fn run_gate(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<WorkloadResult, String> {
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        setups: if smoke { 3 } else { workload.setups() },
    };
    let out = workloads::run(&cfg, &ctx.env)?;
    let metrics = report::end_to_end(&out);
    Ok(WorkloadResult {
        workload,
        seed,
        correct: out.failed() == 0 && metrics.is_some(),
        attempted: out.attempted(),
        failed: out.failed(),
        fails: out.fails.clone(),
        diagnostics: report::diagnostics(&out),
        metrics: metrics.unwrap_or_default(),
        iterations: out.iterations,
        layers: None,
    })
}

/// One run for the driver: human-readable rows, then the result object.
fn driver_run(ctx: &Ctx, workload: Workload, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let r = run_gate(ctx, workload, seed, seconds, false)?;
    println!(
        "# {} seed {} seconds {} nproc {}",
        workload.name(),
        seed,
        seconds,
        host::nproc()
    );
    for m in r.metrics.iter().chain(&r.diagnostics) {
        println!("{}", m.human());
    }
    println!(
        "# attempted {} failed {} {:?}",
        r.attempted, r.failed, r.fails
    );
    println!(
        "# iterations by right-hand side: {}",
        iteration_summary(&r.iterations)
    );
    println!(
        "{}",
        report::result_line(r.correct, r.attempted, r.failed, &r.metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// Distinct iteration counts of single solves per right-hand side, over all
/// the matrices of the run.
fn iteration_summary(table: &IterationTable) -> String {
    let mut by_rhs: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for ((_, rhs, batch), iters) in table {
        if *batch == 1 {
            by_rhs.entry(*rhs).or_default().extend(iters);
        }
    }
    by_rhs
        .into_iter()
        .map(|(rhs, mut iters)| {
            iters.sort_unstable();
            iters.dedup();
            format!("rhs{rhs} {iters:?}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn layers_command(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Command, String> {
    let bin = ctx
        .layers_bin
        .as_ref()
        .ok_or("the `layers` package did not build: per-layer metrics are unavailable")?;
    let mut cmd = Command::new(bin);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "1"])
        .env("PARAPRE_BENCH_NETD", &ctx.env.netd_bin)
        .stdin(Stdio::null());
    Ok(cmd)
}

/// `--trace 1`: the traced run is the `layers` binary's job.
fn traced_passthrough(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<ExitCode, String> {
    let status = layers_command(ctx, workload, seed, seconds)?
        .status()
        .map_err(|e| format!("starting the layers binary: {e}"))?;
    Ok(if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs the traced run and parses the metrics out of its result object.
fn run_layers(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Vec<Metric>, String> {
    let out = layers_command(ctx, workload, seed, seconds)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the layers binary: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "the layers run of {} failed: {last}",
            workload.name()
        ));
    }
    let doc = Json::parse(last).map_err(|e| format!("layers result: {e}"))?;
    if doc.bool("correct") != Some(true) {
        return Err(format!(
            "the layers run of {} reports incorrect results",
            workload.name()
        ));
    }
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err("layers result without metrics".into());
    };
    Ok(members
        .iter()
        .map(|(name, m)| {
            Metric::single(
                name,
                m.num("value").unwrap_or(f64::NAN),
                m.str("unit").unwrap_or(""),
            )
        })
        .collect())
}

fn print_rows(r: &WorkloadResult) {
    let w = r.workload.name();
    for m in &r.metrics {
        println!("{w}.{}", m.human());
    }
    for m in &r.diagnostics {
        println!("{w}.{}  [not gated]", m.human());
    }
    println!("{w}.attempted {} count", r.attempted);
    println!("{w}.failed {} count  {:?}", r.failed, r.fails);
    for m in r.layers.iter().flatten() {
        println!("{w}.{}", m.human());
    }
}

/// One full set: every workload with tracing off, then the traced runs.
fn run_set(
    ctx: &Ctx,
    seed: u64,
    smoke: bool,
    with_layers: bool,
) -> Result<Vec<WorkloadResult>, String> {
    let seconds = seconds_for(ctx, smoke);
    let mut results = Vec::new();
    for workload in Workload::ALL {
        eprintln!("# {} ...", workload.name());
        results.push(run_gate(ctx, workload, seed, seconds, smoke)?);
    }
    if with_layers {
        for r in &mut results {
            eprintln!("# {} traced ...", r.workload.name());
            match run_layers(ctx, r.workload, seed, seconds) {
                Ok(m) => r.layers = Some(m),
                Err(e) => eprintln!("# per-layer metrics unavailable: {e}"),
            }
        }
    }
    Ok(results)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}}}",
                json::quote(&m.name),
                json::num(m.value),
                json::quote(&m.unit),
                m.n,
                json::num(m.q1),
                json::num(m.q3)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn result_json(host: &HostFacts, seed: u64, smoke: bool, results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let fails: Vec<String> = r.fails.iter().map(|(k, n)| format!("{}: {n}", json::quote(k))).collect();
            format!(
                "    {}: {{\"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"fails\": {{{}}},\n      \"end_to_end\": {},\n      \"diagnostics\": {},\n      \"per_layer\": {}}}",
                json::quote(r.workload.name()),
                r.seed,
                r.correct,
                r.attempted,
                r.failed,
                fails.join(", "),
                metrics_json(&r.metrics),
                metrics_json(&r.diagnostics),
                r.layers.as_deref().map_or("null".into(), metrics_json),
            )
        })
        .collect();
    format!(
        "{{\n  \"gating\": {},\n  \"seed\": {seed},\n  \"host\": {{\"nproc\": {}, \"llc_bytes\": {}, \"triad_gbs\": {}, \"triad_bytes\": {}, \"jitter_pct\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        !smoke,
        host.nproc,
        host.llc_bytes,
        json::num(host.triad_gbs),
        host::TRIAD_BYTES,
        json::num(host.jitter_pct),
        workloads.join(",\n")
    )
}

fn full(ctx: &Ctx, seed: u64, smoke: bool) -> Result<ExitCode, String> {
    let facts = host::facts();
    println!(
        "# host nproc {} llc_bytes {} triad_gbs {} (footprint {} bytes) jitter_pct {}",
        facts.nproc,
        facts.llc_bytes,
        facts.triad_gbs,
        host::TRIAD_BYTES,
        facts.jitter_pct
    );
    if smoke {
        println!("# SMOKE RUN: an eighth of the run time; these numbers gate nothing");
    }
    let results = run_set(ctx, seed, smoke, true)?;
    for r in &results {
        print_rows(r);
    }
    std::fs::create_dir_all(&ctx.env.out_dir)
        .map_err(|e| format!("{}: {e}", ctx.env.out_dir.display()))?;
    let path = ctx.env.out_dir.join("result.json");
    std::fs::write(&path, result_json(&facts, seed, smoke, &results))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let checked = results.iter().all(|r| r.correct && r.layers.is_some());
    if failed > 0 || !checked {
        eprintln!(
            "parapre-bench-e2e: {failed} failed requests; every check ran and passed: {checked}"
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn repeat(
    ctx: &Ctx,
    sets: usize,
    seed: u64,
    vary_seed: bool,
    with_layers: bool,
    smoke: bool,
) -> Result<ExitCode, String> {
    let mut all: Vec<Vec<WorkloadResult>> = Vec::new();
    for i in 0..sets {
        let s = if vary_seed { seed + i as u64 } else { seed };
        eprintln!("# set {} of {sets} (seed {s})", i + 1);
        all.push(run_set(ctx, s, smoke, with_layers)?);
    }
    let mut violations = 0;
    println!("# workload.metric  median  q1  q3  max_spread  iqr_spread  bound  verdict");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let names: Vec<String> = all[0][w]
            .metrics
            .iter()
            .chain(&all[0][w].diagnostics)
            .map(|m| m.name.clone())
            .collect();
        for name in names {
            let values: Vec<f64> = all
                .iter()
                .filter_map(|set| {
                    set[w]
                        .metrics
                        .iter()
                        .chain(&set[w].diagnostics)
                        .find(|m| m.name == name)
                })
                .map(|m| m.value)
                .collect();
            let [q1, _, q3] = stats::quartiles(&values).unwrap_or([f64::NAN; 3]);
            let max_spread = stats::range_over_median(&values);
            let iqr_spread = stats::iqr_over_median(&values).unwrap_or(f64::NAN);
            let spread = if vary_seed { iqr_spread } else { max_spread };
            let bound = ctx.spec.end_to_end(&name).and_then(|m| m.bound);
            // The acceptance procedure does not hold `setup_s` to a spread.
            let verdict = match bound {
                None => "not gated",
                Some(_) if name == "setup_s" && vary_seed => "exempt",
                Some(b) if spread <= b / 3.0 => "ok",
                Some(b) if spread <= b => "ok (above a third of the bound)",
                Some(_) => {
                    violations += 1;
                    "SPREAD EXCEEDS BOUND"
                }
            };
            println!(
                "{}.{name}  {}  {q1}  {q3}  {max_spread:.4}  {iqr_spread:.4}  {}  {verdict}",
                workload.name(),
                stats::median(&values),
                bound.map_or("-".into(), |b| b.to_string()),
            );
        }
        let failed: u64 = all.iter().map(|set| set[w].failed).sum();
        if failed > 0 || all.iter().any(|set| !set[w].correct) {
            violations += 1;
            println!("{}: {failed} FAILED REQUESTS", workload.name());
        }
        if !vary_seed {
            violations += exact_mismatches(workload, &all, w);
        }
    }
    if violations > 0 {
        eprintln!("parapre-bench-e2e: {violations} violations");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Same seed, same inputs: iteration counts on the result lines and the
/// exact counters of the traced run must agree between sets.
fn exact_mismatches(workload: Workload, all: &[Vec<WorkloadResult>], w: usize) -> usize {
    let mut mismatches = 0;
    let first = &all[0][w];
    for set in &all[1..] {
        for (key, iters) in &set[w].iterations {
            if first.iterations.get(key).is_some_and(|f| f != iters) {
                mismatches += 1;
                println!(
                    "{}: iteration counts of {key:?} differ between sets",
                    workload.name()
                );
            }
        }
        let (Some(a), Some(b)) = (&first.layers, &set[w].layers) else {
            continue;
        };
        for name in EXACT_LAYER_COUNTS {
            let get = |ms: &[Metric]| ms.iter().find(|m| m.name == name).map(|m| m.value);
            if get(a) != get(b) {
                mismatches += 1;
                println!(
                    "{}.{name}: {:?} vs {:?} between sets",
                    workload.name(),
                    get(a),
                    get(b)
                );
            }
        }
    }
    mismatches
}

/// Samples the host-speed probe alone: how `PROBE_NOMINAL_S` is derived.
fn probe(seconds: f64) -> Result<ExitCode, String> {
    let probe = host::SpeedProbe::new();
    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        samples.push(probe.sample());
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let [q1, q2, q3] = stats::quartiles(&samples).ok_or("too few samples")?;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "probe_s min {min} q1 {q1} median {q2} q3 {q3} (n={}); nominal {}",
        samples.len(),
        host::PROBE_NOMINAL_S
    );
    Ok(ExitCode::SUCCESS)
}

fn load_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (base, new) = (load_result(a)?, load_result(b)?);
    let nproc = |doc: &Json| doc.get("host").and_then(|h| h.num("nproc"));
    if nproc(&base).is_none() || nproc(&base) != nproc(&new) {
        return Err(format!(
            "refusing to compare: nproc is {:?} in {} and {:?} in {}",
            nproc(&base),
            a.display(),
            nproc(&new),
            b.display()
        ));
    }
    for doc in [&base, &new] {
        if doc.bool("gating") != Some(true) {
            return Err("refusing to compare: a smoke result gates nothing".into());
        }
    }
    let mut regressions = 0;
    let mut rows: BTreeMap<String, String> = BTreeMap::new();
    for w in &spec.workloads {
        let e2e = |doc: &Json, m: &str| {
            doc.get("workloads")?
                .get(w)?
                .get("end_to_end")?
                .get(m)?
                .num("value")
        };
        for m in &spec.end_to_end {
            let (Some(x), Some(y)) = (e2e(&base, &m.name), e2e(&new, &m.name)) else {
                return Err(format!("{w}.{} is missing from a result file", m.name));
            };
            let worse = m.worsening(x, y);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if worse > bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "within bound"
            };
            rows.insert(
                format!("{w}.{}", m.name),
                format!(
                    "{x} -> {y} {}  worse by {:+.2}% (bound {:.0}%)  {verdict}",
                    m.unit,
                    worse * 100.0,
                    bound * 100.0
                ),
            );
        }
    }
    for (name, row) in rows {
        println!("{name}  {row}");
    }
    Ok(if regressions > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
