//! TC4 time-stepping harness: march the implicit heat equation against a
//! single symbolic factorization and report per-step solver behavior.
//!
//! ```text
//! cargo run --release -p parapre-bench --bin timestep_tc4 -- \
//!     [--extent 15] [--steps 10] [--dt 0.02] [--dt-growth 1.0] \
//!     [--ranks 4] [--precond schur1[,block2,…]]
//! ```
//!
//! With `--dt-growth 1` (the default) the system matrix `M + Δt·K` is
//! constant across steps, so the session factors it exactly once; every
//! step only reassembles `b = M uˡ⁻¹` and solves, seeded with the previous
//! state. With a growth factor `g ≠ 1` step `k` uses `Δt·gᵏ`: every step
//! changes the matrix values on the same pattern, and the session is
//! **refactored numerically** from its predecessor instead of rebuilt.
//! Solves and refactorizations are traced, and the harness *verifies* the
//! zero-factorization claim: any `setup.factor` span observed during the
//! march is a failure (exit 2), and a varying march must show exactly one
//! `setup.refactor` span per Δt change.
//!
//! For a varying march each rung is also marched by a reference loop that
//! **cold-builds** at every Δt change; the table compares cold-build and
//! refactor time per rung and the iteration drift of the refactored chain
//! against that reference.

use parapre_core::PrecondKind;
use parapre_engine::{
    march_heat, SessionConfig, SolveRequest, SolverSession, TimestepConfig, TimestepReport,
};
use parapre_fem::heat::{assemble_mass_stiffness, HeatMarch};
use parapre_grid::structured::unit_cube;
use parapre_grid::Adjacency;
use parapre_partition::partition_graph;

/// What the reference march (cold build at every Δt change) measured.
struct ColdReference {
    iterations: Vec<usize>,
    /// Mean wall time of the cold builds after the first.
    mean_rebuild_seconds: f64,
}

/// The march of `march_heat`, with every Δt change answered by a cold
/// `SolverSession::build` — the baseline the refactored chain is compared
/// against. Bench-only: the product never rebuilds cold when it can refactor.
fn cold_reference(extent: usize, dts: &[f64], cfg: &SessionConfig) -> ColdReference {
    let mesh = unit_cube(extent, extent, extent);
    let (mass, stiffness) = assemble_mass_stiffness(&mesh);
    let adjacency = Adjacency::from_elements(mesh.n_nodes(), mesh.tets.iter().map(|t| t.to_vec()));
    let part = partition_graph(&adjacency, cfg.n_ranks, cfg.partition_seed);
    let mut march = HeatMarch::from_mass_stiffness(&mesh, mass.clone(), &stiffness, dts[0]);
    let mut session = SolverSession::build(&march.a, &part.owner, cfg).expect("cold build");
    let mut u = HeatMarch::initial_state(&mesh);
    let mut iterations = Vec::with_capacity(dts.len());
    let mut rebuilds = Vec::new();
    for &dt in dts {
        if dt != march.dt {
            march = HeatMarch::from_mass_stiffness(&mesh, mass.clone(), &stiffness, dt);
            session = SolverSession::build(&march.a, &part.owner, cfg).expect("cold build");
            rebuilds.push(session.setup_seconds());
        }
        let b = march.rhs(&u);
        let rep = session
            .run(SolveRequest {
                x0: Some(&u),
                ..SolveRequest::new(&b)
            })
            .expect("reference solve")
            .single();
        iterations.push(rep.iterations);
        u = rep.x;
    }
    ColdReference {
        iterations,
        mean_rebuild_seconds: rebuilds.iter().sum::<f64>() / rebuilds.len().max(1) as f64,
    }
}

fn print_steps(report: &TimestepReport) {
    println!("step  dt        age  iters  relres      true_relres  solve_s   rebuild_s  amplitude");
    for s in &report.steps {
        println!(
            "{:>4}  {:<8.5}  {:>3}  {:>5}  {:.3e}  {:.3e}    {:.4}    {:.4}     {:.5}",
            s.step,
            s.dt,
            s.pattern_age,
            s.iterations,
            s.final_relres,
            s.true_relres,
            s.solve_seconds,
            s.rebuild_seconds,
            s.amplitude
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut extent = 15usize;
    let mut steps = 10usize;
    let mut dt = 0.02f64;
    let mut growth = 1.0f64;
    let mut ranks = 4usize;
    let mut preconds = "schur1".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--extent" => {
                i += 1;
                extent = args[i].parse().expect("extent");
            }
            "--steps" => {
                i += 1;
                steps = args[i].parse().expect("steps");
            }
            "--dt" => {
                i += 1;
                dt = args[i].parse().expect("dt");
            }
            "--dt-growth" => {
                i += 1;
                growth = args[i].parse().expect("dt growth factor");
            }
            "--ranks" => {
                i += 1;
                ranks = args[i].parse().expect("rank count");
            }
            "--precond" => {
                i += 1;
                preconds = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let kinds: Vec<PrecondKind> = preconds
        .split(',')
        .map(|p| PrecondKind::parse(p).unwrap_or_else(|| panic!("unknown --precond {p}")))
        .collect();
    let dts: Vec<f64> = (0..steps).map(|k| dt * growth.powi(k as i32)).collect();
    let dt_changes = dts.windows(2).filter(|w| w[0] != w[1]).count();
    eprintln!(
        "[timestep_tc4] heat on {extent}^3 grid, {steps} steps of dt={dt} x{growth}^k \
         ({dt_changes} dt changes), P={ranks}"
    );

    let mut failed = false;
    let mut table = Vec::new();
    for kind in kinds {
        let cfg = TimestepConfig {
            extent,
            dts: dts.clone(),
            session: SessionConfig::paper(kind, ranks),
            trace: true,
        };
        let report = march_heat(&cfg).expect("march");
        println!(
            "# {} n={} setup={:.3}s (one symbolic factorization)",
            kind.key(),
            report.n_unknowns,
            report.setup_seconds
        );
        print_steps(&report);
        let solve_total: f64 = report.steps.iter().map(|s| s.solve_seconds).sum();
        let per_step = solve_total / report.steps.len().max(1) as f64;
        println!(
            "setup={:.3}s per_step={per_step:.4}s amortization={:.1}x \
             factor_spans_during_steps={} refactor_spans_during_steps={} \
             refactors={} cold_rebuilds={}",
            report.setup_seconds,
            report.setup_seconds / per_step.max(1e-12),
            report.factor_spans_during_steps,
            report.refactor_spans_during_steps,
            report.refactors,
            report.cold_rebuilds
        );
        if report.factor_spans_during_steps != 0 {
            eprintln!("[timestep_tc4] FAIL: marched steps performed factorization work");
            failed = true;
        }
        if report.cold_rebuilds == 0 && report.refactor_spans_during_steps != dt_changes as u64 {
            eprintln!(
                "[timestep_tc4] FAIL: {} setup.refactor spans per rank for {dt_changes} dt changes",
                report.refactor_spans_during_steps
            );
            failed = true;
        }
        if report.steps.iter().any(|s| s.true_relres > 1e-5) {
            eprintln!("[timestep_tc4] FAIL: a step's true residual exceeded 1e-5");
            failed = true;
        }
        if dt_changes > 0 {
            let cold = cold_reference(extent, &dts, &cfg.session);
            let rebuilds: Vec<f64> = report
                .steps
                .iter()
                .filter(|s| s.rebuild_seconds > 0.0)
                .map(|s| s.rebuild_seconds)
                .collect();
            let mean_refactor = rebuilds.iter().sum::<f64>() / rebuilds.len().max(1) as f64;
            let drift: Vec<i64> = report
                .steps
                .iter()
                .zip(&cold.iterations)
                .map(|(s, &c)| s.iterations as i64 - c as i64)
                .collect();
            table.push((kind, cold.mean_rebuild_seconds, mean_refactor, drift));
        }
    }
    if !table.is_empty() {
        println!("# cold build vs. numeric refactorization per dt change, and the per-step");
        println!("# iteration drift of the refactored chain against cold rebuilds");
        println!("rung      cold_ms  refactor_ms  speedup  max|drift|  drift per step");
        for (kind, cold_s, refactor_s, drift) in &table {
            println!(
                "{:<8}  {:>7.2}  {:>11.2}  {:>6.2}x  {:>10}  {:?}",
                kind.key(),
                cold_s * 1e3,
                refactor_s * 1e3,
                cold_s / refactor_s.max(1e-12),
                drift.iter().map(|d| d.abs()).max().unwrap_or(0),
                drift
            );
        }
    }
    if failed {
        std::process::exit(2);
    }
    eprintln!(
        "[timestep_tc4] PASS: one symbolic factorization per rung served {steps} steps \
         and {dt_changes} dt changes"
    );
}
