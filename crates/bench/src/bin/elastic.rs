//! `elastic` — rebalance-vs-rebuild economics of the elastic rank
//! topology, on a deliberately skewed TC1 workload.
//!
//! The scenario: a TC1 system striped over `P` ranks, except rank 0 has
//! stolen 60% of rank 1's stripe (the kind of skew an adaptive workload
//! or a bad initial partition produces). Repeated solves feed the
//! per-rank load attribution into the [`RebalancePolicy`]; the
//! policy-triggered refinement migrates the session online and the bench
//! measures what that cost against the alternative — a cold session
//! rebuild on the corrected partition — and how much of the gap to an
//! optimally striped session the migration recovered.
//!
//! Emits `BENCH_elastic.json`. Enforced bars (deterministic or
//! ratio-based on one machine):
//!
//! * migration cost < 50% of the cold rebuild on the same partition;
//! * partition-size imbalance recovery ≥ 0.8;
//! * a rank killed mid-migration aborts cleanly and the old topology's
//!   answers stay bitwise identical;
//! * repeating the migration from the same state is deterministic.
//!
//! The wall-clock latency-recovery bar (≥ 0.8 of the skew→optimal gap)
//! additionally needs the cells to run on real cores and is armed through
//! the shared [`parapre_bench::ScalingArm`] rule.

use parapre_bench::ScalingArm;
use parapre_core::{build_case_sized, CaseId, PrecondKind};
use parapre_engine::elastic::{
    apply_decision, plan_migration, RebalanceConfig, RebalanceDecision, RebalancePolicy,
};
use parapre_engine::{matrix_graph, SessionConfig, SolverSession};
use parapre_krylov::IlutConfig;
use parapre_mpisim::{FaultConfig, FaultPlan};
use parapre_partition::Partition;
use std::sync::Arc;
use std::time::Instant;

/// Max part size over ideal part size — 1.0 is perfect balance.
fn size_imbalance(owner: &[u32], p: usize) -> f64 {
    let mut sizes = vec![0usize; p];
    for &o in owner {
        sizes[o as usize] += 1;
    }
    let max = sizes.iter().copied().max().unwrap_or(0) as f64;
    max / (owner.len() as f64 / p as f64)
}

/// Fraction of a gap recovered; 1.0 when there was no gap to recover.
fn recovery(skew: f64, migrated: f64, optimal: f64) -> f64 {
    let gap = skew - optimal;
    if gap <= f64::EPSILON {
        1.0
    } else {
        (skew - migrated) / gap
    }
}

struct Measured {
    mean_solve_secs: f64,
    iterations: usize,
    x: Vec<f64>,
}

/// Runs `repeats` identical solves and reports the mean wall time, the
/// (identical) iteration count, and the last solution vector.
fn measure(session: &SolverSession, b: &[f64], repeats: usize) -> Measured {
    let mut secs = 0.0;
    let mut iterations = 0;
    let mut x = Vec::new();
    for _ in 0..repeats {
        let rep = session.solve(b).expect("workload solve");
        assert!(rep.converged, "workload solve must converge");
        secs += rep.solve_seconds;
        iterations = rep.iterations;
        x = rep.x;
    }
    Measured {
        mean_solve_secs: secs / repeats as f64,
        iterations,
        x,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut ranks = 8usize;
    let mut out_path = "BENCH_elastic.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--ranks" => {
                i += 1;
                ranks = args[i].parse().expect("rank count");
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let (extent, repeats) = if quick { (64usize, 3usize) } else { (97, 5) };

    let case = build_case_sized(CaseId::Tc1, extent);
    let a = case.sys.a.clone();
    let b = case.sys.b.clone();
    let n = a.n_rows();
    eprintln!(
        "elastic: TC1 {extent}x{extent} ({n} unknowns), P={ranks}{}",
        if quick { " (quick)" } else { "" }
    );

    // Optimal topology: contiguous index stripes (row-major TC1 ordering
    // makes these geometric stripes). Skewed topology: rank 0 steals 60%
    // of rank 1's stripe.
    let optimal_owner: Vec<u32> = (0..n).map(|i| (i * ranks / n) as u32).collect();
    let mut skew_owner = optimal_owner.clone();
    let stripe = n / ranks;
    for o in skew_owner.iter_mut().skip(stripe).take(stripe * 6 / 10) {
        *o = 0;
    }
    let imb_skew = size_imbalance(&skew_owner, ranks);
    let imb_opt = size_imbalance(&optimal_owner, ranks);

    // Block 2 with a high-quality factorization: an expensive build makes
    // the rebuild-vs-migrate economics realistic (and visible above the
    // universe-launch overhead even at quick sizes).
    let mut cfg = SessionConfig::paper(PrecondKind::Block2, ranks);
    cfg.params.ilut = IlutConfig {
        drop_tol: 1e-6,
        fill: 100,
    };

    let skew = SolverSession::build(&a, &skew_owner, &cfg).expect("skewed session");
    let optimal = SolverSession::build(&a, &optimal_owner, &cfg).expect("optimal session");
    let m_skew = measure(&skew, &b, repeats);
    let m_opt = measure(&optimal, &b, repeats);
    eprintln!(
        "skewed: imbalance {imb_skew:.3}, {} it, {:.4}s/solve; optimal: imbalance {imb_opt:.3}, {} it, {:.4}s/solve",
        m_skew.iterations, m_skew.mean_solve_secs, m_opt.iterations, m_opt.mean_solve_secs
    );

    // The policy watches the per-rank busy attribution of the workload
    // solves; the 60% steal must surface as a sustained imbalance.
    let mut policy = RebalancePolicy::new(RebalanceConfig {
        sustain: 2,
        cooldown: 0,
        ..RebalanceConfig::default()
    });
    let mut decision = RebalanceDecision::Stay;
    for _ in 0..repeats.max(4) {
        let rep = skew.solve(&b).expect("policy observation solve");
        decision = policy.observe(&rep.load);
        if decision != RebalanceDecision::Stay {
            break;
        }
    }
    let decision_str = match decision {
        RebalanceDecision::Stay => "stay".to_string(),
        RebalanceDecision::Refine => "refine".to_string(),
        RebalanceDecision::Resize(q) => format!("resize:{q}"),
    };
    eprintln!("policy decision: {decision_str}");
    if decision == RebalanceDecision::Stay {
        eprintln!("FAIL: the policy never reacted to a 60% stripe steal");
        std::process::exit(2);
    }

    let adj = matrix_graph(&a);
    let part = Partition {
        owner: skew_owner.clone(),
        n_parts: ranks,
    };
    let load = skew.last_load().expect("load recorded");
    let new_part =
        apply_decision(&adj, &part, &load, decision, cfg.partition_seed, 64).expect("a real move");
    let plan = plan_migration(&a, &skew_owner, ranks, &new_part.owner, new_part.n_parts)
        .expect("migration plan");

    // The alternative a non-elastic engine has: a cold session build on
    // the corrected partition.
    let t0 = Instant::now();
    let cold = SolverSession::build(&a, &new_part.owner, &cfg).expect("cold rebuild");
    let cold_secs = t0.elapsed().as_secs_f64();
    drop(cold);

    let (migrated, mrep) = skew.migrate(&plan, None, None).expect("migration");
    let cost_ratio = mrep.migrate_seconds / cold_secs;
    let imb_new = size_imbalance(migrated.owner(), plan.new_p);
    let imb_recovery = recovery(imb_skew, imb_new, 1.0);
    eprintln!(
        "migrated: {}/{} ranks reused, {} rows moved, {:.4}s vs {cold_secs:.4}s cold ({:.0}% of rebuild)",
        mrep.reused_ranks, plan.new_p, mrep.moved_rows, mrep.migrate_seconds, cost_ratio * 100.0
    );
    eprintln!("imbalance: {imb_skew:.3} -> {imb_new:.3} (recovery {imb_recovery:.2})");

    let m_mig = measure(&migrated, &b, repeats);
    let iter_recovery = recovery(
        m_skew.iterations as f64,
        m_mig.iterations as f64,
        m_opt.iterations as f64,
    );
    let latency_recovery = recovery(
        m_skew.mean_solve_secs,
        m_mig.mean_solve_secs,
        m_opt.mean_solve_secs,
    );
    eprintln!(
        "post-migration: {} it, {:.4}s/solve (iteration recovery {iter_recovery:.2}, latency recovery {latency_recovery:.2})",
        m_mig.iterations, m_mig.mean_solve_secs
    );

    // Chaos: kill rank 1 at its first send inside the migration universe
    // (the topology vote). The migration must abort and the old topology
    // must keep answering bitwise identically.
    let hook = Arc::new(FaultPlan::new(FaultConfig::kill_once(1, 0)));
    let chaos = skew.migrate(&plan, None, Some(hook));
    let chaos_aborted = chaos.is_err();
    let after = skew.solve(&b).expect("post-chaos solve");
    let old_intact = after.x == m_skew.x;
    eprintln!("chaos: aborted={chaos_aborted}, old topology bitwise intact={old_intact}");

    // Determinism: the same plan from the same state must land the same
    // migration and the same answers.
    let (migrated2, mrep2) = skew.migrate(&plan, None, None).expect("repeat migration");
    let m_mig2 = measure(&migrated2, &b, 1);
    let deterministic = mrep2.reused_ranks == mrep.reused_ranks
        && mrep2.moved_rows == mrep.moved_rows
        && m_mig2.x == m_mig.x;
    eprintln!("determinism: repeat migration identical={deterministic}");

    let arm = ScalingArm::decide(&format!("P={ranks}"), ranks);

    let json = format!(
        concat!(
            "{{\n",
            "  \"config\": {{\"case\": \"tc1\", \"extent\": {extent}, \"n\": {n}, ",
            "\"ranks\": {ranks}, \"repeats\": {repeats}, \"quick\": {quick}, ",
            "\"precond\": \"block2\"}},\n",
            "  \"available_cores\": {cores},\n",
            "  \"arm\": {arm_json},\n",
            "  \"workload\": {{\"skew_imbalance\": {imb_skew:.4}, ",
            "\"optimal_imbalance\": {imb_opt:.4}, ",
            "\"skew\": {{\"iterations\": {it_skew}, \"mean_solve_secs\": {t_skew:.6}}}, ",
            "\"optimal\": {{\"iterations\": {it_opt}, \"mean_solve_secs\": {t_opt:.6}}}}},\n",
            "  \"policy\": {{\"decision\": \"{decision}\"}},\n",
            "  \"migration\": {{\"new_p\": {new_p}, \"reused_ranks\": {reused}, ",
            "\"rebuilt_ranks\": {rebuilt}, \"moved_rows\": {moved}, ",
            "\"migrate_secs\": {mig_secs:.6}, \"cold_rebuild_secs\": {cold_secs:.6}, ",
            "\"cost_ratio\": {ratio:.4}, \"probe_relerr\": {probe:.3e}}},\n",
            "  \"recovery\": {{\"imbalance\": {imb_rec:.4}, \"new_imbalance\": {imb_new:.4}, ",
            "\"iterations\": {{\"migrated\": {it_mig}, \"recovery\": {it_rec:.4}}}, ",
            "\"latency\": {{\"migrated_mean_solve_secs\": {t_mig:.6}, ",
            "\"recovery\": {lat_rec:.4}}}}},\n",
            "  \"chaos\": {{\"kill_rank\": 1, \"kill_op\": 0, \"aborted\": {aborted}, ",
            "\"old_topology_bitwise_intact\": {intact}}},\n",
            "  \"determinism\": {{\"repeat_migrate_identical\": {det}}}\n",
            "}}\n"
        ),
        extent = extent,
        n = n,
        ranks = ranks,
        repeats = repeats,
        quick = quick,
        cores = arm.available_cores,
        arm_json = arm.to_json(),
        imb_skew = imb_skew,
        imb_opt = imb_opt,
        it_skew = m_skew.iterations,
        t_skew = m_skew.mean_solve_secs,
        it_opt = m_opt.iterations,
        t_opt = m_opt.mean_solve_secs,
        decision = decision_str,
        new_p = plan.new_p,
        reused = mrep.reused_ranks,
        rebuilt = mrep.rebuilt_ranks,
        moved = mrep.moved_rows,
        mig_secs = mrep.migrate_seconds,
        cold_secs = cold_secs,
        ratio = cost_ratio,
        probe = mrep.probe_relerr,
        imb_rec = imb_recovery,
        imb_new = imb_new,
        it_mig = m_mig.iterations,
        it_rec = iter_recovery,
        t_mig = m_mig.mean_solve_secs,
        lat_rec = latency_recovery,
        aborted = chaos_aborted,
        intact = old_intact,
        det = deterministic,
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    // Regression bars.
    let mut failed = false;
    if cost_ratio >= 0.5 {
        eprintln!("FAIL: migration cost {cost_ratio:.2} of a cold rebuild (bar: < 0.5)");
        failed = true;
    }
    if imb_recovery < 0.8 {
        eprintln!("FAIL: imbalance recovery {imb_recovery:.2} below 0.8");
        failed = true;
    }
    if !chaos_aborted || !old_intact {
        eprintln!("FAIL: mid-migration kill must abort and leave the old topology intact");
        failed = true;
    }
    if !deterministic {
        eprintln!("FAIL: repeating the migration from the same state diverged");
        failed = true;
    }
    // Wall-clock recovery compares three sessions' solve latencies — only
    // meaningful with real cores under every rank.
    if arm.armed {
        if latency_recovery < 0.8 {
            eprintln!("FAIL: latency recovery {latency_recovery:.2} below 0.8");
            failed = true;
        }
    } else {
        eprintln!("latency bar skipped: {}", arm.reason);
    }
    if failed {
        std::process::exit(2);
    }
}
