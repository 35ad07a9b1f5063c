//! Chaos/resilience benchmark: what fault tolerance costs and what it buys.
//!
//! ```text
//! cargo run --release -p parapre-bench --bin chaos -- \
//!     [--quick] [--ranks 4] [--out BENCH_chaos.json]
//! ```
//!
//! Three measurements on TC1 (Poisson 2-D, Block 1 preconditioner):
//!
//! 1. **Checkpoint overhead at 0% faults** — the same solve with and
//!    without per-cycle checkpointing, min over repetitions. The
//!    acceptance bar is ≤ 5% overhead; the binary exits 2 above it.
//! 2. **Delay fault-rate sweep** — injected message delays at increasing
//!    probability. Delays shift wall-clock but never values, so the
//!    iteration count must stay flat while wall time climbs.
//! 3. **Rank-kill scenarios** — a transient kill (fires once) must be
//!    absorbed by a checkpoint-resumed retry; a persistent kill must fall
//!    through to the degraded reduced-system solve, reporting both the
//!    reduced residual it converged to and the honest full-system one.

use parapre_core::{build_case_sized, CaseId, PrecondKind};
use parapre_dist::{CheckpointCtx, CheckpointStore};
use parapre_engine::{solve_resilient, RecoveryPolicy, SessionConfig, SolveRequest, SolverSession};
use parapre_mpisim::{FaultConfig, FaultHook, FaultPlan, RankOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut ranks = 4usize;
    let mut out_path = "BENCH_chaos.json".to_string();
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

    let (extent, reps) = if quick { (32usize, 3usize) } else { (64, 5) };
    let sweep: &[f64] = if quick {
        &[0.0, 0.05, 0.2]
    } else {
        &[0.0, 0.05, 0.2, 0.5]
    };
    eprintln!(
        "chaos: TC1 {extent}x{extent}, P={ranks}, {reps} reps{}",
        if quick { " (quick)" } else { "" }
    );

    let case = build_case_sized(CaseId::Tc1, extent);
    let mut cfg = SessionConfig::paper(PrecondKind::Block1, ranks);
    // Short restart cycles make checkpoints frequent (the worst case for
    // the overhead bar); a short receive timeout keeps kill cascades fast.
    cfg.gmres.restart = 10;
    cfg.recv_timeout = Duration::from_millis(500);
    let session = SolverSession::from_case(&case, &cfg).expect("setup");
    let b = &case.sys.b;
    let x0 = Some(case.x0.as_slice());

    // 1. Checkpoint overhead at 0% faults (min over reps on both arms).
    let mut plain_secs = f64::INFINITY;
    let mut ckpt_secs = f64::INFINITY;
    let mut iters = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let plain = SolveRequest {
            x0,
            ..SolveRequest::new(b)
        };
        let rep = session.run(plain.clone()).expect("clean solve").single();
        plain_secs = plain_secs.min(t0.elapsed().as_secs_f64());
        assert!(rep.converged, "baseline solve must converge");
        iters = rep.iterations;

        let store = CheckpointStore::new(ranks);
        let t0 = Instant::now();
        let rep = session
            .run(SolveRequest {
                ckpt: Some(CheckpointCtx::fresh(&store)),
                ..plain
            })
            .expect("checkpointed solve")
            .single();
        ckpt_secs = ckpt_secs.min(t0.elapsed().as_secs_f64());
        assert!(rep.converged, "checkpointed solve must converge");
        assert_eq!(
            rep.iterations, iters,
            "checkpointing must not change the math"
        );
    }
    let overhead_pct = (ckpt_secs / plain_secs - 1.0) * 100.0;
    eprintln!(
        "checkpoint overhead: plain {plain_secs:.4}s, ckpt {ckpt_secs:.4}s => {overhead_pct:+.2}% ({iters} iters)"
    );

    // 2. Delay fault-rate sweep: values are timing-independent, so the
    // iteration count must not move; only wall-clock may.
    let mut sweep_rows = Vec::new();
    for &prob in sweep {
        let fault: Option<Arc<dyn FaultHook>> =
            (prob > 0.0).then(|| Arc::new(FaultPlan::new(FaultConfig::delays(42, prob, 50))) as _);
        let t0 = Instant::now();
        let (rep, out) = solve_resilient(&session, b, x0, fault, &RecoveryPolicy::none())
            .expect("delays are benign");
        let wall = t0.elapsed().as_secs_f64();
        assert!(rep.converged);
        assert_eq!(
            rep.iterations, iters,
            "delays must not change iteration count"
        );
        eprintln!(
            "delay sweep p={prob:.2}: {wall:.4}s, {} iters, {} retries",
            rep.iterations, out.retries
        );
        sweep_rows.push(format!(
            "{{\"delay_prob\": {prob}, \"wall_secs\": {wall:.6}, \
             \"iterations\": {}, \"retries\": {}}}",
            rep.iterations, out.retries
        ));
    }

    // 3a. Transient kill: rank 1 dies once mid-solve — late enough that at
    // least one restart cycle has been checkpointed — and the retry
    // resumes from the last consistent checkpoint instead of iteration 0.
    let plan = Arc::new(FaultPlan::new(FaultConfig::kill_once(1, 120)));
    let hook: Arc<dyn FaultHook> = plan.clone();
    let t0 = Instant::now();
    let transient = solve_resilient(&session, b, x0, Some(hook), &RecoveryPolicy::default());
    let transient_wall = t0.elapsed().as_secs_f64();
    let (t_rep, t_out) = transient.unwrap_or_else(|(e, _)| panic!("transient kill: {e}"));
    let transient_ok = t_rep.converged && !t_out.degraded && t_out.retries >= 1;
    eprintln!(
        "transient kill: {transient_wall:.4}s, retries {}, resumed from iter {}, relres {:.3e}",
        t_out.retries, t_out.resumed_iters, t_rep.true_relres
    );

    // 3b. Persistent kill: every attempt dies, so the ladder must answer
    // with the degraded reduced system and an honest full residual.
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        once: false,
        kill: vec![RankOp { rank: 1, op: 30 }],
        ..Default::default()
    }));
    let hook: Arc<dyn FaultHook> = plan.clone();
    let policy = RecoveryPolicy {
        retry_budget: 1,
        backoff_ms: 1,
        ..Default::default()
    };
    let t0 = Instant::now();
    let persistent = solve_resilient(&session, b, x0, Some(hook), &policy);
    let persistent_wall = t0.elapsed().as_secs_f64();
    let (p_rep, p_out) = persistent.unwrap_or_else(|(e, _)| panic!("persistent kill: {e}"));
    let persistent_ok = p_rep.converged && p_out.degraded && p_out.dead_ranks == vec![1];
    eprintln!(
        "persistent kill: {persistent_wall:.4}s, degraded={}, reduced relres {:.3e}, full relres {:.3e}",
        p_out.degraded,
        p_rep.final_relres,
        p_rep.true_relres
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"config\": {{\"ranks\": {ranks}, \"quick\": {quick}, ",
            "\"grid\": {extent}, \"reps\": {reps}, \"restart\": 10}},\n",
            "  \"checkpoint_overhead\": {{\"plain_secs\": {ps:.6}, ",
            "\"ckpt_secs\": {cs:.6}, \"overhead_pct\": {op:.4}, \"iterations\": {it}}},\n",
            "  \"delay_sweep\": [{sweep}],\n",
            "  \"kill_transient\": {{\"recovered\": {tok}, \"retries\": {tr}, ",
            "\"resumed_iters\": {ti}, \"true_relres\": {trr:.6e}, \"wall_secs\": {tw:.6}}},\n",
            "  \"kill_persistent\": {{\"degraded\": {pok}, \"dead_ranks\": [1], ",
            "\"reduced_relres\": {prr:.6e}, \"full_relres\": {pfr:.6e}, \"wall_secs\": {pw:.6}}}\n",
            "}}\n"
        ),
        ranks = ranks,
        quick = quick,
        extent = extent,
        reps = reps,
        ps = plain_secs,
        cs = ckpt_secs,
        op = overhead_pct,
        it = iters,
        sweep = sweep_rows.join(", "),
        tok = transient_ok,
        tr = t_out.retries,
        ti = t_out.resumed_iters,
        trr = t_rep.true_relres,
        tw = transient_wall,
        pok = persistent_ok,
        prr = p_rep.final_relres,
        pfr = p_rep.true_relres,
        pw = persistent_wall,
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    let mut fail = false;
    if overhead_pct > 5.0 {
        eprintln!("FAIL: checkpoint overhead {overhead_pct:.2}% above 5%");
        fail = true;
    }
    if !transient_ok {
        eprintln!("FAIL: transient kill was not absorbed by retry");
        fail = true;
    }
    if !persistent_ok {
        eprintln!("FAIL: persistent kill did not degrade cleanly");
        fail = true;
    }
    if fail {
        std::process::exit(2);
    }
    eprintln!("PASS: overhead {overhead_pct:.2}% <= 5%, both kill scenarios absorbed");
}
