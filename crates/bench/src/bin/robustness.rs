//! Numerical-robustness benchmark: what the safety net catches.
//!
//! ```text
//! cargo run --release -p parapre-bench --bin robustness -- \
//!     [--quick] [--ranks 4] [--out BENCH_robustness.json]
//! ```
//!
//! **Hostile suite** — chain matrices with zero, near-zero, and
//! sign-flipped diagonals, run through every requested preconditioner
//! rung. Records the ladder-rung histogram (which preconditioner each
//! build actually landed on), shift-retry and fallback totals, and a
//! breakdown-kind census from the solves. The acceptance bar: no panic, no
//! non-finite answer presented as a plain result — every unconverged solve
//! is budget exhaustion or a *typed* breakdown.
//!
//! The clean-path side — zero shifts and zero fallbacks on every paper
//! cell — is a test, not a timing: `tests/paper_cells_build_clean.rs`.

use parapre_core::PrecondKind;
use parapre_engine::{SessionConfig, SolverSession};
use parapre_sparse::{Coo, Csr};
use std::collections::BTreeMap;

/// Structurally symmetric chain with a hostile diagonal (exact zeros,
/// near-zeros, sign flips) — the same family the robustness tests use.
fn hostile(n: usize, seed: u64) -> Csr {
    let mut state = seed | 1;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut coo = Coo::new(n, n);
    for i in 0..n - 1 {
        coo.push(i, i + 1, -1.0 + 0.1 * rnd());
        coo.push(i + 1, i, -1.0 + 0.1 * rnd());
    }
    for i in 0..n {
        let d = match i % 5 {
            0 => 0.0,
            1 => 1e-14 * rnd(),
            2 => -(2.0 + rnd().abs()),
            _ => 4.0 + rnd().abs(),
        };
        coo.push(i, i, d);
    }
    coo.to_csr()
}

fn block_owner(n: usize, p: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * p) / n) as u32).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut ranks = 4usize;
    let mut out_path = "BENCH_robustness.json".to_string();
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

    let seeds = if quick { 4u64 } else { 12 };
    eprintln!(
        "robustness: {} hostile seeds x {} rungs, P={ranks}{}",
        seeds,
        PrecondKind::ALL.len(),
        if quick { " (quick)" } else { "" }
    );

    // Hostile suite: every rung, several seeds.
    let n = 96;
    let owner = block_owner(n, ranks);
    let mut rung_hist: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut breakdowns: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_shifts = 0usize;
    let mut total_fallbacks = 0usize;
    let mut converged = 0usize;
    let mut runs = 0usize;
    let mut non_finite = 0usize;
    for seed in 0..seeds {
        let a = hostile(n, seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        for kind in PrecondKind::ALL {
            let mut cfg = SessionConfig::paper(kind, ranks);
            cfg.gmres.max_iters = 120;
            let session =
                SolverSession::build(&a, &owner, &cfg).expect("ladder bottom is infallible");
            *rung_hist.entry(session.active_precond().key()).or_insert(0) += 1;
            total_shifts += session.pivot_shifts();
            total_fallbacks += session.build_fallbacks();
            let b = vec![1.0; n];
            let rep = session.solve(&b).expect("solve completes");
            runs += 1;
            let finite = rep.x.iter().all(|v| v.is_finite());
            if rep.converged {
                converged += 1;
                if !finite {
                    non_finite += 1;
                }
            } else if let Some(bd) = &rep.breakdown {
                *breakdowns.entry(bd.kind.key().to_string()).or_insert(0) += 1;
            } else if !finite {
                // Unconverged with no typed breakdown must at least hand
                // back a finite iterate — anything else is a safety hole.
                non_finite += 1;
            }
        }
    }
    eprintln!(
        "hostile suite: {runs} runs, {converged} converged, {total_fallbacks} fallbacks, \
         {total_shifts} shift retries, rungs {rung_hist:?}, breakdowns {breakdowns:?}"
    );

    let rung_json: Vec<String> = rung_hist
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let bd_json: Vec<String> = breakdowns
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"config\": {{\"ranks\": {ranks}, \"quick\": {quick}, ",
            "\"hostile_seeds\": {seeds}, \"hostile_n\": {n}}},\n",
            "  \"hostile\": {{\"runs\": {runs}, \"converged\": {conv}, ",
            "\"fallbacks\": {fb}, \"pivot_shifts\": {ps}, \"non_finite\": {nf},\n",
            "    \"rung_histogram\": {{{rungs}}},\n",
            "    \"breakdowns\": {{{bds}}}}}\n",
            "}}\n"
        ),
        ranks = ranks,
        quick = quick,
        seeds = seeds,
        n = n,
        runs = runs,
        conv = converged,
        fb = total_fallbacks,
        ps = total_shifts,
        nf = non_finite,
        rungs = rung_json.join(", "),
        bds = bd_json.join(", "),
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    let mut fail = false;
    if non_finite > 0 {
        eprintln!("FAIL: {non_finite} hostile solves smuggled out non-finite answers");
        fail = true;
    }
    if total_fallbacks + total_shifts == 0 {
        eprintln!("FAIL: the hostile suite never exercised the safety net");
        fail = true;
    }
    if fail {
        std::process::exit(2);
    }
    eprintln!(
        "PASS: {total_fallbacks} fallbacks / {total_shifts} shifts absorbed with no \
         non-finite answers"
    );
}
