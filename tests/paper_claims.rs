//! The paper's qualitative conclusions (§6), checked mechanically at
//! reduced scale. EXPERIMENTS.md records the same checks at bench scale.

use parapre::core::runner::PartitionScheme;
use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre::engine::{run_case, SessionConfig};

fn iters(case: &parapre::core::AssembledCase, kind: PrecondKind, p: usize) -> (usize, bool) {
    let mut cfg = SessionConfig::paper(kind, p);
    cfg.gmres.max_iters = 800;
    let res = run_case(case, &cfg);
    (res.iterations, res.converged)
}

#[test]
fn claim1_schur1_stable_iterations_tc1() {
    // "The Schur 1 preconditioner ... has quite stable iteration counts,
    // which are somewhat independent of P."
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let (i2, c2) = iters(&case, PrecondKind::Schur1, 2);
    let (i8, c8) = iters(&case, PrecondKind::Schur1, 8);
    assert!(c2 && c8);
    assert!(i8 <= 3 * i2.max(3), "Schur1 grew too fast: {i2} -> {i8}");
}

#[test]
fn claim2_schur2_most_stable_tc2() {
    // "The Schur 2 preconditioner has the most stable iteration counts
    // with respect to P." (Needs subdomains big enough for the ARMS
    // elimination to be meaningful: 11³ nodes, not the 7³ Tiny preset.)
    let case = parapre::core::build_case_sized(CaseId::Tc2, 11);
    let spread = |kind| {
        let counts: Vec<usize> = [2usize, 4, 8]
            .iter()
            .map(|&p| iters(&case, kind, p).0)
            .collect();
        counts.iter().max().unwrap() - counts.iter().min().unwrap()
    };
    let s2 = spread(PrecondKind::Schur2);
    let b1 = spread(PrecondKind::Block1);
    assert!(s2 <= 2, "Schur2 spread {s2}");
    assert!(s2 <= b1, "Schur2 spread {s2} vs Block1 spread {b1}");
}

#[test]
fn claim3_blocks_degrade_on_elasticity() {
    // TC6 "is clearly the toughest"; "Block 1 and Block 2 ... have trouble
    // producing satisfactory convergence" while the Schur variants work.
    let case = build_case(CaseId::Tc6, CaseSize::Tiny);
    let (s1, s1c) = iters(&case, PrecondKind::Schur1, 4);
    let (b1, b1c) = iters(&case, PrecondKind::Block1, 4);
    assert!(s1c, "Schur1 must converge on TC6");
    assert!(
        !b1c || b1 > s1,
        "Block1 ({b1}, conv={b1c}) should trail Schur1 ({s1})"
    );
}

#[test]
fn claim4_schur1_wins_convection() {
    // TC5: "the Schur 1 preconditioner is a clear winner".
    let case = build_case(CaseId::Tc5, CaseSize::Tiny);
    let (s1, c1) = iters(&case, PrecondKind::Schur1, 4);
    let (b1, c2) = iters(&case, PrecondKind::Block1, 4);
    assert!(c1);
    assert!(!c2 || s1 <= b1, "Schur1 {s1} vs Block1 {b1}");
}

#[test]
fn claim5_subdomain_shape_barely_matters() {
    // §5.1: "the change in iteration counts is hardly noticeable" between
    // general and box partitionings.
    let case = build_case(CaseId::Tc2, CaseSize::Tiny);
    for kind in [PrecondKind::Schur1, PrecondKind::Block2] {
        let mut cfg = SessionConfig::paper(kind, 4);
        cfg.scheme = PartitionScheme::General;
        let gen = run_case(&case, &cfg);
        cfg.scheme = PartitionScheme::Boxes;
        let boxes = run_case(&case, &cfg);
        assert!(gen.converged && boxes.converged);
        let (a, b) = (gen.iterations as i64, boxes.iterations as i64);
        assert!(
            (a - b).abs() <= a.max(b) / 2 + 3,
            "{}: general {a} vs boxes {b}",
            kind.label()
        );
    }
}

#[test]
fn claim6_schwarz_needs_cgc() {
    // §5.2: without CGC the growth is dangerous; with CGC the Schwarz
    // preconditioner converges faster than the algebraic ones.
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let solve = |coarse, p| {
        let mut cfg = SessionConfig::paper(PrecondKind::Schwarz { coarse }, p);
        cfg.scheme = PartitionScheme::Boxes;
        cfg.gmres.max_iters = 800;
        let res = run_case(&case, &cfg);
        assert!(res.converged);
        res.iterations
    };
    let no_small = solve(false, 2);
    let no_large = solve(false, 16);
    let yes_large = solve(true, 16);
    assert!(
        no_large > no_small,
        "no-CGC iterations must grow: {no_small} -> {no_large}"
    );
    assert!(
        yes_large < no_large,
        "CGC must help: {yes_large} vs {no_large}"
    );
    // At this reduced scale CGC-Schwarz already beats the block
    // preconditioners; the paper's stronger "faster than all four" holds
    // at bench scale (see EXPERIMENTS.md, E8).
    let (b1, _) = iters(&case, PrecondKind::Block1, 16);
    assert!(yes_large < b1, "CGC-Schwarz {yes_large} vs Block1 {b1}");
}

#[test]
fn claim7_block_preconditioners_cheapest_per_iteration() {
    // "Block 1 and Block 2 have very good scalability ... computational
    // cost per iteration": they communicate nothing in M⁻¹, so their
    // per-iteration message count is strictly lower.
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let block = run_case(&case, &SessionConfig::paper(PrecondKind::Block1, 4));
    let schur = run_case(&case, &SessionConfig::paper(PrecondKind::Schur1, 4));
    let per_it = |r: &parapre::engine::RunResult| r.total_msgs as f64 / r.iterations as f64;
    assert!(
        per_it(&block) < per_it(&schur),
        "block msgs/itr {} vs schur {}",
        per_it(&block),
        per_it(&schur)
    );
}
