//! The schedule hook over real rungs: a seeded send-delay schedule changes
//! when the rank threads run, never what they compute. TC1 and TC6 at the
//! tiny preset, all seven rungs, `P ∈ {2, 4}`, each solved through
//! `SolverSession::run` under two schedules, must give its committed
//! `LEDGER.txt` line column for column — iterations, `converged`, rung,
//! fallbacks, shifts, messages and the FNV-1a of the solution's bits. A
//! desynchronized collective or a tag collision that only some
//! interleavings expose would show up here as a ledger difference or a
//! receive tripwire.

use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre::engine::{SessionConfig, SolveRequest, SolverSession};
use parapre::mpisim::SchedulePlan;
use std::sync::Arc;

/// 64-bit FNV-1a over the little-endian bytes of every entry, as the
/// ledger hashes a solution.
fn fnv1a(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn delayed_solves_give_their_ledger_lines() {
    let kinds = [
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::schurml_default(),
        PrecondKind::Block1,
        PrecondKind::Block2,
        PrecondKind::BlockOverlap,
        PrecondKind::Jacobi,
    ];
    // (seed, probability, microseconds): sparse long stalls, dense short ones.
    let schedules = [(0x5eed, 0.25, 50), (7, 0.5, 10)];
    let ledger = include_str!("../LEDGER.txt");
    for id in [CaseId::Tc1, CaseId::Tc6] {
        let case = build_case(id, CaseSize::Tiny);
        for kind in kinds {
            for p in [2, 4] {
                let head = format!("{} tiny {} P={p} ", id.key(), kind.key());
                let want = ledger
                    .lines()
                    .find(|l| l.starts_with(&head))
                    .unwrap_or_else(|| panic!("no ledger line for {head:?}"));
                let session = SolverSession::from_case(&case, &SessionConfig::paper(kind, p))
                    .unwrap_or_else(|e| panic!("{head}: {e}"));
                for (seed, prob, us) in schedules {
                    let plan = Arc::new(SchedulePlan::delays(seed, prob, us));
                    let out = session.run(SolveRequest {
                        x0: Some(&case.x0),
                        schedule: Some(Arc::clone(&plan)),
                        ..SolveRequest::new(&case.sys.b)
                    });
                    let rep = out.unwrap_or_else(|f| panic!("{head}seed {seed}: {f:?}"));
                    let rep = rep.single();
                    let msgs: u64 = rep.load.ranks.iter().map(|r| r.msgs_sent).sum();
                    let got = format!(
                        "{head}it={} conv={} rung={} fallbacks={} shifts={} msgs={msgs} x={:016x}",
                        rep.iterations,
                        rep.converged,
                        session.active_precond().key(),
                        session.build_fallbacks(),
                        session.pivot_shifts(),
                        fnv1a(&rep.x),
                    );
                    assert_eq!(got, want, "seed {seed}");
                    assert!(
                        !plan.schedule().is_empty(),
                        "{head}seed {seed}: no delay fired"
                    );
                }
            }
        }
    }
}
