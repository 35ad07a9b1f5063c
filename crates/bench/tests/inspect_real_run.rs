//! Cross-check: `parapre-inspect`'s merged table must reproduce the
//! per-phase totals of the live `TraceSummary::merge` on a real traced
//! run — the inspector is a second view of the same numbers, not a
//! second source of truth.

use parapre_bench::inspect::inspect_traces;
use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_engine::{run_case_traced, SessionConfig};
use parapre_metrics::TraceSummary;

#[test]
fn inspect_matches_live_summary_on_a_traced_run() {
    let case = build_case(CaseId::Tc2, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, 4);
    let (res, traces) = run_case_traced(&case, &cfg, true);
    assert!(res.converged);
    assert_eq!(traces.len(), 4);

    let insp = inspect_traces(&traces);
    let direct = TraceSummary::merge(&traces.iter().map(|t| t.summary()).collect::<Vec<_>>());
    assert_eq!(insp.merged.phases, direct.phases);
    assert_eq!(insp.merged.counters, direct.counters);
    assert_eq!(insp.merged.comm, direct.comm);
    assert_eq!(insp.merged.table(), direct.table());

    // The load attribution must cover every rank and stay self-consistent.
    assert_eq!(insp.load.ranks.len(), 4);
    assert!(insp.load.imbalance() >= 1.0);
    let cf = insp.load.comm_fraction();
    assert!((0.0..=1.0).contains(&cf), "comm fraction {cf} out of range");
    assert!(insp.load.slowest_rank().is_some());
}
