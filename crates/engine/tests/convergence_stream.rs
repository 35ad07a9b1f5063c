//! One convergence stream: what rank 0 records per iteration of a traced
//! session solve is what the `watch` ring received, and no other rank
//! spoke. Alone in its file, so nothing else in the process pushes into
//! the ring while it counts.

use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_engine::{SessionConfig, SolverSession};
use parapre_metrics::{ConvKind, EventKind};

#[test]
fn rank_zero_iter_events_are_the_rings_iter_events() {
    const P: usize = 4;
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, P);
    let session = SolverSession::from_case(&case, &cfg).expect("session builds");

    let ring_before = parapre_metrics::conv_total();
    let (rep, traces) = session
        .solve_traced(&case.sys.b, Some(&case.x0))
        .expect("traced solve");
    assert!(rep.converged);
    assert_eq!(traces.len(), P);
    let pushed = parapre_metrics::conv_since(ring_before);

    let iters_of = |rank: usize| -> Vec<(u64, u64)> {
        let tr = traces
            .iter()
            .find(|t| t.rank == rank)
            .expect("one per rank");
        tr.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Iter { iter, relres } => Some((iter, relres.to_bits())),
                _ => None,
            })
            .collect()
    };
    let rank0 = iters_of(0);
    assert_eq!(rank0.len(), rep.iterations);
    // Every rank records the same stream ...
    for r in 1..P {
        assert_eq!(iters_of(r), rank0, "rank {r}");
    }
    // ... and the ring holds it once: rank 0's, then the closing event.
    let ring_iters: Vec<(u64, u64)> = pushed
        .iter()
        .filter(|e| e.kind == ConvKind::Iter)
        .map(|e| (e.iter, e.relres.to_bits()))
        .collect();
    assert_eq!(ring_iters, rank0);
    assert_eq!(
        pushed.len(),
        rank0.len() + 1,
        "ranks other than 0 stayed silent"
    );
    let last = pushed.last().expect("nonempty");
    assert_eq!((last.kind, last.source), (ConvKind::Converged, "dist"));
}
