//! A non-finite opening residual reaches `watch` like every other breakdown:
//! one ring event from rank 0, one `solve.breakdown` count on every rank,
//! and an inner fixed-effort solve fed the same poison counts and stays
//! silent. Alone in its file for the reason `convergence_stream.rs` is: the
//! ring is process-global, and nothing else may push while this counts.

use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_dist::{BreakdownKind, DistGmres, DistOp, IdentityDistPrecond};
use parapre_engine::{SessionConfig, SolverSession};
use parapre_metrics::{names, ConvKind, EventKind, RankTrace};
use parapre_mpisim::{Comm, Universe};

const P: usize = 2;

fn breakdown_counts(trace: &RankTrace) -> u64 {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Counter { name, delta } if name == names::SOLVE_BREAKDOWN => Some(*delta),
            _ => None,
        })
        .sum()
}

struct Identity(usize);

impl DistOp for Identity {
    fn n_owned(&self) -> usize {
        self.0
    }
    fn apply(&self, _comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }
}

#[test]
fn a_nan_right_hand_side_is_one_ring_event_and_one_count_per_rank() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, P);
    let session = SolverSession::from_case(&case, &cfg).expect("session builds");
    let mut b = case.sys.b.clone();
    b[0] = f64::NAN;

    let ring_before = parapre_metrics::conv_total();
    let (rep, traces) = session.solve_traced(&b, None).expect("the solve returns");
    assert!(!rep.converged);
    let bd = rep.breakdown.expect("typed breakdown");
    assert_eq!((bd.kind, bd.iteration), (BreakdownKind::NonFinite, 0));

    let pushed = parapre_metrics::conv_since(ring_before);
    assert_eq!(pushed.len(), 1, "rank 0 speaks once: {pushed:?}");
    let e = &pushed[0];
    assert_eq!(
        (e.source, e.kind, e.iter, e.detail.as_str()),
        ("dist", ConvKind::Breakdown, 0, "non_finite")
    );
    assert!(e.relres.is_nan());
    assert_eq!(traces.len(), P);
    for tr in &traces {
        assert_eq!(breakdown_counts(tr), 1, "rank {}", tr.rank);
    }

    // The inner entry takes the same exit with `speaks` off.
    let ring_before = parapre_metrics::conv_total();
    let counted = Universe::run(P, |comm| {
        let (_, trace) = parapre_metrics::recorded(comm.rank(), true, || {
            let g = [f64::NAN; 3];
            let mut z = [0.0; 3];
            DistGmres::fixed_effort(comm, &Identity(3), &IdentityDistPrecond, 5, &g, &mut z);
        });
        breakdown_counts(&trace.expect("recorded"))
    });
    assert_eq!(counted, vec![1; P]);
    assert_eq!(
        parapre_metrics::conv_total(),
        ring_before,
        "inner solves are silent"
    );
}
