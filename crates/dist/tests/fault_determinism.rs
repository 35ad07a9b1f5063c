//! Acceptance: same fault seed ⇒ identical fault schedule, identical
//! (normalized) trace event stream, identical solver outcome.
//!
//! Trace normalization drops per-event timestamps and the three classes of
//! event that are timing-dependent *by design* and therefore outside the
//! determinism contract: the `halo.*` overlap counters (they measure how
//! many ghost messages happened to arrive before the interior rows were
//! done), the `comm.pool_*` buffer-reuse counters, and `comm.recv_poll`
//! (a receive polls only while every live rank thread has a core, so on a
//! host with fewer cores than ranks the last ranks to finish poll and the
//! others do not — one run in twelve under `taskset -c 0`). Point-to-point comm
//! events are compared as a per-rank multiset because the overlapped halo
//! exchange may *observe* arrivals in either pass; every other event is
//! compared in program order.

mod common;

use common::poisson_system;
use parapre_dist::{scatter_vector, DistGmres, DistGmresConfig, DistMatrix, IdentityDistPrecond};
use parapre_metrics::EventKind;
use parapre_mpisim::{FaultConfig, FaultHook, FaultPlan, FaultRecord, Universe};
use std::sync::Arc;
use std::time::Duration;

/// (program-ordered events, sorted comm multiset) with timestamps and
/// timing-dependent counters removed.
fn normalize(trace: &parapre_metrics::RankTrace) -> (Vec<String>, Vec<String>) {
    let mut prog = Vec::new();
    let mut comm = Vec::new();
    for e in &trace.events {
        match &e.kind {
            EventKind::Comm {
                dir,
                peer,
                tag,
                bytes,
            } => comm.push(format!("{dir:?}:{peer}:{tag}:{bytes}")),
            EventKind::Counter { name, .. }
                if name.starts_with("halo.")
                    || name.starts_with("comm.pool")
                    || name == parapre_metrics::names::RECV_POLL => {}
            k => prog.push(format!("{k:?}")),
        }
    }
    comm.sort();
    (prog, comm)
}

type RankResult = (Vec<f64>, usize, f64, (Vec<String>, Vec<String>));

fn faulted_solve(seed: u64) -> (Vec<FaultRecord>, Vec<RankResult>) {
    let p = 4;
    let (a, b, owner) = poisson_system(10, p);
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed,
        delay_prob: 0.15,
        delay_us: 80,
        jitter_us: 60,
        slow_ranks: vec![1],
        ..Default::default()
    }));
    let hook: Arc<dyn FaultHook> = plan.clone();
    let (a_ref, b_ref, o_ref) = (&a, &b, &owner);
    let outs = Universe::try_run_with_faults(p, Duration::from_secs(30), Some(hook), move |comm| {
        parapre_metrics::install(comm.rank());
        let dm = DistMatrix::from_global(a_ref, o_ref, comm.rank(), p);
        let b_loc = scatter_vector(&dm.layout, b_ref);
        let mut x = vec![0.0; dm.layout.n_owned()];
        let rep = DistGmres::new(DistGmresConfig::default()).solve(
            comm,
            &dm,
            &IdentityDistPrecond,
            &b_loc,
            &mut x,
        );
        let trace = parapre_metrics::take().expect("installed above");
        (x, rep.iterations, rep.final_relres, normalize(&trace))
    });
    let ranks = outs
        .into_iter()
        .map(|r| r.expect("delay/jitter faults are benign"))
        .collect();
    (plan.schedule(), ranks)
}

#[test]
fn same_seed_same_schedule_same_trace_same_answer() {
    let (sched1, ranks1) = faulted_solve(0xC0FFEE);
    let (sched2, ranks2) = faulted_solve(0xC0FFEE);

    assert!(!sched1.is_empty(), "the plan fired at least one fault");
    assert_eq!(sched1, sched2, "fault schedule replays exactly");
    for (r1, r2) in ranks1.iter().zip(&ranks2) {
        assert_eq!(r1.0, r2.0, "solution bitwise identical");
        assert_eq!(r1.1, r2.1, "iteration count identical");
        assert_eq!(r1.2, r2.2, "final residual bitwise identical");
        assert_eq!(r1.3, r2.3, "normalized trace stream identical");
    }
}

#[test]
fn different_seed_different_schedule() {
    let (sched1, _) = faulted_solve(1);
    let (sched2, _) = faulted_solve(2);
    assert_ne!(sched1, sched2, "seeds decorrelate the schedules");
}

#[test]
fn injected_kill_is_structured_and_replayable() {
    let p = 4;
    let (a, b, owner) = poisson_system(8, p);
    let run = || {
        let plan = Arc::new(FaultPlan::new(FaultConfig::kill_once(2, 3)));
        let hook: Arc<dyn FaultHook> = plan.clone();
        let (a_ref, b_ref, o_ref) = (&a, &b, &owner);
        let outs =
            Universe::try_run_with_faults(p, Duration::from_millis(250), Some(hook), move |comm| {
                let dm = DistMatrix::from_global(a_ref, o_ref, comm.rank(), p);
                let b_loc = scatter_vector(&dm.layout, b_ref);
                let mut x = vec![0.0; dm.layout.n_owned()];
                DistGmres::new(DistGmresConfig::default())
                    .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x)
                    .iterations
            });
        let injected: Vec<(usize, u64)> = outs
            .iter()
            .filter_map(|r| r.as_ref().err())
            .filter_map(|f| f.injected.as_ref())
            .map(|i| (i.rank, i.op))
            .collect();
        (plan.schedule(), injected)
    };
    let (sched1, injected1) = run();
    let (sched2, injected2) = run();
    assert_eq!(injected1, vec![(2, 3)], "exactly the planned kill fired");
    assert_eq!(injected1, injected2);
    assert_eq!(sched1, sched2);
}
