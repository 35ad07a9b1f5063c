//! Property: a seeded send-delay schedule shifts timing but never values —
//! a delayed solve is bitwise identical to the undelayed solve for any
//! mesh, any rank count in {1,2,4,8}, and both box and graph partitions.
//! And replay: the same seed gives the same delays, the same (normalized)
//! trace event stream and the same answer.
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
use parapre_dist::{scatter_vector, DistGmres, DistMatrix, GmresConfig, IdentityDistPrecond};
use parapre_fem::{bc, poisson, LinearSystem};
use parapre_grid::structured::unit_square;
use parapre_metrics::EventKind;
use parapre_mpisim::{SchedulePlan, Universe};
use parapre_partition::{partition_boxes_2d, partition_graph};
use parapre_sparse::Csr;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Box-grid factorizations for the power-of-two rank counts under test.
fn box_dims(p: usize) -> (usize, usize) {
    match p {
        1 => (1, 1),
        2 => (2, 1),
        4 => (2, 2),
        8 => (4, 2),
        _ => unreachable!("p is drawn from {{1,2,4,8}}"),
    }
}

fn dirichlet_poisson(nx: usize) -> (Csr, Vec<f64>) {
    let mesh = unit_square(nx, nx);
    let (a, b) = poisson::assemble_2d(&mesh, poisson::rhs_tc1);
    let mut sys = LinearSystem { a, b };
    let fixed: Vec<(usize, f64)> = mesh
        .boundary_nodes()
        .iter()
        .enumerate()
        .filter(|&(_, &on)| on)
        .map(|(i, _)| (i, 0.0))
        .collect();
    bc::apply_dirichlet(&mut sys, &fixed);
    (sys.a, sys.b)
}

/// Runs the solve with an optional delay plan; returns per-rank
/// (x, iterations, final_relres).
fn solve(
    a: &Csr,
    b: &[f64],
    owner: &[u32],
    p: usize,
    schedule: Option<Arc<SchedulePlan>>,
) -> Vec<(Vec<f64>, usize, f64)> {
    let outs = Universe::try_run_with(p, Duration::from_secs(30), schedule, move |comm| {
        let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
        let b_loc = scatter_vector(&dm.layout, b);
        let mut x = vec![0.0; dm.layout.n_owned()];
        let rep = DistGmres::new(GmresConfig {
            max_iters: 400,
            ..GmresConfig::distributed()
        })
        .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
        (x, rep.iterations, rep.final_relres)
    });
    outs.into_iter()
        .map(|r| r.expect("delays are benign"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn delayed_solve_bitwise_equals_fault_free(
        nx in 5usize..12,
        p_idx in 0usize..4,
        boxes in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p = [1usize, 2, 4, 8][p_idx];
        let (a, b) = dirichlet_poisson(nx);
        let owner = if boxes {
            let (px, py) = box_dims(p);
            partition_boxes_2d(nx, nx, px, py).owner
        } else {
            partition_graph(&unit_square(nx, nx).adjacency(), p, seed).owner
        };

        let clean = solve(&a, &b, &owner, p, None);
        let plan = Arc::new(SchedulePlan::delays(seed, 0.25, 120));
        let delayed = solve(&a, &b, &owner, p, Some(plan.clone()));

        for (c, d) in clean.iter().zip(&delayed) {
            prop_assert_eq!(&c.0, &d.0, "solution bitwise identical under delays");
            prop_assert_eq!(c.1, d.1, "iteration count identical");
            prop_assert!(c.2.to_bits() == d.2.to_bits(), "residual bitwise identical");
        }
        // The plan really interfered with traffic on multi-rank runs
        // (single-rank solves send no messages, so nothing can fire).
        if p > 1 {
            prop_assert!(!plan.schedule().is_empty(), "delays fired");
        }
    }
}

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

/// A traced solve at `P = 4` under the delay plan of `seed`: the delays
/// fired and every rank's outcome.
fn delayed_solve(seed: u64) -> (Vec<(usize, u64)>, Vec<RankResult>) {
    let p = 4;
    let (a, b, owner) = poisson_system(10, p);
    let plan = Arc::new(SchedulePlan::delays(seed, 0.15, 80));
    let (a_ref, b_ref, o_ref) = (&a, &b, &owner);
    let outs = Universe::try_run_with(
        p,
        Duration::from_secs(30),
        Some(plan.clone()),
        move |comm| {
            parapre_metrics::install(comm.rank());
            let dm = DistMatrix::from_global(a_ref, o_ref, comm.rank(), p);
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(GmresConfig::distributed()).solve(
                comm,
                &dm,
                &IdentityDistPrecond,
                &b_loc,
                &mut x,
            );
            let trace = parapre_metrics::take().expect("installed above");
            (x, rep.iterations, rep.final_relres, normalize(&trace))
        },
    );
    let ranks = outs
        .into_iter()
        .map(|r| r.expect("delays are benign"))
        .collect();
    (plan.schedule(), ranks)
}

#[test]
fn same_seed_same_schedule_same_trace_same_answer() {
    let (sched1, ranks1) = delayed_solve(0xC0FFEE);
    let (sched2, ranks2) = delayed_solve(0xC0FFEE);

    assert!(!sched1.is_empty(), "the plan delayed at least one send");
    assert_eq!(sched1, sched2, "delay schedule replays exactly");
    for (r1, r2) in ranks1.iter().zip(&ranks2) {
        assert_eq!(r1.0, r2.0, "solution bitwise identical");
        assert_eq!(r1.1, r2.1, "iteration count identical");
        assert_eq!(r1.2, r2.2, "final residual bitwise identical");
        assert_eq!(r1.3, r2.3, "normalized trace stream identical");
    }
}

#[test]
fn different_seed_different_schedule() {
    let (sched1, _) = delayed_solve(1);
    let (sched2, _) = delayed_solve(2);
    assert_ne!(sched1, sched2, "seeds decorrelate the schedules");
}
