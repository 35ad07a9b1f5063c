//! Property: injected message *delays* (no drops, no kills) shift timing
//! but never values — a delayed solve is bitwise identical to the
//! fault-free solve for any mesh, any rank count in {1,2,4,8}, and both
//! box and graph partitions.

use parapre_dist::{scatter_vector, DistGmres, DistGmresConfig, DistMatrix, IdentityDistPrecond};
use parapre_fem::{bc, poisson, LinearSystem};
use parapre_grid::structured::unit_square;
use parapre_mpisim::{FaultConfig, FaultHook, FaultPlan, Universe};
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
    faults: Option<Arc<dyn FaultHook>>,
) -> Vec<(Vec<f64>, usize, f64)> {
    let outs = Universe::try_run_with_faults(p, Duration::from_secs(30), faults, move |comm| {
        let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
        let b_loc = scatter_vector(&dm.layout, b);
        let mut x = vec![0.0; dm.layout.n_owned()];
        let rep = DistGmres::new(DistGmresConfig {
            max_iters: 400,
            ..Default::default()
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
        let plan = Arc::new(FaultPlan::new(FaultConfig::delays(seed, 0.25, 120)));
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
