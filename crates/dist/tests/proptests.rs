//! Property-based tests for the distributed layer: for any partition of any
//! grid, the distributed operators must agree with their global
//! counterparts.

use parapre_dist::{gather_vector, scatter_vector, tags, DistMatrix, LocalLayout};
use parapre_fem::poisson;
use parapre_grid::structured::unit_square;
use parapre_mpisim::{Comm, Universe};
use parapre_partition::{partition_boxes_2d, partition_graph};
use proptest::prelude::*;

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

/// Deterministic pseudo-random node values seeded per test case.
fn node_value(g: usize, seed: u64) -> f64 {
    ((g as f64 + 1.0) * 0.173 + (seed % 977) as f64 * 0.031).sin()
}

/// Blocking reference for the ghost exchange, independent of the buffer
/// pool and of the posted/polled split: one freshly allocated message of
/// owned values per neighbour, then one receive per neighbour written into
/// the ghost slots.
fn reference_update_ghosts(lay: &LocalLayout, comm: &mut Comm, x: &mut [f64]) {
    for (k, &q) in lay.neighbors.iter().enumerate() {
        let data: Vec<f64> = lay.send_idx[k].iter().map(|&i| x[i]).collect();
        comm.send(q, tags::GHOST, data);
    }
    for (k, &q) in lay.neighbors.iter().enumerate() {
        let data = comm.recv(q, tags::GHOST);
        assert_eq!(data.len(), lay.recv_idx[k].len());
        for (&gi, &v) in lay.recv_idx[k].iter().zip(&data) {
            x[gi] = v;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matvec_matches_global_for_any_partition(
        nx in 4usize..14,
        p in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mesh = unit_square(nx, nx);
        let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
        let part = partition_graph(&mesh.adjacency(), p, seed);
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let want = a.mul_vec(&x);
        let (a_ref, owner_ref, x_ref) = (&a, &part.owner, &x);
        let results = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let mut ext = vec![0.0; dm.layout.n_local()];
            let owned = scatter_vector(&dm.layout, x_ref);
            ext[..dm.layout.n_owned()].copy_from_slice(&owned);
            let mut y = vec![0.0; dm.layout.n_owned()];
            dm.matvec(comm, &mut ext, &mut y);
            gather_vector(comm, &dm.layout, &y, x_ref.len())
        });
        let got = results[0].as_ref().expect("rank 0 gathers");
        for (u, v) in got.iter().zip(&want) {
            prop_assert!((u - v).abs() < 1e-11);
        }
    }

    #[test]
    fn classification_counts_add_up(
        nx in 4usize..14,
        p in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mesh = unit_square(nx, nx);
        let (a, _) = poisson::assemble_2d(&mesh, |_, _| 0.0);
        let part = partition_graph(&mesh.adjacency(), p, seed);
        let (a_ref, owner_ref) = (&a, &part.owner);
        let out = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            (dm.layout.n_internal, dm.layout.n_interface, dm.layout.n_ghost)
        });
        let owned_total: usize = out.iter().map(|&(i, f, _)| i + f).sum();
        prop_assert_eq!(owned_total, a.n_rows());
        // Ghost counts are consistent with the send plans: total ghosts =
        // total entries in everyone's send lists (each ghost appears in
        // exactly one owner's send list for this rank).
        let ghosts_total: usize = out.iter().map(|&(_, _, g)| g).sum();
        prop_assert!(ghosts_total > 0 || p == 1);
    }

    #[test]
    fn scatter_gather_roundtrip(
        nx in 4usize..12,
        p in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mesh = unit_square(nx, nx);
        let (a, _) = poisson::assemble_2d(&mesh, |_, _| 0.0);
        let part = partition_graph(&mesh.adjacency(), p, seed);
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let (a_ref, owner_ref, x_ref) = (&a, &part.owner, &x);
        let results = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let local = scatter_vector(&dm.layout, x_ref);
            gather_vector(comm, &dm.layout, &local, x_ref.len())
        });
        prop_assert_eq!(results[0].as_ref().unwrap(), &x);
    }

    #[test]
    fn overlapped_spmv_bitwise_equals_exchange_then_spmv(
        nx in 5usize..14,
        p_idx in 0usize..4,
        boxes in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The overlapped matvec (pooled sends, interior rows during
        // flight, polled receives) must be *bitwise* identical to a
        // blocking exchange followed by the fused local SpMV for any mesh,
        // partitioner and rank count — whole-row splitting preserves
        // accumulation order.
        let p = [1usize, 2, 4, 8][p_idx];
        let mesh = unit_square(nx, nx);
        let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
        let owner = if boxes {
            let (px, py) = box_dims(p);
            partition_boxes_2d(nx, nx, px, py).owner
        } else {
            partition_graph(&mesh.adjacency(), p, seed).owner
        };
        let (a_ref, owner_ref) = (&a, &owner);
        let ok = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let mut x1 = vec![0.0; dm.layout.n_local()];
            for (l, v) in x1[..dm.layout.n_owned()].iter_mut().enumerate() {
                *v = node_value(dm.layout.local_to_global[l], seed);
            }
            let mut x2 = x1.clone();
            let mut y1 = vec![0.0; dm.layout.n_owned()];
            let mut y2 = vec![0.0; dm.layout.n_owned()];
            dm.matvec(comm, &mut x1, &mut y1);
            reference_update_ghosts(&dm.layout, comm, &mut x2);
            dm.a_loc.spmv(&x2, &mut y2);
            y1 == y2 && x1 == x2
        });
        prop_assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn pooled_ghost_exchange_bitwise_equals_reference(
        nx in 5usize..14,
        p_idx in 0usize..4,
        boxes in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Buffer-reuse halo exchange (pooled sends, recycled receives) and
        // the allocate-per-message reference must fill identical ghost
        // tails; the pooled interface exchange must deliver the same
        // neighbour interface values.
        let p = [1usize, 2, 4, 8][p_idx];
        let mesh = unit_square(nx, nx);
        let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
        let owner = if boxes {
            let (px, py) = box_dims(p);
            partition_boxes_2d(nx, nx, px, py).owner
        } else {
            partition_graph(&mesh.adjacency(), p, seed).owner
        };
        let (a_ref, owner_ref) = (&a, &owner);
        let ok = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let lay = &dm.layout;
            let mut x1 = vec![0.0; lay.n_local()];
            for (l, v) in x1[..lay.n_owned()].iter_mut().enumerate() {
                *v = node_value(lay.local_to_global[l], seed);
            }
            let mut x2 = x1.clone();
            lay.update_ghosts(comm, &mut x1);
            reference_update_ghosts(lay, comm, &mut x2);
            // Interface-only exchange must deliver the same ghost values
            // (every ghost is an interface node of its owner).
            let y: Vec<f64> = x1[lay.n_internal..lay.n_owned()].to_vec();
            let mut ghosts = vec![0.0; lay.n_ghost];
            lay.exchange_interface(comm, &y, &mut ghosts);
            x1 == x2 && ghosts == x1[lay.n_owned()..]
        });
        prop_assert!(ok.iter().all(|&b| b));
    }
}
