//! What the fused all-reduce buys, in counts: on a fixed budget of
//! FGMRES(20) iterations (an unreachable tolerance, the identity
//! preconditioner) the batched classical Gram–Schmidt must run exactly as
//! many iterations as modified Gram–Schmidt and send strictly fewer messages
//! per iteration. The `kernels` bin reports the same two runs with their
//! wall clocks at a larger shape; the counts do not depend on the host, so
//! they are checked here.

use parapre::dist::{
    scatter_vector, DistGmres, DistMatrix, GmresConfig, IdentityDistPrecond, OrthMethod,
};
use parapre::fem::poisson;
use parapre::grid::structured::unit_square;
use parapre::mpisim::{CommStats, Universe};
use parapre::partition::partition_graph;

/// Iterations run and messages sent over all ranks by `iters` FGMRES(20)
/// iterations under `orth` on the `nx × nx` Poisson matrix at `p` ranks.
fn fixed_budget(nx: usize, p: usize, iters: usize, orth: OrthMethod) -> (usize, u64) {
    let mesh = unit_square(nx, nx);
    let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
    let owner = partition_graph(&mesh.adjacency(), p, 11).owner;
    let b: Vec<f64> = (0..a.n_rows())
        .map(|i| 1.0 + (i as f64 * 0.13).cos())
        .collect();
    let out = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(&a, &owner, comm.rank(), p);
        let b_loc = scatter_vector(&dm.layout, &b);
        let solver = DistGmres::new(GmresConfig {
            restart: 20,
            max_iters: iters,
            rel_tol: 1e-30,
            abs_tol: 1e-300,
            orth,
            ..GmresConfig::distributed()
        });
        let mut x = vec![0.0; dm.layout.n_owned()];
        let before = comm.stats();
        let rep = solver.solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
        (
            rep.iterations,
            CommStats::delta(&comm.stats(), &before).msgs_sent,
        )
    });
    (out[0].0, out.iter().map(|&(_, m)| m).sum())
}

#[test]
fn batched_cgs_runs_the_budget_of_mgs_with_fewer_messages_per_iteration() {
    for p in [2, 8] {
        let (mgs_it, mgs_msgs) = fixed_budget(32, p, 40, OrthMethod::Modified);
        let (cgs_it, cgs_msgs) = fixed_budget(32, p, 40, OrthMethod::ClassicalBatched);
        assert_eq!(mgs_it, cgs_it, "P={p}: fixed-budget runs must match");
        let per_it = |msgs: u64| msgs as f64 / mgs_it.max(1) as f64;
        assert!(
            per_it(cgs_msgs) < per_it(mgs_msgs),
            "P={p}: CGS {:.1} messages per iteration, MGS {:.1}",
            per_it(cgs_msgs),
            per_it(mgs_msgs)
        );
    }
}
