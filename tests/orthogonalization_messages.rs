//! What the fused all-reduce buys, in counts: on a fixed budget of
//! FGMRES(20) iterations (an unreachable tolerance, the identity
//! preconditioner) the batched classical Gram–Schmidt must run exactly as
//! many iterations as modified Gram–Schmidt and send strictly fewer messages
//! per iteration; and, being delayed re-orthogonalization (DCGS2), exactly
//! one all-reduce per Arnoldi step, plus one that completes each cycle's
//! last Hessenberg column and one per true residual norm. The `kernels` bin
//! reports the same two runs with their wall clocks at a larger shape; the
//! counts do not depend on the host, so they are checked here.

use parapre::dist::{
    scatter_vector, DistGmres, DistMatrix, DistOp, GmresConfig, IdentityDistPrecond, OrthMethod,
};
use parapre::fem::poisson;
use parapre::grid::structured::unit_square;
use parapre::mpisim::{Comm, CommStats, Universe};
use parapre::partition::partition_graph;
use std::cell::Cell;

/// The distributed matrix, counting the messages its products send.
struct Counting<'a> {
    a: &'a DistMatrix,
    msgs: Cell<u64>,
}

impl DistOp for Counting<'_> {
    fn n_owned(&self) -> usize {
        self.a.n_owned()
    }
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        let before = comm.stats().msgs_sent;
        self.a.apply(comm, x, y);
        self.msgs
            .set(self.msgs.get() + comm.stats().msgs_sent - before);
    }
}

/// What a fixed-budget solve cost, summed over the ranks.
struct Budget {
    iterations: usize,
    msgs: u64,
    /// Messages sent outside the operator's products: the all-reduces.
    reduce_msgs: u64,
}

/// `iters` FGMRES(20) iterations under `orth` on the `nx × nx` Poisson
/// matrix at `p` ranks.
fn fixed_budget(nx: usize, p: usize, iters: usize, orth: OrthMethod) -> Budget {
    let mesh = unit_square(nx, nx);
    let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
    let owner = partition_graph(&mesh.adjacency(), p, 11).owner;
    let b: Vec<f64> = (0..a.n_rows())
        .map(|i| 1.0 + (i as f64 * 0.13).cos())
        .collect();
    let out = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(&a, &owner, comm.rank(), p);
        let op = Counting {
            a: &dm,
            msgs: Cell::new(0),
        };
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
        let rep = solver.solve(comm, &op, &IdentityDistPrecond, &b_loc, &mut x);
        let msgs = CommStats::delta(&comm.stats(), &before).msgs_sent;
        (rep.iterations, msgs, msgs - op.msgs.get())
    });
    Budget {
        iterations: out[0].0,
        msgs: out.iter().map(|o| o.1).sum(),
        reduce_msgs: out.iter().map(|o| o.2).sum(),
    }
}

#[test]
fn batched_cgs_runs_the_budget_of_mgs_with_fewer_messages_per_iteration() {
    for p in [2, 8] {
        let mgs = fixed_budget(32, p, 40, OrthMethod::Modified);
        let cgs = fixed_budget(32, p, 40, OrthMethod::ClassicalBatched);
        let mgs_it = mgs.iterations;
        assert_eq!(
            mgs_it, cgs.iterations,
            "P={p}: fixed-budget runs must match"
        );
        let per_it = |msgs: u64| msgs as f64 / mgs_it.max(1) as f64;
        assert!(
            per_it(cgs.msgs) < per_it(mgs.msgs),
            "P={p}: CGS {:.1} messages per iteration, MGS {:.1}",
            per_it(cgs.msgs),
            per_it(mgs.msgs)
        );
    }
}

#[test]
fn delayed_cgs_sends_one_allreduce_per_step() {
    // What the batched step with a DGKS second pass sent on this budget.
    for (p, dgks_msgs) in [(2, 248), (8, 2_338)] {
        let cgs = fixed_budget(32, p, 40, OrthMethod::ClassicalBatched);
        assert_eq!(cgs.iterations, 40);
        // A binomial-tree all-reduce: `p − 1` messages up, `p − 1` down.
        let per_allreduce = 2 * (p as u64 - 1);
        assert_eq!(cgs.reduce_msgs % per_allreduce, 0, "P={p}");
        let allreduces = cgs.reduce_msgs / per_allreduce;
        // 40 steps; 2 cycles, each completing its last column; the opening
        // and the two closing residual norms.
        assert_eq!(allreduces, 40 + 2 + 3, "P={p}: all-reduces");
        assert!(
            cgs.msgs < dgks_msgs,
            "P={p}: {} messages, the DGKS step sent {dgks_msgs}",
            cgs.msgs
        );
    }
}
