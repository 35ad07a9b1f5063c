//! A halo message whose length disagrees with the receiver's ghost list is
//! refused in every build, naming both lengths: a pattern that is not
//! structurally symmetric gives a rank a send list shorter than its
//! neighbour's receive list, and zipping the short message into the ghosts
//! would leave stale values behind without a word.

use parapre_dist::DistMatrix;
use parapre_mpisim::Universe;
use parapre_sparse::Csr;

#[test]
fn a_short_halo_message_fails_the_matvec() {
    // Row 1 couples to node 2 but row 2 not back to node 1, so rank 1's send
    // plan to rank 0 holds node 3 only, while rank 0 expects nodes 2 and 3;
    // and rank 0 sends nodes 0 and 1, while rank 1 expects node 0 only.
    let a = Csr::from_dense_rows(&[
        vec![4.0, -1.0, 0.0, -1.0],
        vec![-1.0, 4.0, -1.0, 0.0],
        vec![0.0, 0.0, 4.0, -1.0],
        vec![-1.0, 0.0, -1.0, 4.0],
    ]);
    let owner = [0u32, 0, 1, 1];
    let ranks = Universe::try_run(2, |comm| {
        let dm = DistMatrix::from_global(&a, &owner, comm.rank(), 2);
        let mut x = vec![1.0; dm.layout.n_local()];
        let mut y = vec![0.0; dm.layout.n_owned()];
        dm.matvec(comm, &mut x, &mut y);
    });
    for (rank, (from, got, want)) in [(1, 1, 2), (0, 2, 1)].into_iter().enumerate() {
        let failure = ranks[rank]
            .as_ref()
            .expect_err("the message has the wrong length");
        let says =
            format!("rank {rank}: halo message from rank {from} has length {got}, expected {want}");
        assert!(failure.message.contains(&says), "{failure}");
    }
}
