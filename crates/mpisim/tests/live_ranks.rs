//! The process-wide live-rank count and the polling it gates. One test, in a
//! binary of its own: the count is global, so any other universe running in
//! the same process would move it under the assertions.

use parapre_mpisim::{live_ranks, Universe};
use std::sync::Barrier;

/// `comm.recv_poll` counts of a universe in which every rank is alive from
/// before the first receive until after the last.
fn polls_with_all_ranks_alive(p: usize) -> Vec<u64> {
    let gate = Barrier::new(p);
    Universe::run(p, |c| {
        gate.wait();
        parapre_metrics::install(c.rank());
        for i in 0..100u64 {
            c.barrier(2 * i);
        }
        let counters = parapre_metrics::take()
            .expect("installed")
            .summary()
            .counters;
        gate.wait();
        counters
            .get(parapre_metrics::names::RECV_POLL)
            .copied()
            .unwrap_or(0)
    })
}

#[test]
fn live_rank_count_follows_rank_threads_and_gates_polling() {
    assert_eq!(live_ranks(), 0);
    let seen = Universe::run(3, |_| live_ranks());
    assert!(seen.iter().all(|&n| (1..=3).contains(&n)), "{seen:?}");
    assert_eq!(live_ranks(), 0);

    // A rank that panics is counted out like one that returns.
    let out = Universe::try_run(3, |c| {
        if c.rank() == 1 {
            panic!("boom");
        }
    });
    assert!(out[1].is_err());
    assert_eq!(live_ranks(), 0);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One rank more than there are cores: nobody polls.
    let starved = polls_with_all_ranks_alive(cores + 1);
    assert!(starved.iter().all(|&n| n == 0), "{starved:?}");
    // A core each: every blocked receive polls first.
    if cores >= 2 {
        let fed = polls_with_all_ranks_alive(2);
        assert!(fed.iter().all(|&n| n > 0), "{fed:?}");
    }
}
