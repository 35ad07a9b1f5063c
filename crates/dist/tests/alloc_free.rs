//! A distributed GMRES solve allocates before its first iteration and not
//! after: a solve three times as long costs no allocation more. And the
//! distribution step allocates nothing of global size. Pinned with a counting
//! global allocator, one count and one largest block per thread, so every
//! rank reads its own.

use parapre_dist::{scatter_vector, DistGmres, DistMatrix, GmresConfig, IdentityDistPrecond};
use parapre_mpisim::Universe;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest block (in bytes) this thread allocated or grew to.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread frees its last blocks after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(bytes)));
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; counting touches only a
// const-initialized thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one solve cost one rank.
#[derive(Debug, Clone, Copy)]
struct Cost {
    iterations: usize,
    allocs: u64,
    msgs_sent: u64,
}

/// Per rank, the cost of a 40-iteration and of a 120-iteration solve of the
/// same system (an unreachable tolerance, so both spend their whole budget),
/// after a warm-up solve has filled the message-buffer pools.
fn short_and_long_solve(p: usize) -> Vec<[Cost; 2]> {
    // The convergence ring and the wait clocks are the metrics layer's, and
    // the ring grows until it is full: not this test's subject.
    parapre_metrics::set_enabled(false);
    let (a, b, owner) = common::poisson_system(48, p);
    let ranks = Universe::try_run(p, |comm| {
        let dm = DistMatrix::from_global(&a, &owner, comm.rank(), p);
        let b_loc = scatter_vector(&dm.layout, &b);
        let mut x = vec![0.0; dm.layout.n_owned()];
        let mut solve = |max_iters: usize| {
            x.fill(0.0);
            let solver = DistGmres::new(GmresConfig {
                max_iters,
                rel_tol: 1e-30,
                ..GmresConfig::distributed()
            });
            let (allocs, msgs) = (ALLOCS.get(), comm.stats().msgs_sent);
            let rep = solver.solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
            Cost {
                iterations: rep.iterations,
                allocs: ALLOCS.get() - allocs,
                msgs_sent: comm.stats().msgs_sent - msgs,
            }
        };
        solve(120);
        [solve(40), solve(120)]
    });
    ranks
        .into_iter()
        .map(|r| r.expect("rank finished"))
        .collect()
}

#[test]
fn a_longer_solve_allocates_no_more() {
    let [short, long] = short_and_long_solve(1)[0];
    assert_eq!((short.iterations, long.iterations), (40, 120));
    assert!(short.allocs > 0, "the counter counts");
    assert_eq!(long.allocs, short.allocs);
}

#[test]
fn between_ranks_only_the_channels_allocate() {
    // std's channel allocates a block per 31 messages, on the sender. That is
    // the substrate's, and it is all: anything per iteration in the solver
    // would show as 80 allocations or more.
    for (rank, [short, long]) in short_and_long_solve(2).into_iter().enumerate() {
        assert_eq!((short.iterations, long.iterations), (40, 120));
        let more_msgs = long.msgs_sent - short.msgs_sent;
        assert!(more_msgs >= 160, "two messages an iteration at least");
        let more_allocs = long.allocs.saturating_sub(short.allocs);
        assert!(
            more_allocs <= more_msgs / 31 + 1,
            "rank {rank}: {more_allocs} more allocations for {more_msgs} more messages"
        );
    }
}

#[test]
fn distribution_allocates_no_block_of_global_size() {
    // TC1 at its Default size (201² nodes) on 8 ranks, every rank's share
    // built on this thread with no universe. A map of one `usize` per global
    // row is 8n bytes; a share's largest array, `a_loc`'s column indices
    // sized to its entries (about 35,000 at P = 8), stays below that.
    let p = 8;
    let (a, _, owner) = common::poisson_system(201, p);
    let n = a.n_rows();
    assert_eq!(n, 40_401);
    LARGEST.set(0);
    let owned: usize = (0..p)
        .map(|rank| {
            DistMatrix::from_global(&a, &owner, rank, p)
                .layout
                .n_owned()
        })
        .sum();
    let largest = LARGEST.get();
    assert_eq!(owned, n, "every row has one owner");
    assert!(largest < 8 * n, "a {largest} B block; 8n is {} B", 8 * n);
}
