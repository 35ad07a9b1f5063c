//! What one Schur iteration allocates: `SchurPrecond::schur_solve` — the
//! `DistGmres::fixed_effort` call inside every `Schur 2` apply — on
//! `warm_schur`'s inner system (TC6 61 · `Schur 2`, level-0 Schur system,
//! P = 2, k = 5), counted per call with a counting global allocator, one
//! count per thread so every rank reads its own. The count is the sizing of
//! a Schur apply that allocates nothing; today it is pinned from above, so it
//! can only fall. The per-call time is the `fixed_effort` row of the
//! `kernels` bin.

use parapre_core::{
    build_case_sized, partition_case, CaseId, PartitionScheme, PrecondKind, PrecondParams,
    SchurPrecond,
};
use parapre_dist::DistMatrix;
use parapre_mpisim::{MachineModel, Universe};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread frees its last blocks after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; counting touches only a
// const-initialized thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations a rank makes per Schur iteration, at most: 36 measured, made
/// of the driver's per-call state (the basis and direction panels, the
/// least-squares recurrence, the sums) and the Schur product's temporaries,
/// plus std's channel blocks (one per 31 messages on the sender, ≈ 0.4 a
/// call here).
const ALLOCS_PER_CALL_MAX: f64 = 37.0;

#[test]
fn a_schur_iteration_allocates_a_bounded_count() {
    parapre_metrics::set_enabled(false);
    let p = 2;
    let case = build_case_sized(CaseId::Tc6, 61);
    let seed = MachineModel::linux_cluster().partition_seed;
    let part = partition_case(&case, PartitionScheme::General, p, seed);
    let owner = case.dof_owner(&part.owner);
    let calls = 200;
    let per_rank = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(&case.sys.a, &owner, comm.rank(), p);
        let m = SchurPrecond::build(PrecondKind::Schur2, &dm, comm, &PrecondParams::default())
            .expect("TC6 Schur 2 builds");
        let n = m.schur_dim();
        assert!(n > 0, "the cell runs the Schur iteration");
        let g: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let mut z = vec![0.0; n];
        for _ in 0..20 {
            m.schur_solve(comm, &g, &mut z);
        }
        let before = ALLOCS.get();
        for _ in 0..calls {
            m.schur_solve(comm, &g, &mut z);
        }
        (ALLOCS.get() - before) as f64 / calls as f64
    });
    for (rank, &per_call) in per_rank.iter().enumerate() {
        eprintln!("rank {rank}: {per_call:.2} allocations per Schur iteration");
        assert!(per_call > 0.0, "the counter counts");
        assert!(
            per_call <= ALLOCS_PER_CALL_MAX,
            "rank {rank}: {per_call:.2} allocations per call"
        );
    }
}
