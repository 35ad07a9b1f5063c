//! What a built session keeps: every byte is one a solve reads. A
//! `DistMatrix` holds its local rows once (`a_loc`, no second copy for the
//! overlapped matvec) and its layout arrays, all sized to their entries; and
//! the live bytes of a cached session, per paper rung on TC1 and TC6 at
//! P = 2, are pinned from above, so they can only fall. Counted with a
//! global allocator that tracks live bytes; allocation sizes are
//! deterministic, so the readings do not depend on the host.

use parapre::core::{build_case_sized, partition_case, CaseId, PartitionScheme, PrecondKind};
use parapre::dist::DistMatrix;
use parapre::engine::{SessionConfig, SolverSession};
use parapre::mpisim::MachineModel;
use parapre::sparse::Csr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The readings are process-wide: one test measures at a time.
static MEASURING: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is handed to `System` unchanged; counting touches only
// an atomic, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The value `make` returns and the heap bytes it still holds.
fn kept_bytes<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    let value = make();
    (value, (LIVE.load(Ordering::SeqCst) - before) as usize)
}

fn slice_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

fn csr_bytes(a: &Csr) -> usize {
    slice_bytes(a.row_ptr()) + slice_bytes(a.col_idx()) + slice_bytes(a.vals())
}

/// TC1 (65² grid) and TC6 (21) with their P = 2 owner maps.
fn cases() -> Vec<(&'static str, parapre::core::AssembledCase, Vec<u32>)> {
    let seed = MachineModel::linux_cluster().partition_seed;
    [("tc1", CaseId::Tc1, 65), ("tc6", CaseId::Tc6, 21)]
        .into_iter()
        .map(|(name, id, n)| {
            let case = build_case_sized(id, n);
            let part = partition_case(&case, PartitionScheme::General, 2, seed);
            let owner = case.dof_owner(&part.owner);
            (name, case, owner)
        })
        .collect()
}

#[test]
fn a_dist_matrix_holds_its_rows_once_without_slack() {
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    for (name, case, owner) in cases() {
        for rank in 0..2 {
            let (dm, kept) = kept_bytes(|| DistMatrix::from_global(&case.sys.a, &owner, rank, 2));
            let lay = &dm.layout;
            let lists =
                |l: &[Vec<usize>]| slice_bytes(l) + l.iter().map(|v| slice_bytes(v)).sum::<usize>();
            let want = csr_bytes(&dm.a_loc)
                + slice_bytes(&lay.local_to_global)
                + slice_bytes(&lay.neighbors)
                + lists(&lay.send_idx)
                + lists(&lay.recv_idx);
            assert_eq!(
                kept, want,
                "{name} rank {rank}: held bytes against a_loc + layout"
            );
        }
    }
}

/// Live bytes of a built session (its rank states, the global matrix and
/// owner map it keeps), at most: the reading of the comment plus 1 %,
/// rounded up to the kB.
const SESSION_BYTES_MAX: [(&str, &str, usize); 10] = [
    ("tc1", "block1", 1_499_000),  // 1_483_624
    ("tc1", "block2", 2_539_000),  // 2_513_692
    ("tc1", "schur1", 3_135_000),  // 3_103_172
    ("tc1", "schur2", 3_400_000),  // 3_366_244
    ("tc1", "schurml", 4_017_000), // 3_977_176
    ("tc6", "block1", 563_000),    // 556_712
    ("tc6", "block2", 855_000),    // 845_876
    ("tc6", "schur1", 1_083_000),  // 1_071_424
    ("tc6", "schur2", 1_237_000),  // 1_224_268
    ("tc6", "schurml", 1_530_000), // 1_514_436
];

#[test]
fn a_session_keeps_a_pinned_number_of_bytes() {
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    parapre::metrics::set_enabled(false);
    let kinds = [
        ("block1", PrecondKind::Block1),
        ("block2", PrecondKind::Block2),
        ("schur1", PrecondKind::Schur1),
        ("schur2", PrecondKind::Schur2),
        ("schurml", PrecondKind::schurml_default()),
    ];
    let mut table = Vec::new();
    for (name, case, owner) in cases() {
        for &(key, kind) in &kinds {
            let cfg = SessionConfig::paper(kind, 2);
            let build = || SolverSession::build(&case.sys.a, &owner, &cfg).expect("builds");
            // Whatever the first build of a process initializes for good
            // (metric registries, thread-local pools) is not the session's.
            drop(build());
            let (session, kept) = kept_bytes(build);
            assert_eq!(
                session.active_precond(),
                kind,
                "{name} {key} built on its rung"
            );
            table.push((name, key, kept));
        }
    }
    for line in &table {
        eprintln!("    {line:?},");
    }
    for (&(name, key, kept), &(pname, pkey, max)) in table.iter().zip(&SESSION_BYTES_MAX) {
        assert_eq!((name, key), (pname, pkey));
        assert!(
            kept <= max,
            "{name} {key}: {kept} B kept, at most {max} B pinned"
        );
    }
}
