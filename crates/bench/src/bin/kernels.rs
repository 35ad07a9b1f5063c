//! Hot-kernel microbenchmarks: the distributed SpMV (overlapped, pooled halo
//! exchange) and FGMRES(20) iterations (modified Gram–Schmidt vs
//! fused-allreduce classical Gram–Schmidt), both at `P` simulated ranks.
//!
//! ```text
//! cargo run --release -p parapre-bench --bin kernels -- \
//!     [--ranks 8] [--out BENCH_kernels.json]
//! ```
//!
//! Writes a JSON report with wall-clock seconds (max over ranks of each
//! timed region), per-iteration message counts, modeled communication
//! seconds under both machine profiles, and the overlap trace counters
//! (`halo.ready_after_interior` / `halo.wait_after_interior`).
//! The `sweep` section is the triangular-sweep ledger: per case, one
//! `LuFactors::solve_in_place` with the ILUT factors of rank 0's owned block
//! at `P = 2` against a dependency-free SpMV over the same entries timed in
//! the same run, and `LuFactors::solve_columns` — the sweep of the lock-step
//! block solve — over `k ∈ {1, 2, 4, 8}` right-hand sides: microseconds per
//! vector and the per-vector speed-up over one column. The `orth` section is
//! one delayed-re-orthogonalization (DCGS2) step of distributed GMRES without
//! its reduction, against the per-column `ops::dot` / `ops::axpy` loops and a
//! triad timed in the same run; the `fixed_effort` section is the per-call
//! time of the inner Schur iteration of `Schur 2` at `warm_schur`'s shape; the
//! `allreduce` section is what one scalar all-reduce costs two ranks, back
//! to back and with work between. The `mtx_parse` section is the upload's
//! parse: MB/s and ns per entry of `parse_matrix_market` on the body
//! `write_matrix_market` renders for each case, beside `str::from_utf8` over
//! the same bytes.

use parapre_core::{build_case_sized, partition_case, CaseId, PrecondKind, SchurPrecond};
use parapre_dist::{
    scatter_vector, DistGmres, DistMatrix, GmresConfig, IdentityDistPrecond, OrthMethod,
};
use parapre_engine::SessionConfig;
use parapre_fem::poisson;
use parapre_grid::structured::unit_square;
use parapre_krylov::proj::Panel;
use parapre_krylov::{Ilut, IlutConfig};
use parapre_mpisim::{CommStats, MachineModel, Universe};
use parapre_partition::partition_graph;
use parapre_sparse::io::{parse_matrix_market, write_matrix_market};
use parapre_sparse::{ops, Csr};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Timed {
    /// Max over ranks of the timed region's wall-clock seconds.
    secs: f64,
    /// Sum over ranks of the region's communication counters.
    comm: CommStats,
}

fn max_secs_sum_stats(out: Vec<(f64, CommStats)>) -> Timed {
    let secs = out.iter().map(|&(s, _)| s).fold(0.0, f64::max);
    let comm = out
        .iter()
        .fold(CommStats::default(), |acc, (_, c)| CommStats {
            msgs_sent: acc.msgs_sent + c.msgs_sent,
            bytes_sent: acc.bytes_sent + c.bytes_sent,
            msgs_recv: acc.msgs_recv + c.msgs_recv,
            bytes_recv: acc.bytes_recv + c.bytes_recv,
            wait_us: acc.wait_us + c.wait_us,
        });
    Timed { secs, comm }
}

fn poisson_system(nx: usize, p: usize) -> (Csr, Vec<u32>) {
    let mesh = unit_square(nx, nx);
    let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
    let part = partition_graph(&mesh.adjacency(), p, 11);
    (a, part.owner)
}

/// Times `reps` distributed matvecs per rank.
fn bench_spmv(a: &Csr, owner: &[u32], p: usize, reps: usize) -> Timed {
    let out = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
        let mut x = vec![0.0; dm.layout.n_local()];
        for (l, v) in x[..dm.layout.n_owned()].iter_mut().enumerate() {
            *v = (dm.layout.local_to_global[l] as f64 * 0.37).sin();
        }
        let mut y = vec![0.0; dm.layout.n_owned()];
        // Warm up channels and the buffer pool outside the timed region.
        for _ in 0..3 {
            dm.matvec(comm, &mut x, &mut y);
        }
        let before = comm.stats();
        let t0 = Instant::now();
        for _ in 0..reps {
            dm.matvec(comm, &mut x, &mut y);
        }
        let secs = t0.elapsed().as_secs_f64();
        (secs, CommStats::delta(&comm.stats(), &before))
    });
    max_secs_sum_stats(out)
}

/// Times a fixed-iteration FGMRES(20) run under the given orthogonalization.
/// Returns the timing plus the iteration count actually performed.
fn bench_gmres(a: &Csr, owner: &[u32], p: usize, iters: usize, orth: OrthMethod) -> (Timed, usize) {
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.13).cos()).collect();
    let out = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
        let b_loc = scatter_vector(&dm.layout, &b);
        let solver = DistGmres::new(GmresConfig {
            restart: 20,
            max_iters: iters,
            // Unreachable tolerance: both methods run the full budget so
            // the wall-clock comparison is iteration-for-iteration fair.
            rel_tol: 1e-30,
            abs_tol: 1e-300,
            orth,
            ..GmresConfig::distributed()
        });
        let mut x = vec![0.0; dm.layout.n_owned()];
        let before = comm.stats();
        let t0 = Instant::now();
        let rep = solver.solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
        let secs = t0.elapsed().as_secs_f64();
        let moved = CommStats::delta(&comm.stats(), &before);
        (secs, moved, rep.iterations)
    });
    let iters_done = out[0].2;
    let timed = max_secs_sum_stats(out.into_iter().map(|(s, c, _)| (s, c)).collect());
    (timed, iters_done)
}

/// One traced overlapped-SpMV pass collecting the halo overlap counters.
fn overlap_counters(a: &Csr, owner: &[u32], p: usize) -> (u64, u64) {
    let out = Universe::run(p, |comm| {
        let ((), tr) = parapre_metrics::recorded(comm.rank(), true, || {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let mut x = vec![0.1; dm.layout.n_local()];
            let mut y = vec![0.0; dm.layout.n_owned()];
            for _ in 0..10 {
                dm.matvec(comm, &mut x, &mut y);
            }
        });
        let counters = tr.expect("recorded").summary().counters;
        let total = |name: &str| counters.get(name).copied().unwrap_or(0);
        (
            total(parapre_metrics::names::HALO_READY),
            total(parapre_metrics::names::HALO_WAIT),
        )
    });
    out.iter()
        .fold((0, 0), |(r, w), &(ri, wi)| (r + ri, w + wi))
}

/// Median of timing samples (sorts them).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Column counts of the multi-column sweep rows.
const SWEEP_COLUMNS: [usize; 4] = [1, 2, 4, 8];

/// One row of the sweep ledger.
struct SweepCell {
    case: &'static str,
    n: usize,
    factor_nnz: usize,
    sweep_us: f64,
    /// Bytes one sweep touches, computed from the array sizes.
    bytes: usize,
    /// SpMV over `merged()` of the same factor, timed in the same run.
    spmv_us: f64,
    /// `LuFactors::solve_columns` over `k` right-hand sides, per vector,
    /// for each `k` of [`SWEEP_COLUMNS`].
    columns_us: [f64; 4],
}

impl SweepCell {
    fn gbs(&self) -> f64 {
        self.bytes as f64 / (self.sweep_us * 1e-6) / 1e9
    }

    fn ratio(&self) -> f64 {
        self.sweep_us / self.spmv_us
    }

    /// Per-vector speed-up of each column count over one column.
    fn columns_speedup(&self) -> [f64; 4] {
        self.columns_us.map(|us| self.columns_us[0] / us)
    }
}

/// The cases of the sweep and parse rows, with their grid extents.
const CASES: [(CaseId, usize); 3] = [(CaseId::Tc1, 201), (CaseId::Tc2, 25), (CaseId::Tc6, 61)];

/// `parse_matrix_market` on the body `write_matrix_market` renders for each
/// case's global matrix, samples alternating with `str::from_utf8` over the
/// same bytes: the floor of a parser that validates its input once. One JSON
/// row per case.
fn bench_mtx_parse() -> Vec<String> {
    let reps = 25;
    CASES
        .iter()
        .map(|&(id, extent)| {
            let a = build_case_sized(id, extent).sys.a;
            let mut body = Vec::new();
            write_matrix_market(&a, &mut body).expect("writing to memory");
            let (mut parse, mut utf8) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
            for _ in 0..reps {
                let t0 = Instant::now();
                black_box(std::str::from_utf8(black_box(&body)).expect("written as UTF-8"));
                utf8.push(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                black_box(parse_matrix_market(black_box(&body)).expect("own body parses"));
                parse.push(t0.elapsed().as_secs_f64());
            }
            let (parse, utf8) = (median(&mut parse), median(&mut utf8));
            let (bytes, entries, name) = (body.len(), a.nnz(), id.key());
            let mbs = bytes as f64 / parse / 1e6;
            let utf8_mbs = bytes as f64 / utf8 / 1e6;
            let ns = parse * 1e9 / entries as f64;
            eprintln!(
                "mtx_parse {name}: {entries} entries, {bytes} bytes in {:.1} ms: {mbs:.0} MB/s, {ns:.0} ns per entry (from_utf8 {utf8_mbs:.0} MB/s)",
                parse * 1e3
            );
            format!(
                "    {{\"case\": \"{name}\", \"bytes\": {bytes}, \"entries\": {entries}, \"mtx_parse_ms\": {:.2}, \"mtx_parse_mbs\": {mbs:.0}, \"ns_per_entry\": {ns:.1}, \"utf8_mbs\": {utf8_mbs:.0}}}",
                parse * 1e3
            )
        })
        .collect()
}

/// Times the forward + backward sweep of ILUT factors against the SpMV over
/// the same entries — the same loads and multiplies without the row-to-row
/// dependencies, so the ratio says what the dependencies and the kernel
/// cost. Samples alternate, so host drift hits both sides alike.
fn bench_sweeps() -> Vec<SweepCell> {
    let reps = 400;
    CASES
        .iter()
        .map(|&(id, extent)| {
            let name = id.key();
            let case = build_case_sized(id, extent);
            let owner = case.dof_owner(&partition_graph(&case.node_adjacency, 2, 11).owner);
            let block = DistMatrix::from_global(&case.sys.a, &owner, 0, 2).owned_block();
            let lu = Ilut::factor(&block, &IlutConfig::default()).expect("owned-block ILUT");
            let merged = lu.merged();
            let n = lu.dim();
            let mut x = vec![1.0; n];
            let mut y = vec![0.0; n];
            let (mut sweep, mut spmv) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
            for _ in 0..reps {
                x.fill(1.0);
                let t0 = Instant::now();
                lu.solve_in_place(black_box(&mut x));
                sweep.push(t0.elapsed().as_secs_f64() * 1e6);
                let t0 = Instant::now();
                merged.spmv(black_box(&x), &mut y);
                black_box(&mut y);
                spmv.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            // The lock-step block solve's sweep: k right-hand sides through
            // the factors at once, samples of every k alternating.
            let ones = vec![1.0; n];
            let mut cols = vec![vec![0.0; n]; 8];
            let mut samples = SWEEP_COLUMNS.map(|_| Vec::with_capacity(reps));
            for _ in 0..reps {
                for (&k, times) in SWEEP_COLUMNS.iter().zip(&mut samples) {
                    let bs = vec![&ones[..]; k];
                    let mut xs: Vec<&mut [f64]> = cols[..k].iter_mut().map(|c| &mut c[..]).collect();
                    let t0 = Instant::now();
                    lu.solve_columns(&bs, black_box(&mut xs));
                    times.push(t0.elapsed().as_secs_f64() * 1e6 / k as f64);
                }
            }
            // 12 bytes per off-diagonal entry (value + 32-bit column), 8 per
            // pivot reciprocal, 16 per row for the two row pointers, 16 per
            // `x` entry read and written.
            let cell = SweepCell {
                case: name,
                n,
                factor_nnz: lu.nnz(),
                sweep_us: median(&mut sweep),
                bytes: 12 * (lu.nnz() - n) + (8 + 16 + 16) * n,
                spmv_us: median(&mut spmv),
                columns_us: samples.map(|mut t| median(&mut t)),
            };
            eprintln!(
                "sweep {name}: n={n} nnz={} {:.0} us ({:.2} GB/s computed), spmv of the same entries {:.0} us, sweep/spmv {:.2}",
                cell.factor_nnz,
                cell.sweep_us,
                cell.gbs(),
                cell.spmv_us,
                cell.ratio()
            );
            eprintln!(
                "sweep {name} over k = {SWEEP_COLUMNS:?} columns: {:.1?} us per vector, {:.2?}x one column",
                cell.columns_us,
                cell.columns_speedup()
            );
            cell
        })
        .collect()
}

/// The `orth` ledger row.
struct OrthRow {
    n: usize,
    /// Mean over k = 1…20 basis vectors of one step's median time.
    step_us: f64,
    /// The same step through per-column `ops::dot` / `ops::axpy`.
    reference_us: f64,
    /// Mean over k of the bytes one step has to move.
    bytes: f64,
    /// A triad over three arrays the size of a third of the basis.
    triad_gbs: f64,
}

impl OrthRow {
    fn gbs(&self) -> f64 {
        self.bytes / (self.step_us * 1e-6) / 1e9
    }

    fn ratio(&self) -> f64 {
        self.step_us / self.reference_us
    }
}

/// One Gram–Schmidt step of distributed GMRES, the reduction left out: the
/// inner products of the previous vector (column `k`) and the new one
/// (column `k + 1`) against the `k` finished basis vectors and the previous
/// vector, then the pass that finishes the one and projects the other.
fn orth_step(panel: &mut Panel, k: usize, sums: &mut [f64]) {
    let (vs, w) = panel.split(k + 1);
    vs.dots2(vs.col(k), w, sums);
    let (vs, v, w) = panel.split2(k);
    vs.sub2(&sums[..k], v, &sums[k + 1..2 * k + 2], w, 1.5);
}

/// The same step written as loops: one `ops::dot` per pair of vectors, one
/// `ops::axpy` per basis vector and vector, then the two divisions.
fn orth_step_per_column(basis: &[Vec<f64>], v: &mut [f64], w: &mut [f64], sums: &mut [f64]) {
    let k = basis.len();
    for (s, q) in sums.iter_mut().zip(basis) {
        *s = ops::dot(v, q);
    }
    sums[k] = ops::dot(v, v);
    for (s, q) in sums[k + 1..].iter_mut().zip(basis) {
        *s = ops::dot(w, q);
    }
    sums[2 * k + 1] = ops::dot(w, v);
    sums[2 * k + 2] = ops::dot(w, w);
    for (&s, q) in sums.iter().zip(basis) {
        ops::axpy(-s, q, v);
    }
    v.iter_mut().for_each(|x| *x /= 1.5);
    for (&s, q) in sums[k + 1..].iter().zip(basis) {
        ops::axpy(-s, q, w);
    }
    ops::axpy(-sums[2 * k + 1], v, w);
    w.iter_mut().for_each(|x| *x /= 1.5);
}

/// Times the Gram–Schmidt step at the vector length of `warm_krylov`'s
/// ranks, blocked against per-column, samples alternating. The bytes of a
/// step with `k` finished basis vectors: the inner products read the basis,
/// the previous vector and the new one (`k + 2` vectors); the second pass
/// reads the basis and reads and writes both vectors (`k + 4`).
fn bench_orth() -> OrthRow {
    let (n, reps) = (20_200, 120);
    let k_max = 20;
    let fill = |j: usize, col: &mut [f64]| {
        for (i, v) in col.iter_mut().enumerate() {
            *v = ((i * (j + 2)) as f64 * 0.11).cos() * 1e-2;
        }
    };
    let mut panel = Panel::zeros(n, k_max + 2);
    let mut columns: Vec<Vec<f64>> = vec![vec![0.0; n]; k_max + 2];
    for (j, column) in columns.iter_mut().enumerate() {
        fill(j, panel.col_mut(j));
        fill(j, column);
    }
    let (mut step_us, mut reference_us, mut bytes) = (0.0, 0.0, 0.0);
    for k in 1..=k_max {
        let (mut blocked, mut per_column) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        let mut sums = vec![0.0; 2 * k + 3];
        for _ in 0..reps {
            fill(k, panel.col_mut(k));
            fill(k + 1, panel.col_mut(k + 1));
            let t0 = Instant::now();
            orth_step(black_box(&mut panel), k, &mut sums);
            blocked.push(t0.elapsed().as_secs_f64() * 1e6);
            let (basis, rest) = columns.split_at_mut(k);
            let (v, w) = rest.split_at_mut(1);
            fill(k, &mut v[0]);
            fill(k + 1, &mut w[0]);
            let t0 = Instant::now();
            orth_step_per_column(black_box(basis), &mut v[0], &mut w[0], &mut sums);
            black_box(&mut w[0]);
            per_column.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        step_us += median(&mut blocked) / k_max as f64;
        reference_us += median(&mut per_column) / k_max as f64;
        bytes += (8 * n * (2 * k + 6)) as f64 / k_max as f64;
    }
    // Triad at the footprint of the basis: three arrays, a third of it each.
    let len = n * (k_max + 2) / 3;
    let (mut a, b, c) = (vec![0.0; len], vec![1.0; len], vec![2.0; len]);
    let mut triad = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + 0.5 * ci;
        }
        black_box(&mut a);
        triad.push(t0.elapsed().as_secs_f64());
    }
    let row = OrthRow {
        n,
        step_us,
        reference_us,
        bytes,
        triad_gbs: (24 * len) as f64 / median(&mut triad) / 1e9,
    };
    eprintln!(
        "orth: n={n} k=1..{k_max} {:.1} us/step ({:.2} GB/s computed, triad {:.2} GB/s), per column {:.1} us, blocked/per-column {:.2}",
        row.step_us,
        row.gbs(),
        row.triad_gbs,
        row.reference_us,
        row.ratio()
    );
    row
}

/// The `fixed_effort` ledger row: the Schur iteration of one `Schur 2` apply
/// at `warm_schur`'s shape.
struct FixedEffortRow {
    /// Size of the Schur system on each rank.
    schur_dims: Vec<usize>,
    steps: usize,
    calls: usize,
    /// Max over ranks of the median microseconds of one call.
    median_us: f64,
    /// Messages one call sends, summed over the ranks.
    msgs_per_call: u64,
}

/// Times [`SchurPrecond::schur_solve`] — `DistGmres::fixed_effort` on the
/// level-0 Schur system, preconditioned by its local ILU(0) — call by call
/// on TC6 61 · `Schur 2` at `P = 2`, partitioned and configured as the
/// session of `warm_schur` is.
fn bench_fixed_effort() -> FixedEffortRow {
    let (p, calls, warm_up) = (2, 10_000, 200);
    let case = build_case_sized(CaseId::Tc6, 61);
    let cfg = SessionConfig::paper(PrecondKind::Schur2, p);
    let part = partition_case(&case, cfg.scheme, p, cfg.partition_seed);
    let owner = case.dof_owner(&part.owner);
    let out = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(&case.sys.a, &owner, comm.rank(), p);
        let m = SchurPrecond::build(PrecondKind::Schur2, &dm, comm, &cfg.params)
            .expect("TC6 Schur 2 builds");
        let n = m.schur_dim();
        let g: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let mut z = vec![0.0; n];
        for _ in 0..warm_up {
            m.schur_solve(comm, &g, &mut z);
        }
        let before = comm.stats().msgs_sent;
        let mut samples = Vec::with_capacity(calls);
        for _ in 0..calls {
            let t0 = Instant::now();
            m.schur_solve(comm, black_box(&g), &mut z);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        black_box(&z);
        (n, median(&mut samples), comm.stats().msgs_sent - before)
    });
    let row = FixedEffortRow {
        schur_dims: out.iter().map(|o| o.0).collect(),
        steps: cfg.params.schur2.schur_iters,
        calls,
        median_us: out.iter().map(|o| o.1).fold(0.0, f64::max),
        msgs_per_call: out.iter().map(|o| o.2).sum::<u64>() / calls as u64,
    };
    eprintln!(
        "fixed_effort: TC6 61 Schur 2 P={p} k={} schur dims {:?}: {:.1} us per call (median of {calls}, max over ranks), {} msgs per call",
        row.steps, row.schur_dims, row.median_us, row.msgs_per_call
    );
    row
}

/// A Gram–Schmidt step may cost at most this share of the per-column loops.
const ORTH_OVER_PER_COLUMN_BAR: f64 = 0.7;

/// Work between two reductions of the `allreduce` row's second cell: about
/// what a rank of `warm_schur` computes between two of its own.
const ALLREDUCE_WORK: Duration = Duration::from_micros(75);

/// With that work between, a scalar all-reduce at `P = 2` may cost at most
/// this many microseconds.
const ALLREDUCE_US_BAR: f64 = 8.0;

/// Universes the `allreduce` row launches; it reports the best of them.
const ALLREDUCE_LAUNCHES: usize = 5;

/// Mean microseconds of one scalar all-reduce at `P = 2` (max over ranks),
/// back to back and with [`ALLREDUCE_WORK`] of spinning before each: the
/// best of [`ALLREDUCE_LAUNCHES`] universes. The scheduler now and then
/// starts both ranks of a universe on one core, and until a parked receive
/// lets it move one they take turns (E19): a launch that begins so reads
/// several microseconds higher, which is not what this row is about.
fn bench_allreduce() -> (f64, f64) {
    let reps: u64 = 2000;
    let launch = || {
        let out = Universe::run(2, |comm| {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += comm.allreduce_sum(1.0, 2 * i);
            }
            let t0 = Instant::now();
            for i in 0..reps {
                acc += comm.allreduce_sum(1.0, 1_000 + 2 * i);
            }
            let back_to_back = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
            let mut reducing = Duration::ZERO;
            for i in 0..reps {
                let work = Instant::now();
                while work.elapsed() < ALLREDUCE_WORK {
                    std::hint::spin_loop();
                }
                let t0 = Instant::now();
                acc += comm.allreduce_sum(1.0, 1_000_000 + 2 * i);
                reducing += t0.elapsed();
            }
            black_box(acc);
            (back_to_back, reducing.as_secs_f64() * 1e6 / reps as f64)
        });
        let max = |f: fn(&(f64, f64)) -> f64| out.iter().map(f).fold(0.0, f64::max);
        (max(|o| o.0), max(|o| o.1))
    };
    let (mut back_to_back, mut with_work) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ALLREDUCE_LAUNCHES {
        let (b, w) = launch();
        eprintln!("allreduce P=2 launch: {b:.2} us back to back, {w:.2} us with work between");
        back_to_back = back_to_back.min(b);
        with_work = with_work.min(w);
    }
    eprintln!(
        "allreduce P=2: {back_to_back:.2} us back to back, {with_work:.2} us with {} us of work between (best of {ALLREDUCE_LAUNCHES} launches)",
        ALLREDUCE_WORK.as_micros()
    );
    (back_to_back, with_work)
}

/// A sweep may cost at most this many SpMVs over the same entries.
const SWEEP_OVER_SPMV_BAR: f64 = 1.25;

fn modeled(stats: &CommStats) -> String {
    let cluster = stats.modeled_comm_seconds(&MachineModel::linux_cluster());
    let origin = stats.modeled_comm_seconds(&MachineModel::origin_3800());
    format!("{{\"linux_cluster\": {cluster:.6}, \"origin_3800\": {origin:.6}}}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ranks = 8usize;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ranks" => {
                i += 1;
                ranks = args[i].parse().expect("rank count");
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    let (spmv_nx, spmv_reps, gmres_nx, gmres_iters) = (96usize, 600usize, 48usize, 200usize);

    eprintln!("kernels: P={ranks}, spmv {spmv_nx}x{spmv_nx} x{spmv_reps}, gmres {gmres_nx}x{gmres_nx} x{gmres_iters} iters");

    // First, while the launching thread has no load history: after seconds
    // of kernels on it the scheduler starts both ranks on the *other* core
    // nearly every time.
    let (allreduce_us, allreduce_work_us) = bench_allreduce();

    let (a_spmv, owner_spmv) = poisson_system(spmv_nx, ranks);
    let over = bench_spmv(&a_spmv, &owner_spmv, ranks, spmv_reps);
    let (ready, wait) = overlap_counters(&a_spmv, &owner_spmv, ranks);
    eprintln!(
        "spmv: overlap {:.4}s, halo ready/wait after interior: {ready}/{wait}",
        over.secs
    );

    let (a_g, owner_g) = poisson_system(gmres_nx, ranks);
    let (mgs, mgs_iters) = bench_gmres(&a_g, &owner_g, ranks, gmres_iters, OrthMethod::Modified);
    let (cgs, cgs_iters) = bench_gmres(
        &a_g,
        &owner_g,
        ranks,
        gmres_iters,
        OrthMethod::ClassicalBatched,
    );
    let gmres_speedup = mgs.secs / cgs.secs;
    let mgs_mpi = mgs.comm.msgs_sent as f64 / mgs_iters.max(1) as f64;
    let cgs_mpi = cgs.comm.msgs_sent as f64 / cgs_iters.max(1) as f64;
    eprintln!(
        "gmres(20): mgs {:.4}s ({mgs_iters} it, {mgs_mpi:.1} msgs/it), cgs {:.4}s ({cgs_iters} it, {cgs_mpi:.1} msgs/it) => {gmres_speedup:.2}x",
        mgs.secs, cgs.secs
    );

    // The sweep bar compares two kernels on one thread.
    let sweep_arm = parapre_bench::ScalingArm::decide("sweep vs SpMV", 1);
    let sweeps = bench_sweeps();
    let sweep_json: String = sweeps
        .iter()
        .map(|c| {
            format!(
                "    {{\"case\": \"{}\", \"n\": {}, \"factor_nnz\": {}, \"sweep_us\": {:.1}, \"computed_bytes\": {}, \"computed_gbs\": {:.2}, \"spmv_same_entries_us\": {:.1}, \"sweep_over_spmv\": {:.3}, \"columns\": {:?}, \"columns_us_per_vector\": [{}], \"columns_speedup\": [{}]}}",
                c.case, c.n, c.factor_nnz, c.sweep_us, c.bytes, c.gbs(), c.spmv_us, c.ratio(),
                SWEEP_COLUMNS,
                c.columns_us.map(|us| format!("{us:.1}")).join(", "),
                c.columns_speedup().map(|x| format!("{x:.2}")).join(", "),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // Both bars below compare or bound wall clocks of cache-resident loops;
    // the all-reduce needs a core per rank.
    let orth_arm = parapre_bench::ScalingArm::decide("blocked vs per-column", 1);
    let allreduce_arm = parapre_bench::ScalingArm::decide("allreduce, P=2", 2);
    let orth = bench_orth();
    let fixed = bench_fixed_effort();
    let parse_json = bench_mtx_parse().join(",\n");

    let json = format!(
        concat!(
            "{{\n",
            "  \"config\": {{\"ranks\": {ranks}, ",
            "\"spmv_grid\": {spmv_nx}, \"spmv_reps\": {spmv_reps}, ",
            "\"gmres_grid\": {gmres_nx}, \"gmres_iters\": {gmres_iters}}},\n",
            "  \"spmv\": {{\"overlap_secs\": {os:.6}, \"msgs_overlap\": {om}, ",
            "\"halo_ready_after_interior\": {ready}, \"halo_wait_after_interior\": {wait}, ",
            "\"modeled_comm_secs_overlap\": {mco}}},\n",
            "  \"gmres\": {{\"mgs_secs\": {ms:.6}, \"cgs_secs\": {cs:.6}, ",
            "\"speedup\": {gs:.4}, \"iters\": {it}, ",
            "\"mgs_msgs_per_iter\": {mmpi:.2}, \"cgs_msgs_per_iter\": {cmpi:.2}, ",
            "\"modeled_comm_secs_mgs\": {mcm}, \"modeled_comm_secs_cgs\": {mcc}}},\n",
            "  \"available_cores\": {cores},\n",
            "  \"sweep\": {{\"factors\": \"ILUT of rank 0's owned block at P=2\", ",
            "\"bytes\": \"computed from array sizes, not measured\", ",
            "\"bar\": {{\"sweep_over_spmv_max\": {sweep_bar}, \"arm\": {sweep_arm_json}}}, ",
            "\"cases\": [\n{sweep_cases}\n  ]}},\n",
            "  \"orth\": {{\"step\": \"DCGS2: dots2 (previous and new vector against the basis), ",
            "sub2 (finish the previous, project the new); no reductions; mean over k = 1..20 basis ",
            "vectors\", \"n\": {orth_n}, \"step_us\": {orth_us:.1}, ",
            "\"computed_bytes\": {orth_bytes:.0}, \"computed_gbs\": {orth_gbs:.2}, ",
            "\"triad_gbs\": {orth_triad:.2}, \"over_triad\": {orth_over_triad:.3}, ",
            "\"per_column_us\": {orth_ref:.1}, \"over_per_column\": {orth_ratio:.3}, ",
            "\"bar\": {{\"over_per_column_max\": {orth_bar}, \"arm\": {orth_arm_json}}}}},\n",
            "  \"fixed_effort\": {{\"cell\": \"TC6 61 Schur 2, level-0 Schur system, ILU(0) local solve\", ",
            "\"ranks\": 2, \"schur_dims\": {fe_dims:?}, \"steps\": {fe_steps}, \"calls\": {fe_calls}, ",
            "\"median_us\": {fe_us:.1}, \"msgs_per_call\": {fe_msgs}, ",
            "\"allocs\": \"counted by crates/core/tests/schur_solve_allocs.rs\"}},\n",
            "  \"allreduce\": {{\"ranks\": 2, \"best_of_launches\": {ar_launches}, \"back_to_back_us\": {ar_us:.2}, ",
            "\"work_between_us\": {ar_work}, \"with_work_us\": {ar_work_us:.2}, ",
            "\"bar\": {{\"with_work_us_max\": {ar_bar}, \"arm\": {ar_arm_json}}}}},\n",
            "  \"mtx_parse\": {{\"body\": \"write_matrix_market of the case's global matrix\", ",
            "\"cases\": [\n{parse_cases}\n  ]}}\n",
            "}}\n"
        ),
        cores = sweep_arm.available_cores,
        sweep_bar = SWEEP_OVER_SPMV_BAR,
        sweep_arm_json = sweep_arm.to_json(),
        sweep_cases = sweep_json,
        orth_n = orth.n,
        orth_us = orth.step_us,
        orth_bytes = orth.bytes,
        orth_gbs = orth.gbs(),
        orth_triad = orth.triad_gbs,
        orth_over_triad = orth.gbs() / orth.triad_gbs,
        orth_ref = orth.reference_us,
        orth_ratio = orth.ratio(),
        orth_bar = ORTH_OVER_PER_COLUMN_BAR,
        orth_arm_json = orth_arm.to_json(),
        fe_dims = fixed.schur_dims,
        fe_steps = fixed.steps,
        fe_calls = fixed.calls,
        fe_us = fixed.median_us,
        fe_msgs = fixed.msgs_per_call,
        ar_launches = ALLREDUCE_LAUNCHES,
        ar_us = allreduce_us,
        ar_work = ALLREDUCE_WORK.as_micros(),
        ar_work_us = allreduce_work_us,
        ar_bar = ALLREDUCE_US_BAR,
        ar_arm_json = allreduce_arm.to_json(),
        parse_cases = parse_json,
        ranks = ranks,
        spmv_nx = spmv_nx,
        spmv_reps = spmv_reps,
        gmres_nx = gmres_nx,
        gmres_iters = gmres_iters,
        os = over.secs,
        om = over.comm.msgs_sent,
        ready = ready,
        wait = wait,
        mco = modeled(&over.comm),
        ms = mgs.secs,
        cs = cgs.secs,
        gs = gmres_speedup,
        it = mgs_iters,
        mmpi = mgs_mpi,
        cmpi = cgs_mpi,
        mcm = modeled(&mgs.comm),
        mcc = modeled(&cgs.comm),
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    // Regression bar: the fused orthogonalization must send strictly fewer
    // messages per iteration (the tier-1 `tests/orthogonalization_messages.rs`
    // checks the same two counts at P = 2 and 8 on a 32² grid).
    assert_eq!(mgs_iters, cgs_iters, "fixed-budget runs must match");
    if cgs_mpi >= mgs_mpi {
        eprintln!("FAIL: CGS did not reduce per-iteration message count");
        std::process::exit(2);
    }
    // Sweep bar: a sweep reads what an SpMV over the same entries reads, so
    // it may cost at most a quarter more.
    for c in &sweeps {
        eprintln!(
            "bar sweep {}: {:.2}x an SpMV over the same entries",
            c.case,
            c.ratio()
        );
    }
    if sweep_arm.armed {
        if let Some(c) = sweeps.iter().find(|c| c.ratio() > SWEEP_OVER_SPMV_BAR) {
            eprintln!(
                "FAIL: {} sweep {:.2}x its SpMV, above {SWEEP_OVER_SPMV_BAR}x",
                c.case,
                c.ratio()
            );
            std::process::exit(2);
        }
    } else {
        eprintln!("sweep bar skipped: {}", sweep_arm.reason);
    }
    eprintln!(
        "bar orth: {:.2}x the per-column loops, {:.2}x triad",
        orth.ratio(),
        orth.gbs() / orth.triad_gbs
    );
    if !orth_arm.armed {
        eprintln!("orth bar skipped: {}", orth_arm.reason);
    } else if orth.ratio() > ORTH_OVER_PER_COLUMN_BAR {
        eprintln!(
            "FAIL: Gram-Schmidt step {:.2}x the per-column loops, above {ORTH_OVER_PER_COLUMN_BAR}x",
            orth.ratio()
        );
        std::process::exit(2);
    }
    eprintln!(
        "bar allreduce: {allreduce_work_us:.2} us with work between, {allreduce_us:.2} us back to back"
    );
    if !allreduce_arm.armed {
        eprintln!("allreduce bar skipped: {}", allreduce_arm.reason);
    } else if allreduce_work_us > ALLREDUCE_US_BAR {
        eprintln!(
            "FAIL: all-reduce {allreduce_work_us:.2} us with work between, above {ALLREDUCE_US_BAR} us"
        );
        std::process::exit(2);
    }
}
