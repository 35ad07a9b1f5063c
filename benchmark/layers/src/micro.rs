//! Single calls into one crate each, timed in isolation.

use crate::system::System;
use crate::waterfall::RankBuilt;
use parapre_bench_e2e::stats::median;
use parapre_bench_e2e::workloads::RANKS;
use parapre_engine::{parse_job_line, JobResult, SessionCache, SessionKey, SolverSession};
use parapre_krylov::{Arms, ArmsConfig, FGmres, GmresConfig, Ilu0, Ilut};
use parapre_mpisim::Universe;
use parapre_sparse::Csr;
use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median seconds of `f` over at least `min_reps` calls and about `budget`.
pub fn median_secs(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed() < budget {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Bytes one CSR SpMV touches, computed from the array sizes (not
/// measured): per nonzero a value and a column index, per row a row
/// pointer, an `x` entry and a `y` entry.
pub fn spmv_bytes(a: &Csr) -> usize {
    a.nnz() * 16 + a.n_rows() * 24
}

/// `(seconds per SpMV, computed GB/s)` of the sequential kernel.
pub fn spmv(a: &Csr) -> (f64, f64) {
    let x = vec![1.0; a.n_cols()];
    let mut y = vec![0.0; a.n_rows()];
    let secs = median_secs(20, Duration::from_millis(300), || {
        a.spmv(black_box(&x), &mut y);
        black_box(&mut y);
    });
    (secs, spmv_bytes(a) as f64 / secs / 1e9)
}

pub struct SparseIo {
    pub mtx_parse_ms: f64,
    pub fingerprint_ms: f64,
}

/// Parsing the Matrix Market text a `put` carries, and fingerprinting the
/// result: what netd does before a job can name the matrix.
pub fn sparse_io(sys: &System) -> SparseIo {
    let v = sys.own.base_variant();
    let mut text = v.head;
    text.extend_from_slice(sys.own.offdiag_text());
    text.extend_from_slice(&v.tail);
    let parse = median_secs(3, Duration::from_millis(400), || {
        let a = parapre_sparse::io::read_matrix_market(BufReader::new(&text[..]))
            .expect("the benchmark's own Matrix Market text parses");
        black_box(a);
    });
    let fp = median_secs(5, Duration::from_millis(100), || {
        black_box(sys.a.fingerprint());
    });
    SparseIo {
        mtx_parse_ms: parse * 1e3,
        fingerprint_ms: fp * 1e3,
    }
}

pub struct Factorizations {
    pub ilu0_ms: f64,
    pub ilut_ms: f64,
    pub arms_ms: f64,
    /// Stored nonzeros of the ILUT factors of rank 0's owned block.
    pub factor_nnz: usize,
    /// One forward and backward sweep with those factors.
    pub sweep_us: f64,
}

/// The three local factorizations the preconditioners are made of, on rank
/// 0's owned block with the session's parameters.
pub fn factorizations(sys: &System, built: &[RankBuilt]) -> Factorizations {
    let block = built[0].dm.owned_block();
    let budget = Duration::from_millis(300);
    let ilu0_ms = 1e3
        * median_secs(2, budget, || {
            black_box(Ilu0::factor(&block).expect("ILU(0) of an SPD block"));
        });
    let ilut_ms = 1e3
        * median_secs(2, budget, || {
            black_box(Ilut::factor(&block, &sys.cfg.params.ilut).expect("ILUT of an SPD block"));
        });
    let arms_cfg = ArmsConfig::default();
    let arms_ms = 1e3
        * median_secs(2, budget, || {
            black_box(Arms::factor(&block, &arms_cfg).expect("ARMS of an SPD block"));
        });
    let lu = Ilut::factor(&block, &sys.cfg.params.ilut).expect("ILUT of an SPD block");
    let mut x = vec![1.0; block.n_rows()];
    let sweep = median_secs(20, Duration::from_millis(200), || {
        lu.solve_in_place(black_box(&mut x));
    });
    Factorizations {
        ilu0_ms,
        ilut_ms,
        arms_ms,
        factor_nnz: lu.nnz(),
        sweep_us: sweep * 1e6,
    }
}

/// Plain sequential FGMRES(20) with ILUT on the whole system: the
/// single-threaded reference for the distributed solve. Returns seconds
/// (factorization excluded) and iterations.
pub fn sequential_baseline(sys: &System) -> (f64, usize) {
    let lu = Ilut::factor(&sys.a, &sys.cfg.params.ilut).expect("ILUT of the global matrix");
    let cfg = GmresConfig {
        restart: sys.cfg.gmres.restart,
        max_iters: sys.cfg.gmres.max_iters,
        rel_tol: sys.cfg.gmres.rel_tol,
        ..GmresConfig::default()
    };
    let mut x = vec![0.0; sys.a.n_rows()];
    let t0 = Instant::now();
    let rep = FGmres::new(cfg).solve(&sys.a, &lu, &sys.rhs[0], &mut x);
    (t0.elapsed().as_secs_f64(), rep.iterations)
}

pub struct Mpisim {
    pub launch_us: f64,
    pub allreduce_us: f64,
}

pub fn mpisim() -> Mpisim {
    let launch = median_secs(100, Duration::from_millis(300), || {
        black_box(Universe::run(RANKS, |_comm| ()));
    });
    const ROUNDS: usize = 2000;
    let per_rank = Universe::run(RANKS, |comm| {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for i in 0..ROUNDS {
            acc += comm.allreduce_sum(1.0, 7000 + i as u64);
        }
        black_box(acc);
        t0.elapsed().as_secs_f64() / ROUNDS as f64
    });
    Mpisim {
        launch_us: launch * 1e6,
        allreduce_us: per_rank.into_iter().fold(0.0, f64::max) * 1e6,
    }
}

pub struct EngineMicro {
    pub parse_job_us: f64,
    pub result_json_us: f64,
    pub cache_hit_us: f64,
}

pub fn engine(sys: &System, session: &Arc<SolverSession>) -> EngineMicro {
    let line = format!(
        "{{\"id\":\"c0-123\",\"fp\":\"{:016x}\",\"rhs\":\"/some/dir/benchmark/out/inputs/w-1/tc1_201_rhs2.vec\",\"precond\":\"{}\",\"ranks\":{RANKS}}}",
        session.fingerprint(),
        sys.cell.precond
    );
    let budget = Duration::from_millis(100);
    let parse = median_secs(200, budget, || {
        black_box(parse_job_line(black_box(&line), 1).expect("a job line of the gate parses"));
    });
    let result = JobResult {
        ok: true,
        error: None,
        converged: true,
        iterations: vec![73],
        final_relres: 9.3e-7,
        true_relres: 9.4e-7,
        cache_hit: true,
        solve_seconds: 0.167,
        solve_ms: 167.0,
        queue_ms: 0.02,
        n_unknowns: sys.a.n_rows(),
        precond_used: Some(sys.cell.precond.to_string()),
        ..JobResult::failed("c0-123", "")
    };
    let to_json = median_secs(200, budget, || {
        black_box(black_box(&result).to_json());
    });
    let cache = SessionCache::new(8);
    let key = SessionKey::new(session.fingerprint(), &sys.cfg);
    cache.insert(key.clone(), Arc::clone(session));
    let hit = median_secs(200, budget, || {
        let got = cache.get_or_build(key.clone(), || unreachable!("the key is resident"));
        black_box(got.expect("resident").1);
    });
    EngineMicro {
        parse_job_us: parse * 1e6,
        result_json_us: to_json * 1e6,
        cache_hit_us: hit * 1e6,
    }
}

/// A job-line-sized frame through the product's own encoder and decoder.
pub fn frame_us() -> f64 {
    let payload = br#"{"id":"c0-123","fp":"0123456789abcdef","rhs":"/some/dir/benchmark/out/inputs/w-1/tc1_201_rhs2.vec","precond":"block2","ranks":2}"#;
    let secs = median_secs(500, Duration::from_millis(50), || {
        let mut wire = Vec::with_capacity(256);
        parapre_net::write_frame(&mut wire, payload).expect("writing to memory");
        let got =
            parapre_net::read_frame(&mut BufReader::new(&wire[..]), parapre_net::MAX_FRAME_BYTES)
                .expect("own frame decodes");
        black_box(got);
    });
    secs * 1e6
}

/// Relative cost of `with` over `without`, in percent, from alternating
/// pairs; the quartiles of the per-pair ratios say how far to trust it.
pub struct Overhead {
    pub pct: f64,
    pub q1_pct: f64,
    pub q3_pct: f64,
}

pub fn overhead_pct(pairs: usize, mut without: impl FnMut(), mut with: impl FnMut()) -> Overhead {
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let time = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        // Alternate which side goes first, so drift cancels.
        let (a, b) = if i % 2 == 0 {
            let a = time(&mut without);
            (a, time(&mut with))
        } else {
            let b = time(&mut with);
            (time(&mut without), b)
        };
        ratios.push(100.0 * (b / a - 1.0));
    }
    let [q1, q2, q3] = parapre_bench_e2e::stats::quartiles(&ratios).unwrap_or([f64::NAN; 3]);
    Overhead {
        pct: q2,
        q1_pct: q1,
        q3_pct: q3,
    }
}

/// Iterations of the workload's system at `p` ranks. Counts only: with more
/// ranks than cores a wall time would measure the scheduler.
pub fn iterations_at(sys: &System, p: usize) -> usize {
    let mut cfg = sys.cfg.clone();
    cfg.n_ranks = p;
    let session = SolverSession::from_matrix(&sys.a, &cfg).expect("session at another rank count");
    let rep = session
        .solve(&sys.rhs[0])
        .expect("solve at another rank count");
    assert!(rep.converged, "P={p} did not converge");
    rep.iterations
}
