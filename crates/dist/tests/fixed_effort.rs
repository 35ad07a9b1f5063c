//! `DistGmres::fixed_effort` does no discarded work and changes no bit.
//!
//! Counted: `k` steps apply the operator `k` times (the general solve spends
//! `k + 2`: an opening residual of the zero guess and a closing true residual
//! nobody reads), and a rank sends `k` exchanges and `k + 2` reductions'
//! worth of messages: the opening norm, one per step, and the one that
//! completes the last Hessenberg column. Compared: the answer is bit for bit
//! the general solve's from a zero guess with the same preconditioner. Under
//! the distributed orthogonalization both keep every preconditioned
//! direction (`z = Z y`), so the reference performs the entry's operations
//! in the entry's order without sharing its shortcuts.

use parapre_dist::{
    scatter_vector, tags, DistGmres, DistMatrix, DistOp, DistPrecond, GmresConfig,
    IdentityDistPrecond,
};
use parapre_mpisim::{Comm, Universe};
use std::cell::Cell;

mod common;

/// Counts operator applications.
struct Counting<'a, A> {
    a: &'a A,
    calls: Cell<usize>,
}

impl<'a, A> Counting<'a, A> {
    fn new(a: &'a A) -> Self {
        Counting {
            a,
            calls: Cell::new(0),
        }
    }
}

impl<A: DistOp> DistOp for Counting<'_, A> {
    fn n_owned(&self) -> usize {
        self.a.n_owned()
    }
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.calls.set(self.calls.get() + 1);
        self.a.apply(comm, x, y);
    }
}

/// Point Jacobi with a diagonal that rounds (no power of two).
struct Jacobi(Vec<f64>);

impl DistPrecond for Jacobi {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.0) {
            *zi = ri / di;
        }
    }
}

/// The identity on `n` owned unknowns.
struct IdentityOp(usize);

impl DistOp for IdentityOp {
    fn n_owned(&self) -> usize {
        self.0
    }
    fn apply(&self, _comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }
}

/// The configuration `fixed_effort(k)` stands for, spelled out.
fn one_cycle_of(k: usize) -> GmresConfig {
    GmresConfig {
        restart: k,
        max_iters: k,
        rel_tol: 1e-12,
        abs_tol: 1e-300,
        record_history: false,
        stall_window: 0,
        ..GmresConfig::distributed()
    }
}

/// `z` of the general solve of `A z = g` preconditioned by `m`, zero guess.
fn reference<A: DistOp, M: DistPrecond>(
    comm: &mut Comm,
    a: &A,
    m: &M,
    k: usize,
    g: &[f64],
) -> Vec<f64> {
    let mut z = vec![0.0; g.len()];
    DistGmres::new(one_cycle_of(k)).solve(comm, a, m, g, &mut z);
    z
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn k_steps_cost_k_products_k_exchanges_and_the_reductions_of_k_steps() {
    for p in [1, 2, 4] {
        let (a, b, owner) = common::poisson_system(14, p);
        Universe::run(p, |comm| {
            let dm = DistMatrix::from_global(&a, &owner, comm.rank(), p);
            let n = dm.layout.n_owned();
            let g = scatter_vector(&dm.layout, &b);
            let m = Jacobi((0..n).map(|i| 3.0 + 0.1 * (i % 7) as f64).collect());
            // What one exchange and one reduction cost this rank.
            let sent = |comm: &Comm| comm.stats().msgs_sent;
            let mut scratch = vec![0.0; n];
            let t0 = sent(comm);
            dm.apply(comm, &g, &mut scratch);
            let per_exchange = sent(comm) - t0;
            let t0 = sent(comm);
            comm.allreduce_sum(1.0, tags::REDUCE);
            let per_reduction = sent(comm) - t0;
            assert_eq!(per_reduction == 0, p == 1);

            for k in [1usize, 5, 10] {
                let op = Counting::new(&dm);
                let mut z = vec![f64::NAN; n];
                let t0 = sent(comm);
                DistGmres::fixed_effort(comm, &op, &m, k, &g, &mut z);
                let msgs = sent(comm) - t0;
                assert_eq!(op.calls.get(), k, "P={p} k={k}: operator products");
                let for_reductions = msgs - k as u64 * per_exchange;
                if p > 1 {
                    assert_eq!(for_reductions % per_reduction, 0, "P={p} k={k}");
                    let reductions = (for_reductions / per_reduction) as usize;
                    assert_eq!(reductions, k + 2, "P={p} k={k}: reductions");
                } else {
                    assert_eq!(msgs, 0);
                }

                let general = Counting::new(&dm);
                let z_ref = reference(comm, &general, &m, k, &g);
                assert_eq!(general.calls.get(), k + 2, "the general solve's count");
                assert_eq!(bits(&z), bits(&z_ref), "P={p} k={k}");
            }
        });
    }
}

#[test]
fn early_exits_take_the_general_path_bit_for_bit() {
    for p in [1, 2, 4] {
        let (a, b, owner) = common::poisson_system(14, p);
        Universe::run(p, |comm| {
            let dm = DistMatrix::from_global(&a, &owner, comm.rank(), p);
            let n = dm.layout.n_owned();
            let g = scatter_vector(&dm.layout, &b);
            let m = Jacobi((0..n).map(|i| 3.0 + 0.1 * (i % 7) as f64).collect());
            for k in [1usize, 5, 10] {
                // g = 0: ‖r₀‖ ≤ abs_tol, nothing is applied.
                let zero = vec![0.0; n];
                let op = Counting::new(&dm);
                let mut z = vec![f64::NAN; n];
                DistGmres::fixed_effort(comm, &op, &m, k, &zero, &mut z);
                assert_eq!(op.calls.get(), 0);
                assert_eq!(bits(&z), bits(&reference(comm, &dm, &m, k, &zero)));

                // The identity: the estimate is zero after step 1, before
                // any larger budget is spent — the true residual is taken.
                let id = IdentityOp(n);
                let op = Counting::new(&id);
                let mut z = vec![f64::NAN; n];
                DistGmres::fixed_effort(comm, &op, &IdentityDistPrecond, k, &g, &mut z);
                assert_eq!(op.calls.get(), 2, "one step and the true residual");
                let z_ref = reference(comm, &id, &IdentityDistPrecond, k, &g);
                assert_eq!(bits(&z), bits(&z_ref), "P={p} k={k}");

                // A NaN on one rank: every rank sees it in ‖r₀‖ and stops.
                let mut poisoned = g.clone();
                if comm.rank() == 0 {
                    poisoned[0] = f64::NAN;
                }
                let op = Counting::new(&dm);
                let mut z = vec![f64::NAN; n];
                DistGmres::fixed_effort(comm, &op, &m, k, &poisoned, &mut z);
                assert_eq!(op.calls.get(), 0);
                assert_eq!(bits(&z), bits(&reference(comm, &dm, &m, k, &poisoned)));
                assert_eq!(bits(&z), bits(&zero));
            }
        });
    }
}
