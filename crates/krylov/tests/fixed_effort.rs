//! `Gmres::fixed_effort` does no discarded work and changes no bit: `k`
//! steps apply the operator `k` times (the general solve spends `k + 2`), and
//! the answer — through every early exit too — is bit for bit what
//! `Gmres::solve` returns from a zeroed guess under the configuration the
//! entry stands for, spelled out here.

use parapre_krylov::op::FnOp;
use parapre_krylov::{
    Gmres, GmresConfig, IdentityPrecond, Ilu0, LinOp, OrthMethod, Preconditioner,
};
use parapre_sparse::{Coo, Csr};
use std::cell::Cell;

/// Counts operator applications.
struct Counting<'a, A> {
    a: &'a A,
    calls: Cell<usize>,
}

impl<A: LinOp> LinOp for Counting<'_, A> {
    fn dim(&self) -> usize {
        self.a.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.calls.set(self.calls.get() + 1);
        self.a.apply(x, y);
    }
}

fn laplacian_2d(nx: usize) -> Csr {
    let mut coo = Coo::new(nx * nx, nx * nx);
    for iy in 0..nx {
        for ix in 0..nx {
            let i = iy * nx + ix;
            coo.push(i, i, 4.0);
            if ix > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if ix + 1 < nx {
                coo.push(i, i + 1, -1.0);
            }
            if iy > 0 {
                coo.push(i, i - nx, -1.0);
            }
            if iy + 1 < nx {
                coo.push(i, i + nx, -1.0);
            }
        }
    }
    coo.to_csr()
}

/// Runs the entry and the general solve on `A x = b`; asserts the same bits
/// and returns the operator applications of (entry, general solve).
fn both<A: LinOp, M: Preconditioner>(a: &A, m: &M, k: usize, b: &[f64]) -> (usize, usize) {
    let count = |a| Counting {
        a,
        calls: Cell::new(0),
    };
    let entry = count(a);
    let mut x = vec![f64::NAN; b.len()];
    Gmres::fixed_effort(&entry, m, k, b, &mut x);

    let general = count(a);
    let mut x_ref = vec![0.0; b.len()];
    Gmres::new(GmresConfig {
        restart: k,
        max_iters: k,
        rel_tol: 1e-12,
        abs_tol: 1e-300,
        record_history: false,
        stall_window: 0,
        orth: OrthMethod::Modified,
    })
    .solve(&general, m, b, &mut x_ref);

    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&x), bits(&x_ref), "k={k}");
    (entry.calls.get(), general.calls.get())
}

#[test]
fn k_steps_cost_k_products_and_the_general_solves_bits() {
    let a = laplacian_2d(16);
    let n = a.n_rows();
    let m = Ilu0::factor(&a).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    for k in [1, 5, 10] {
        assert_eq!(both(&a, &m, k, &b), (k, k + 2), "k={k}");
    }
}

#[test]
fn early_exits_take_the_general_path_bit_for_bit() {
    let a = laplacian_2d(8);
    let n = a.n_rows();
    let m = Ilu0::factor(&a).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let identity = FnOp::new(n, |x: &[f64], y: &mut [f64]| y.copy_from_slice(x));
    // A cyclic shift from e₀: the residual estimate does not move for n − 1
    // steps, and a stalled estimate is no early exit: the budget is spent.
    let shift = FnOp::new(n, |x: &[f64], y: &mut [f64]| {
        y[1..].copy_from_slice(&x[..n - 1]);
        y[0] = x[n - 1];
    });
    let mut e0 = vec![0.0; n];
    e0[0] = 1.0;
    let mut poisoned = b.clone();
    poisoned[3] = f64::NAN;
    let none = IdentityPrecond::new(n);
    for k in [1, 5, 10] {
        // b = 0 and a NaN in b stop at ‖r₀‖: nothing is applied.
        assert_eq!(both(&a, &m, k, &vec![0.0; n]), (0, 1), "zero, k={k}");
        assert_eq!(both(&a, &m, k, &poisoned), (0, 1), "NaN, k={k}");
        // The identity meets the target at step 1: one step, and the true
        // residual the general path takes.
        assert_eq!(both(&identity, &none, k, &b), (2, 3), "identity, k={k}");
        assert_eq!(both(&shift, &none, k, &e0), (k, k + 2), "shift, k={k}");
    }
}
