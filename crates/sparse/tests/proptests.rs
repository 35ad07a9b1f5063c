#![allow(clippy::needless_range_loop)]
//! Property-based tests for the sparse substrate.

use parapre_sparse::ops::{self, SplitCsr};
use parapre_sparse::{Coo, Csr, Permutation};
use proptest::prelude::*;

/// Strategy producing a random COO matrix together with its dense mirror.
fn coo_and_dense(max_n: usize) -> impl Strategy<Value = (Coo, Vec<Vec<f64>>)> {
    (1..=max_n).prop_flat_map(move |n| {
        let triplet = (0..n, 0..n, -10.0f64..10.0);
        proptest::collection::vec(triplet, 0..4 * n).prop_map(move |ts| {
            let mut coo = Coo::new(n, n);
            let mut dense = vec![vec![0.0; n]; n];
            for (i, j, v) in ts {
                coo.push(i, j, v);
                dense[i][j] += v;
            }
            (coo, dense)
        })
    })
}

/// Dense reference for the sweeps: `L U x = b` by forward then backward
/// substitution on a merged dense factor (unit `L` strictly below the
/// diagonal, `U` on and above).
fn dense_lu_solve(m: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut x = b.to_vec();
    for i in 0..n {
        for j in 0..i {
            x[i] -= m[i][j] * x[j];
        }
    }
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            x[i] -= m[i][j] * x[j];
        }
        x[i] /= m[i][i];
    }
    x
}

proptest! {
    #[test]
    fn shifted_diagonal_preserves_offdiag_and_strengthens_diag(
        (coo, dense) in coo_and_dense(12),
        alpha_ix in 0usize..3,
    ) {
        let alpha = [1e-8, 1e-4, 1e-2][alpha_ix];
        let a = coo.to_csr();
        let s = a.with_shifted_diagonal(alpha);
        s.validate().unwrap();
        prop_assert_eq!(s.n_rows(), a.n_rows());
        prop_assert_eq!(s.n_cols(), a.n_cols());
        for (i, row) in dense.iter().enumerate() {
            // Every row gains a structural diagonal.
            let (cols, _) = s.row(i);
            prop_assert!(cols.binary_search(&i).is_ok(), "row {i} missing diagonal");
            // Off-diagonals are untouched; the diagonal never weakens.
            for (j, &v) in row.iter().enumerate() {
                if i != j {
                    prop_assert!((s.get(i, j) - v).abs() < 1e-12);
                }
            }
            let d = row[i];
            let sd = s.get(i, i);
            prop_assert!(sd.is_finite());
            prop_assert!(
                sd.abs() >= d.abs() - 1e-12,
                "shift weakened the diagonal: {d} -> {sd}"
            );
            if d != 0.0 {
                prop_assert!(sd.signum() == d.signum(), "shift flipped the sign");
            }
        }
    }

    #[test]
    fn coo_to_csr_matches_dense((coo, dense) in coo_and_dense(12)) {
        let a = coo.to_csr();
        a.validate().unwrap();
        for (i, row) in dense.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                prop_assert!((a.get(i, j) - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spmv_matches_dense_reference((coo, dense) in coo_and_dense(12),
                                    seed in any::<u64>()) {
        let a = coo.to_csr();
        let n = a.n_cols();
        // Cheap deterministic pseudo-random vector from the seed.
        let x: Vec<f64> = (0..n)
            .map(|i| (((seed.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15))) >> 17) as f64
                      / (1u64 << 40) as f64) - 4.0)
            .collect();
        let y = a.mul_vec(&x);
        for (i, row) in dense.iter().enumerate() {
            let want: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            prop_assert!((y[i] - want).abs() < 1e-9 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn axpy_and_scale_are_the_elementwise_loops_bitwise(
        xs in proptest::collection::vec(-10.0f64..10.0, 0..6000),
        alpha in -3.0f64..3.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|&v| 1.0 - v).collect();
        let want: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| (y + alpha * x) * alpha).collect();
        let mut got = ys.clone();
        ops::axpy(alpha, &xs, &mut got);
        ops::scale(alpha, &mut got);
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn lu_sweeps_match_dense_substitution(n in 1usize..40, seed in any::<u32>()) {
        // Random well-conditioned merged LU factor (unit lower implicit,
        // diagonal + upper stored): the row-ordered sweep against the dense
        // reference.
        let mut state = seed as u64 | 1;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = vec![vec![0.0; n]; n];
        for i in 0..n {
            m[i][i] = 2.0 + rnd().abs();
            for j in 0..n {
                if j != i && rnd() > 0.4 {
                    m[i][j] = 0.5 * rnd() / n as f64;
                }
            }
        }
        let s = SplitCsr::from_merged(&Csr::from_dense_rows(&m)).unwrap();
        let diag_inv = ops::diag_reciprocals_checked(&s.diag).unwrap();
        let lu = s.sweep_view(&diag_inv);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut want = b.clone();
        ops::solve_lu(&lu, &mut want);
        let reference = dense_lu_solve(&m, &b);
        let scale = ops::norm_inf(&reference).max(1.0);
        for (got, r) in want.iter().zip(&reference) {
            prop_assert!((got - r).abs() <= 1e-12 * scale, "{} vs {}", got, r);
        }
        // The leading block alone: the same substitution on the top-left
        // corner, the tail untouched.
        let nb = n / 2;
        let corner: Vec<Vec<f64>> = m[..nb].iter().map(|r| r[..nb].to_vec()).collect();
        let mut head = b.clone();
        ops::solve_lu_leading(&lu, nb, &mut head);
        let reference = dense_lu_solve(&corner, &b[..nb]);
        for (got, r) in head[..nb].iter().zip(&reference) {
            prop_assert!((got - r).abs() <= 1e-12 * scale.max(ops::norm_inf(&reference)));
        }
        prop_assert_eq!(&head[nb..], &b[nb..]);
    }

    #[test]
    fn transpose_is_involution((coo, _dense) in coo_and_dense(15)) {
        let a = coo.to_csr();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_flips_entries((coo, _dense) in coo_and_dense(10)) {
        let a = coo.to_csr();
        let at = a.transpose();
        for (i, j, v) in a.iter() {
            prop_assert_eq!(at.get(j, i), v);
        }
    }

    #[test]
    fn add_is_linear((coo, _d) in coo_and_dense(10), beta in -3.0f64..3.0) {
        let a = coo.to_csr();
        let n = a.n_rows();
        let b = Csr::identity(n);
        let c = a.add(beta, &b).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).cos()).collect();
        let cx = c.mul_vec(&x);
        let ax = a.mul_vec(&x);
        for i in 0..n {
            prop_assert!((cx[i] - (ax[i] + beta * x[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn matmul_matches_dense((coo, da) in coo_and_dense(8), (coo2, db) in coo_and_dense(8)) {
        let a = coo.to_csr();
        let b = coo2.to_csr();
        if a.n_cols() == b.n_rows() {
            let c = a.matmul(&b).unwrap();
            for i in 0..a.n_rows() {
                for j in 0..b.n_cols() {
                    let want: f64 = (0..a.n_cols()).map(|k| da[i][k] * db[k][j]).sum();
                    prop_assert!((c.get(i, j) - want).abs() < 1e-9 * (1.0 + want.abs()));
                }
            }
        }
    }

    #[test]
    fn sym_permutation_commutes_with_matvec(
        (coo, _d) in coo_and_dense(12),
        seed in any::<u32>(),
    ) {
        let a = coo.to_csr();
        let n = a.n_rows();
        // Fisher-Yates with a tiny LCG.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed as u64 | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let p = Permutation::from_vec(perm).unwrap();
        let b = p.apply_sym(&a);
        b.validate().unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let lhs = b.mul_vec(&p.apply_vec(&x));
        let rhs = p.apply_vec(&a.mul_vec(&x));
        for (u, v) in lhs.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-12);
        }
    }
}
