#![allow(clippy::needless_range_loop)]
//! Property-based tests for Krylov solvers and factorizations.

use parapre_krylov::proj::Panel;
use parapre_krylov::{
    Arms, ArmsConfig, BreakdownKind, FGmres, Gmres, GmresConfig, IdentityPrecond, Ilu0, Ilut,
    IlutConfig, LuFactors,
};
use parapre_sparse::{ops, Coo, Csr};
use proptest::prelude::*;

/// A seeded stream of values uniform in `[-1, 1)`.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

/// Random diagonally dominant (hence nonsingular) sparse matrix.
fn diag_dominant(n: usize, seed: u64) -> Csr {
    let mut rnd = uniform(seed);
    let mut coo = Coo::new(n, n);
    let mut rowsum = vec![0.0; n];
    for i in 0..n {
        for dj in 1..=3usize {
            if i + dj < n && rnd() > 0.0 {
                let v = rnd();
                coo.push(i, i + dj, v);
                rowsum[i] += v.abs();
                let w = rnd();
                coo.push(i + dj, i, w);
                rowsum[i + dj] += w.abs();
            }
        }
    }
    for i in 0..n {
        coo.push(i, i, rowsum[i] + 1.0 + rnd().abs());
    }
    coo.to_csr()
}

/// Random *hostile* sparse matrix: structurally symmetric chain coupling,
/// with zero, negative, and near-zero diagonal entries mixed in — the kind
/// of input plain ILU dies on.
fn hostile(n: usize, seed: u64) -> Csr {
    let mut rnd = uniform(seed);
    let mut coo = Coo::new(n, n);
    for i in 0..n.saturating_sub(1) {
        let v = rnd();
        coo.push(i, i + 1, v);
        coo.push(i + 1, i, rnd());
    }
    for i in 0..n {
        let d = match i % 4 {
            0 => 0.0,                  // exact zero pivot
            1 => 1e-15 * rnd(),        // near-singular
            2 => -(1.0 + rnd().abs()), // sign-indefinite
            _ => 1.0 + rnd().abs(),
        };
        coo.push(i, i, d);
    }
    coo.to_csr()
}

fn relative_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.spmv(x, &mut ax);
    let r: f64 = b
        .iter()
        .zip(&ax)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    r / bn.max(1e-300)
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

/// `a` with every stored value moved by a deterministic relative amount up
/// to `eps` and the diagonal grown on top (stays dominant).
fn perturbed(a: &Csr, eps: f64) -> Csr {
    let mut b = a.clone();
    for (k, (slot, (i, j, v))) in b.vals_mut().iter_mut().zip(a.iter()).enumerate() {
        let wobble = ((k * 37 + 11) % 101) as f64 / 101.0;
        let grow = if i == j { 1.0 + eps } else { 1.0 };
        *slot = v * (1.0 + eps * (wobble - 0.5)) * grow;
    }
    b
}

/// What the split storage owes every factor: the merged copy round-trips
/// bit for bit and sweeps to the same bits, the sweep agrees with dense
/// substitution, and the leading and trailing blocks are those of the
/// merged matrix.
fn check_factor_storage(f: &LuFactors) {
    let n = f.dim();
    let m = f.merged();
    m.validate().unwrap();
    assert_eq!(m.nnz(), f.nnz());
    let again = LuFactors::from_merged(&m).unwrap();
    assert_eq!(&again.merged(), &m);

    let dense = m.to_dense();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
    let reference = dense_lu_solve(&dense, &b);
    let scale = ops::norm_inf(&reference);
    let mut want = b.clone();
    f.solve_in_place(&mut want);
    for (got, r) in want.iter().zip(&reference) {
        assert!((got - r).abs() <= 1e-12 * scale, "{} vs {}", got, r);
    }
    let mut again_x = b.clone();
    again.solve_in_place(&mut again_x);
    assert_eq!(&again_x, &want, "round-tripped factor");

    for nb in [0, n / 3, n / 2, n] {
        // Leading block: dense substitution with the top-left corner.
        let corner: Vec<Vec<f64>> = dense[..nb].iter().map(|r| r[..nb].to_vec()).collect();
        let reference = dense_lu_solve(&corner, &b[..nb]);
        let mut x = b.clone();
        f.leading_solve(nb, &mut x);
        for (got, r) in x[..nb].iter().zip(&reference) {
            assert!((got - r).abs() <= 1e-12 * scale.max(ops::norm_inf(&reference)));
        }
        assert_eq!(&x[nb..], &b[nb..]);
        // Trailing block: the bottom-right corner, as a factor of its own.
        let rows: Vec<usize> = (nb..n).collect();
        let tail = f.trailing_block(nb);
        assert_eq!(tail.dim(), n - nb);
        assert_eq!(
            &tail.merged(),
            &m.extract(&rows, |j| j.checked_sub(nb), n - nb)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gmres_converges_on_diag_dominant(n in 5usize..60, seed in any::<u64>()) {
        let a = diag_dominant(n, seed);
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; n];
        let rep = Gmres::new(GmresConfig { max_iters: 500, ..Default::default() })
            .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        prop_assert!(rep.converged);
        prop_assert!(relative_residual(&a, &b, &x) < 1e-5);
    }

    #[test]
    fn ilu0_preconditioned_gmres_never_slower_much(n in 8usize..50, seed in any::<u64>()) {
        let a = diag_dominant(n, seed);
        let b = vec![1.0; n];
        let f = Ilu0::factor(&a).unwrap();
        let mut x = vec![0.0; n];
        let rep = Gmres::new(GmresConfig { max_iters: 300, ..Default::default() })
            .solve(&a, &f, &b, &mut x);
        prop_assert!(rep.converged);
        prop_assert!(relative_residual(&a, &b, &x) < 1e-5);
    }

    #[test]
    fn ilut_full_fill_inverts_diag_dominant(n in 4usize..40, seed in any::<u64>()) {
        let a = diag_dominant(n, seed);
        let f = Ilut::factor(&a, &IlutConfig { drop_tol: 0.0, fill: 10 * n }).unwrap();
        prop_assert_eq!(f.pivot_fixes(), 0);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let b = a.mul_vec(&x_true);
        let mut x = b;
        f.solve_in_place(&mut x);
        for (u, v) in x.iter().zip(&x_true) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn split_storage_holds_its_contracts(n in 1usize..60, seed in any::<u64>(), fill in 1usize..8) {
        let a = diag_dominant(n, seed);
        let cfg = IlutConfig { drop_tol: 1e-3, fill };
        let a2 = perturbed(&a, 0.05);
        for donor in [Ilu0::factor(&a).unwrap(), Ilut::factor(&a, &cfg).unwrap()] {
            check_factor_storage(&donor);
            // A refactored factor is a new set of values on the donor's own
            // symbolic half: same allocation, same fill.
            let refactored = donor.refactor(&a2).unwrap();
            prop_assert!(refactored.shares_pattern_with(&donor));
            prop_assert_eq!(refactored.nnz(), donor.nnz());
            let (got, want) = (refactored.merged(), donor.merged());
            prop_assert_eq!(got.col_idx(), want.col_idx());
            check_factor_storage(&refactored);
        }
    }

    #[test]
    fn arms_preconditioned_fgmres_converges(n in 20usize..80, seed in any::<u64>()) {
        let a = diag_dominant(n, seed);
        let arms = Arms::factor(&a, &ArmsConfig::default()).unwrap();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = FGmres::new(GmresConfig { max_iters: 200, ..Default::default() })
            .solve(&a, &arms, &b, &mut x);
        prop_assert!(rep.converged);
        prop_assert!(relative_residual(&a, &b, &x) < 1e-5);
    }

    #[test]
    fn shifted_ilu0_factors_hostile_matrices_finite(n in 4usize..60, seed in any::<u64>()) {
        // Satellite property: the diagonal-shift retry ladder either
        // produces an all-finite factorization or a typed error — never a
        // panic, never NaN/Inf factors.
        let a = hostile(n, seed);
        if let Ok(f) = Ilu0::factor_shifted(&a) {
            let rep = f.report();
            prop_assert_eq!(rep.nonfinite, 0);
            prop_assert!(rep.min_pivot.is_finite());
            let mut x = vec![1.0; n];
            f.solve_in_place(&mut x);
            prop_assert!(x.iter().all(|v| v.is_finite()), "sweep produced non-finite");
        }
    }

    #[test]
    fn shifted_ilut_factors_hostile_matrices_finite(n in 4usize..60, seed in any::<u64>()) {
        let a = hostile(n, seed);
        if let Ok(f) = Ilut::factor_shifted(&a, &IlutConfig::default()) {
            prop_assert_eq!(f.report().nonfinite, 0);
            let mut x = vec![1.0; n];
            f.solve_in_place(&mut x);
            prop_assert!(x.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn gmres_on_hostile_matrices_never_lies(n in 4usize..50, seed in any::<u64>()) {
        // Convergence claims must be backed by a finite solution; anything
        // else must carry a typed breakdown or a plain budget exhaustion.
        let a = hostile(n, seed);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = Gmres::new(GmresConfig { max_iters: 120, ..Default::default() })
            .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        if rep.converged {
            prop_assert!(x.iter().all(|v| v.is_finite()));
            prop_assert!(rep.final_relres.is_finite());
        }
    }

    #[test]
    fn gmres_solution_independent_of_restart(seed in any::<u64>()) {
        let n = 30;
        let a = diag_dominant(n, seed);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut x1 = vec![0.0; n];
        Gmres::new(GmresConfig { restart: 30, max_iters: 500, rel_tol: 1e-10, ..Default::default() })
            .solve(&a, &IdentityPrecond::new(n), &b, &mut x1);
        let mut x2 = vec![0.0; n];
        Gmres::new(GmresConfig { restart: 7, max_iters: 500, rel_tol: 1e-10, ..Default::default() })
            .solve(&a, &IdentityPrecond::new(n), &b, &mut x2);
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn panel_kernels_are_the_per_column_loops_bitwise(
        k in 1usize..=21,
        chunks in 0usize..3,
        past in 1usize..600,
        seed in any::<u64>(),
    ) {
        // `chunks` whole reduction chunks and then some; three lengths in
        // four are not a multiple of the lane count.
        let n = chunks * ops::REDUCE_CHUNK + past;
        let mut rnd = uniform(seed);
        let mut panel = Panel::zeros(n, k);
        for j in 0..k {
            panel.col_mut(j).iter_mut().for_each(|v| *v = rnd());
        }
        let w: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let coeffs: Vec<f64> = (0..k).map(|_| rnd()).collect();
        let b: Vec<f64> = (0..=k).map(|_| rnd()).collect();

        // The reference: one `ops::dot` and one `ops::axpy` per column.
        let per_column_dots = |w: &[f64]| {
            let mut d: Vec<f64> = (0..k).map(|j| ops::dot(w, panel.col(j))).collect();
            d.push(ops::dot(w, w));
            d
        };
        let want_dots = per_column_dots(&w);
        let mut want_sub = w.clone();
        for (j, &c) in coeffs.iter().enumerate() {
            ops::axpy(-c, panel.col(j), &mut want_sub);
        }
        let mut want_dots2 = per_column_dots(&x);
        want_dots2.pop();
        want_dots2.extend(per_column_dots(&w));
        let want_x: Vec<f64> = want_sub.iter().map(|v| v / 0.75).collect();
        let mut want_y = x.clone();
        for (j, &c) in b[..k].iter().enumerate() {
            ops::axpy(-c, panel.col(j), &mut want_y);
        }
        ops::axpy(-b[k], &want_x, &mut want_y);
        want_y.iter_mut().for_each(|v| *v /= 0.75);

        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let basis = panel.basis(k);
        let mut dots = vec![f64::NAN; k + 1];
        basis.dots(&w, &mut dots);
        prop_assert_eq!(bits(&dots), bits(&want_dots), "dots, n={}", n);

        let mut sub = w.clone();
        basis.sub(&coeffs, &mut sub);
        prop_assert_eq!(bits(&sub), bits(&want_sub), "sub, n={}", n);

        let mut dots2 = vec![f64::NAN; 2 * k + 1];
        basis.dots2(&x, &w, &mut dots2);
        prop_assert_eq!(bits(&dots2), bits(&want_dots2), "dots2, n={}", n);

        // `sub2` finishes `w` against the basis and projects `x` on it and on
        // the finished `w`.
        let (mut got_x, mut got_y) = (w.clone(), x.clone());
        basis.sub2(&coeffs, &mut got_x, &b, &mut got_y, 0.75);
        prop_assert_eq!(bits(&got_x), bits(&want_x), "sub2 first, n={}", n);
        prop_assert_eq!(bits(&got_y), bits(&want_y), "sub2 second, n={}", n);
    }
}

// ---- deterministic breakdown-detection cases -------------------------------

/// GMRES on a cyclic-shift permutation makes *zero* residual progress until
/// iteration `n` — the canonical stagnation case. The guard, which counts
/// restart cycles, must cut the solve short with a typed breakdown instead of
/// burning the budget; the cycles here are one step long.
#[test]
fn stagnation_guard_cuts_cyclic_shift_early() {
    let n = 40;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, (i + 1) % n, 1.0);
    }
    let a = coo.to_csr();
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    let mut x = vec![0.0; n];
    let rep = Gmres::new(GmresConfig {
        restart: 1,
        max_iters: n,
        stall_window: 4,
        ..Default::default()
    })
    .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
    assert!(!rep.converged);
    let bd = rep.breakdown.expect("stagnation breakdown");
    assert_eq!(bd.kind, BreakdownKind::Stagnation);
    assert!(
        rep.iterations < n - 1,
        "guard must fire well before the budget: {} iters",
        rep.iterations
    );
}

/// A singular operator whose Krylov space degenerates without reaching the
/// target: `wnorm == 0` must surface as `ZeroNormalization`, not as the old
/// false `converged: true`.
#[test]
fn zero_normalization_is_typed_not_fake_convergence() {
    let mut coo = Coo::new(2, 2);
    coo.push(0, 0, 1.0);
    coo.push(1, 1, 0.0);
    let a = coo.to_csr();
    let b = vec![0.0, 1.0];
    let mut x = vec![0.0; 2];
    let rep = Gmres::new(GmresConfig::default()).solve(&a, &IdentityPrecond::new(2), &b, &mut x);
    assert!(!rep.converged);
    assert_eq!(
        rep.breakdown.expect("breakdown").kind,
        BreakdownKind::ZeroNormalization
    );
}

/// NaN in the operator must yield a typed `NonFinite` breakdown.
#[test]
fn nan_operator_breaks_down_typed() {
    let mut coo = Coo::new(2, 2);
    coo.push(0, 0, f64::NAN);
    coo.push(0, 1, 1.0);
    coo.push(1, 0, 1.0);
    coo.push(1, 1, 1.0);
    let a = coo.to_csr();
    let b = vec![1.0, 1.0];
    let mut x = vec![0.0; 2];
    let rep = Gmres::new(GmresConfig::default()).solve(&a, &IdentityPrecond::new(2), &b, &mut x);
    assert!(!rep.converged);
    assert_eq!(
        rep.breakdown.expect("breakdown").kind,
        BreakdownKind::NonFinite
    );
}

/// NaN in the matrix: every factorization path returns a structured error
/// (shift ladder included — shifting cannot launder a NaN) and never panics.
#[test]
fn nan_matrix_factors_error_typed() {
    let mut coo = Coo::new(3, 3);
    coo.push(0, 0, 2.0);
    coo.push(1, 1, f64::NAN); // a poisoned *diagonal* cannot be dropped
    coo.push(2, 2, 2.0);
    coo.push(0, 1, 1.0);
    coo.push(1, 0, 0.5);
    let a = coo.to_csr();
    assert!(Ilu0::factor(&a).is_err());
    assert!(Ilut::factor(&a, &IlutConfig::default()).is_err());
    assert!(Ilu0::factor_shifted(&a).is_err());
    assert!(Ilut::factor_shifted(&a, &IlutConfig::default()).is_err());
}

/// Zero diagonals alone are exactly what the shift ladder exists for: the
/// shifted factorization must succeed and record its retries.
#[test]
fn shift_ladder_rescues_zero_diagonal() {
    let n = 12;
    let mut coo = Coo::new(n, n);
    for i in 0..n - 1 {
        coo.push(i, i + 1, -1.0);
        coo.push(i + 1, i, -1.0);
    }
    for i in 0..n {
        coo.push(i, i, if i % 3 == 0 { 0.0 } else { 2.0 });
    }
    let a = coo.to_csr();
    assert!(Ilu0::factor(&a).is_err(), "plain ILU(0) must reject");
    let f = Ilu0::factor_shifted(&a).expect("ladder rescues");
    let rep = f.report();
    assert!(rep.shift_attempts > 0, "a retry must have happened");
    assert!(rep.shift_alpha > 0.0);
    assert_eq!(rep.nonfinite, 0);
    let mut x = vec![1.0; n];
    f.solve_in_place(&mut x);
    assert!(x.iter().all(|v| v.is_finite()));
}

/// ARMS climbs the same ladder as ILU(0)/ILUT, judged on its last-level
/// factors. The expected (alpha, attempts, FNV-1a of the last-level value
/// bits) were recorded from the hand-written ARMS loop this replaced.
#[test]
fn arms_climbs_the_shared_shift_ladder() {
    let n = 12;
    let chain = |diag: &dyn Fn(usize) -> f64| {
        let mut coo = Coo::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, -1.0);
            coo.push(i + 1, i, -1.0);
        }
        for i in 0..n {
            coo.push(i, i, diag(i));
        }
        coo.to_csr()
    };
    let tail_pinned: Vec<bool> = (0..n).map(|i| i >= n - n / 4).collect();
    for (a, pinned, levels, hash) in [
        // Everything pinned: ARMS is its last-level ILUT of the whole matrix.
        (
            chain(&|i| if i % 3 == 0 { 0.0 } else { 2.0 }),
            vec![true; n],
            0,
            0x393f16b5a487f01f_u64,
        ),
        // One elimination level above a 4-unknown last level.
        (chain(&|_| 0.0), tail_pinned, 1, 0x23b22433e3bd5d86),
    ] {
        let cfg = ArmsConfig::default();
        let plain = Arms::factor_with_coarse(&a, &cfg, &pinned).expect("ILUT pivot-fixes");
        assert!(plain.last_factors().pivot_fixes() > 0 || !plain.report().healthy());
        let arms = Arms::factor_with_coarse_shifted(&a, &cfg, &pinned).expect("ladder rescues");
        assert_eq!(arms.n_levels(), levels);
        let rep = arms.report();
        assert_eq!((rep.shift_alpha, rep.shift_attempts), (1e-4, 2));
        assert!(rep.healthy() && arms.last_factors().pivot_fixes() == 0);
        let fnv = arms
            .last_factors()
            .merged()
            .vals()
            .iter()
            .fold(0xcbf29ce484222325_u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
            });
        assert_eq!(fnv, hash, "last-level factor values moved");
    }
}
