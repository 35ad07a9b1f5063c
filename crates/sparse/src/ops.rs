//! Vector kernels and triangular solves shared across the workspace.
//!
//! The BLAS-1 kernels are written as explicit 4-lane-chunked loops: the
//! lane accumulators autovectorize without intrinsics, and reductions use
//! **fixed chunk boundaries with an ordered combine** ([`REDUCE_CHUNK`]),
//! so the `_par` variants are bitwise identical to the serial kernels at
//! every worker count.

use crate::levels::SweepLevels;
use crate::parallel;
use crate::{Csr, Error, Result};

/// Accumulator lanes of the chunked BLAS-1 loops (autovec-friendly f64x4).
const LANES: usize = 4;

/// Fixed reduction-chunk length (elements). Partial sums are always taken
/// over `[c·CHUNK, (c+1)·CHUNK)` windows and combined in ascending chunk
/// order, independent of how many workers computed them.
pub const REDUCE_CHUNK: usize = 4096;

/// Below this length the pool dispatch overhead dominates; `_par` kernels
/// fall back to the serial path.
const PAR_MIN_LEN: usize = 8192;

/// Narrowest sweep level worth fanning out across the pool.
const SWEEP_PAR_MIN_WIDTH: usize = 512;

/// One fixed reduction chunk of the dot product: four independent lane
/// accumulators over the 4-aligned head, a scalar tail, and a fixed
/// combine order.
#[inline]
fn dot_chunk(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n4 = x.len() & !(LANES - 1);
    let mut acc = [0.0f64; LANES];
    for (xs, ys) in x[..n4].chunks_exact(LANES).zip(y[..n4].chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0;
    for (a, b) in x[n4..].iter().zip(&y[n4..]) {
        tail += a * b;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Dot product of two equally sized slices (chunked, deterministic: see
/// [`REDUCE_CHUNK`]).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut total = 0.0;
    for (xc, yc) in x.chunks(REDUCE_CHUNK).zip(y.chunks(REDUCE_CHUNK)) {
        total += dot_chunk(xc, yc);
    }
    total
}

/// Budget-aware [`dot`]: chunk partials are computed on the worker pool
/// and combined in ascending chunk order, so the sum is **bitwise
/// identical** to the serial kernel regardless of worker count.
pub fn dot_par(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let budget = parallel::current_budget();
    if budget <= 1 || x.len() < PAR_MIN_LEN {
        return dot(x, y);
    }
    let n_chunks = x.len().div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f64; n_chunks];
    parallel::for_each_chunk_mut(&mut partials, budget.min(n_chunks), |_, start, out| {
        for (c, o) in out.iter_mut().enumerate() {
            let lo = (start + c) * REDUCE_CHUNK;
            let hi = (lo + REDUCE_CHUNK).min(x.len());
            *o = dot_chunk(&x[lo..hi], &y[lo..hi]);
        }
    });
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Budget-aware [`norm2`] (bitwise identical to the serial kernel).
pub fn norm2_par(x: &[f64]) -> f64 {
    dot_par(x, x).sqrt()
}

/// Infinity norm.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `y += alpha * x` over one chunk, 4-lane unrolled.
#[inline]
fn axpy_chunk(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n4 = y.len() & !(LANES - 1);
    for (ys, xs) in y[..n4]
        .chunks_exact_mut(LANES)
        .zip(x[..n4].chunks_exact(LANES))
    {
        for l in 0..LANES {
            ys[l] += alpha * xs[l];
        }
    }
    for (yi, &xi) in y[n4..].iter_mut().zip(&x[n4..]) {
        *yi += alpha * xi;
    }
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    axpy_chunk(alpha, x, y);
}

/// Budget-aware [`axpy`]: element-disjoint chunks, so bitwise identical
/// to the serial kernel at every worker count.
pub fn axpy_par(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let budget = parallel::current_budget();
    if budget <= 1 || y.len() < PAR_MIN_LEN {
        return axpy(alpha, x, y);
    }
    parallel::for_each_chunk_mut(y, budget, |_, start, ys| {
        axpy_chunk(alpha, &x[start..start + ys.len()], ys);
    });
}

/// `y = alpha * x + beta * y`.
#[inline]
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n4 = y.len() & !(LANES - 1);
    for (ys, xs) in y[..n4]
        .chunks_exact_mut(LANES)
        .zip(x[..n4].chunks_exact(LANES))
    {
        for l in 0..LANES {
            ys[l] = alpha * xs[l] + beta * ys[l];
        }
    }
    for (yi, &xi) in y[n4..].iter_mut().zip(&x[n4..]) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// Scales `x` in place (4-lane unrolled).
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    let n4 = x.len() & !(LANES - 1);
    for xs in x[..n4].chunks_exact_mut(LANES) {
        for l in 0..LANES {
            xs[l] *= alpha;
        }
    }
    for xi in &mut x[n4..] {
        *xi *= alpha;
    }
}

/// Budget-aware [`scale`] (bitwise identical to the serial kernel).
pub fn scale_par(alpha: f64, x: &mut [f64]) {
    let budget = parallel::current_budget();
    if budget <= 1 || x.len() < PAR_MIN_LEN {
        return scale(alpha, x);
    }
    parallel::for_each_chunk_mut(x, budget, |_, _, xs| scale(alpha, xs));
}

/// Solves `L x = b` where `L` is **unit** lower triangular stored in CSR.
///
/// Entries with column index `>= row` are ignored, so a merged LU matrix can
/// be passed directly. `x` may alias `b` by passing the right-hand side in
/// `x` (solve happens in place).
pub fn solve_unit_lower(l: &Csr, x: &mut [f64]) {
    let n = l.n_rows();
    debug_assert_eq!(x.len(), n);
    for i in 0..n {
        let (cols, vals) = l.row(i);
        let mut acc = x[i];
        for (&j, &v) in cols.iter().zip(vals) {
            if j >= i {
                break;
            }
            acc -= v * x[j];
        }
        x[i] = acc;
    }
}

/// Positions of each row's diagonal entry inside the value array of `u`
/// (one binary search per row, done **once** — the planned triangular
/// solves below never search again).
pub fn diag_pointers(u: &Csr) -> Result<Vec<usize>> {
    let n = u.n_rows();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (cols, _) = u.row(i);
        match cols.binary_search(&i) {
            Ok(k) => out.push(u.row_ptr()[i] + k),
            Err(_) => return Err(Error::MissingDiagonal(i)),
        }
    }
    Ok(out)
}

/// Reciprocals of the diagonal values addressed by `diag_ptr`, so the
/// back-substitution inner loop multiplies instead of divides.
pub fn diag_reciprocals(u: &Csr, diag_ptr: &[usize]) -> Vec<f64> {
    diag_ptr.iter().map(|&k| 1.0 / u.vals()[k]).collect()
}

/// Checked variant of [`diag_reciprocals`]: returns a structured error when
/// a diagonal is zero, non-finite, or so small its reciprocal overflows —
/// instead of silently seeding every later triangular sweep with Inf/NaN.
pub fn diag_reciprocals_checked(u: &Csr, diag_ptr: &[usize]) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(diag_ptr.len());
    for (i, &k) in diag_ptr.iter().enumerate() {
        let d = u.vals()[k];
        if d == 0.0 {
            return Err(Error::ZeroPivot(i));
        }
        if !d.is_finite() {
            return Err(Error::NonFinitePivot(i));
        }
        let r = 1.0 / d;
        if !r.is_finite() {
            return Err(Error::NonFinitePivot(i));
        }
        out.push(r);
    }
    Ok(out)
}

/// Solves `U x = b` where `U` is upper triangular (diagonal stored) in CSR,
/// in place. Entries with column index `< row` are ignored.
///
/// Convenience wrapper: computes the diagonal pointers/reciprocals on every
/// call. Hot paths (ILU sweeps, Schur iterations) must precompute them with
/// [`diag_pointers`]/[`diag_reciprocals`] and call [`solve_upper_planned`]
/// so the inner loop is allocation-, search-, and division-free.
///
/// # Panics
/// Panics in debug builds when a diagonal entry is missing; in release the
/// behaviour on a missing diagonal is a non-finite result rather than UB.
pub fn solve_upper(u: &Csr, x: &mut [f64]) {
    let diag_ptr = match diag_pointers(u) {
        Ok(d) => d,
        Err(e) => {
            debug_assert!(false, "missing diagonal: {e:?}");
            // Release fallback mirroring the historical behaviour: rows
            // without a diagonal treat their first entry as the pivot.
            (0..u.n_rows()).map(|i| u.row_ptr()[i]).collect()
        }
    };
    let diag_inv = diag_reciprocals(u, &diag_ptr);
    solve_upper_planned(u, &diag_ptr, &diag_inv, x);
}

/// Search- and division-free upper triangular solve: `diag_ptr` addresses
/// each row's diagonal inside `u`'s value array (from [`diag_pointers`]),
/// `diag_inv` holds the diagonal reciprocals (from [`diag_reciprocals`]).
pub fn solve_upper_planned(u: &Csr, diag_ptr: &[usize], diag_inv: &[f64], x: &mut [f64]) {
    let n = u.n_rows();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(diag_ptr.len(), n);
    debug_assert_eq!(diag_inv.len(), n);
    let row_ptr = u.row_ptr();
    let cols = u.col_idx();
    let vals = u.vals();
    for i in (0..n).rev() {
        let mut acc = x[i];
        for k in (diag_ptr[i] + 1)..row_ptr[i + 1] {
            acc -= vals[k] * x[cols[k]];
        }
        x[i] = acc * diag_inv[i];
    }
}

/// Applies a merged LU factorization (unit L strictly below the diagonal,
/// U on and above) to solve `L U x = b` in place.
pub fn solve_lu_merged(lu: &Csr, x: &mut [f64]) {
    solve_unit_lower(lu, x);
    solve_upper(lu, x);
}

/// Level-scheduled `L U x = b` sweep of a merged factor, fanning the rows
/// of each sufficiently wide level across the worker pool.
///
/// Rows within a level are mutually independent and read only values
/// produced by earlier levels, so each row's accumulation order is exactly
/// that of the sequential sweep — the result is **bitwise identical** to
/// the row-ordered solve for any budget. Wide levels are computed into a
/// scratch buffer in parallel and scattered back serially (the scatter is
/// one store per row); narrow levels run in place.
///
/// The factor is passed as its raw CSR arrays (`row_ptr`, `cols`, `vals`)
/// because a numerically refactored factor shares the index arrays with its
/// donor and owns only the values.
pub fn solve_lu_leveled_par(
    row_ptr: &[usize],
    cols: &[usize],
    vals: &[f64],
    diag_ptr: &[usize],
    diag_inv: &[f64],
    levels: &SweepLevels,
    x: &mut [f64],
) {
    debug_assert_eq!(x.len() + 1, row_ptr.len());
    let budget = parallel::current_budget();
    let mut scratch: Vec<f64> = Vec::new();
    for l in 0..levels.n_lower_levels() {
        let rows = levels.lower_level(l);
        if budget <= 1 || rows.len() < SWEEP_PAR_MIN_WIDTH {
            for &i in rows {
                let mut acc = x[i];
                for k in row_ptr[i]..diag_ptr[i] {
                    acc -= vals[k] * x[cols[k]];
                }
                x[i] = acc;
            }
        } else {
            scratch.resize(rows.len(), 0.0);
            let xs: &[f64] = x;
            parallel::for_each_chunk_mut(&mut scratch, budget, |_, start, out| {
                let len = out.len();
                for (o, &i) in out.iter_mut().zip(&rows[start..start + len]) {
                    let mut acc = xs[i];
                    for k in row_ptr[i]..diag_ptr[i] {
                        acc -= vals[k] * xs[cols[k]];
                    }
                    *o = acc;
                }
            });
            for (&i, &v) in rows.iter().zip(&scratch) {
                x[i] = v;
            }
        }
    }
    for l in 0..levels.n_upper_levels() {
        let rows = levels.upper_level(l);
        if budget <= 1 || rows.len() < SWEEP_PAR_MIN_WIDTH {
            for &i in rows {
                let d = diag_ptr[i];
                let mut acc = x[i];
                for k in (d + 1)..row_ptr[i + 1] {
                    acc -= vals[k] * x[cols[k]];
                }
                x[i] = acc * diag_inv[i];
            }
        } else {
            scratch.resize(rows.len(), 0.0);
            let xs: &[f64] = x;
            parallel::for_each_chunk_mut(&mut scratch, budget, |_, start, out| {
                let len = out.len();
                for (o, &i) in out.iter_mut().zip(&rows[start..start + len]) {
                    let d = diag_ptr[i];
                    let mut acc = xs[i];
                    for k in (d + 1)..row_ptr[i + 1] {
                        acc -= vals[k] * xs[cols[k]];
                    }
                    *o = acc * diag_inv[i];
                }
            });
            for (&i, &v) in rows.iter().zip(&scratch) {
                x[i] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn blas1_kernels() {
        let x = [1.0, 2.0, 2.0];
        assert_eq!(dot(&x, &x), 9.0);
        assert_eq!(norm2(&x), 3.0);
        assert_eq!(norm_inf(&[-5.0, 2.0]), 5.0);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, 5.0, 5.0]);
        axpby(1.0, &x, -1.0, &mut y);
        assert_eq!(y, [-2.0, -3.0, -3.0]);
        let mut z = [2.0, 4.0];
        scale(0.5, &mut z);
        assert_eq!(z, [1.0, 2.0]);
    }

    #[test]
    fn unit_lower_solve() {
        // L = [1 0 0; 2 1 0; 1 3 1] (unit diagonal implicit — stored anyway)
        let l = Csr::from_dense_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
        ]);
        let x_true = [1.0, -1.0, 2.0];
        // b = L x
        let b = [1.0, 1.0, 0.0];
        let mut x = b;
        solve_unit_lower(&l, &mut x);
        assert_eq!(x, x_true);
    }

    #[test]
    fn upper_solve() {
        let u = Csr::from_dense_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![0.0, 4.0, -1.0],
            vec![0.0, 0.0, 5.0],
        ]);
        let x_true = [1.0, 2.0, 3.0];
        let b = u.mul_vec(&x_true);
        let mut x = b;
        solve_upper(&u, &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn planned_upper_solve_matches_wrapper_bitwise() {
        let u = Csr::from_dense_rows(&[
            vec![2.0, 1.0, 0.5],
            vec![0.0, 4.0, -1.0],
            vec![0.0, 0.0, 5.0],
        ]);
        let diag_ptr = diag_pointers(&u).unwrap();
        assert_eq!(diag_ptr, vec![0, 3, 5]);
        let diag_inv = diag_reciprocals(&u, &diag_ptr);
        let b = [1.0, 2.0, 3.0];
        let mut x1 = b;
        solve_upper(&u, &mut x1);
        let mut x2 = b;
        solve_upper_planned(&u, &diag_ptr, &diag_inv, &mut x2);
        assert_eq!(x1, x2, "wrapper delegates to the planned kernel");
    }

    #[test]
    fn diag_pointers_reports_missing_diagonal() {
        let u = Csr::from_dense_rows(&[vec![0.0, 1.0], vec![0.0, 3.0]]);
        assert!(matches!(
            diag_pointers(&u),
            Err(crate::Error::MissingDiagonal(0))
        ));
    }

    #[test]
    fn merged_lu_solve_roundtrip() {
        // A = L*U with L unit lower [1 0; 0.5 1], U upper [4 2; 0 3]
        // merged storage: [4 2; 0.5 3]
        let merged = Csr::from_dense_rows(&[vec![4.0, 2.0], vec![0.5, 3.0]]);
        // A = [4 2; 2 4]
        let a = Csr::from_dense_rows(&[vec![4.0, 2.0], vec![2.0, 4.0]]);
        let x_true = [3.0, -1.0];
        let b = a.mul_vec(&x_true);
        let mut x = b;
        solve_lu_merged(&merged, &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-14, "{x:?}");
        }
    }

    #[test]
    fn large_blas1_par_kernels_are_budget_invariant() {
        // Vectors past PAR_MIN_LEN so the pooled paths actually run.
        let n = 3 * PAR_MIN_LEN + 17;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin() + 0.2).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.007).cos() - 0.1).collect();
        let want_dot = dot(&x, &y);
        let want_norm = {
            let _b = crate::parallel::enter_budget(1);
            norm2_par(&x)
        };
        let mut want_axpy = y.clone();
        axpy(0.37, &x, &mut want_axpy);
        let mut want_scale = x.clone();
        scale(-1.25, &mut want_scale);
        for threads in [1usize, 2, 4, 8] {
            let _b = crate::parallel::enter_budget(threads);
            assert_eq!(dot_par(&x, &y).to_bits(), want_dot.to_bits(), "t={threads}");
            assert_eq!(norm2_par(&x).to_bits(), want_norm.to_bits(), "t={threads}");
            let mut got = y.clone();
            axpy_par(0.37, &x, &mut got);
            assert_eq!(got, want_axpy, "t={threads}");
            let mut got = x.clone();
            scale_par(-1.25, &mut got);
            assert_eq!(got, want_scale, "t={threads}");
        }
    }

    #[test]
    fn wide_level_sweep_fans_out_and_stays_bitwise() {
        // Block-diagonal merged factor: n rows, every row independent, one
        // level of width n >= SWEEP_PAR_MIN_WIDTH so the pooled branch runs.
        let n = 2 * SWEEP_PAR_MIN_WIDTH;
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let mut r = vec![0.0; n];
            r[i] = 2.0 + (i % 7) as f64 * 0.25;
            rows.push(r);
        }
        let lu = Csr::from_dense_rows(&rows);
        let diag_ptr = diag_pointers(&lu).unwrap();
        let diag_inv = diag_reciprocals(&lu, &diag_ptr);
        let levels = SweepLevels::from_merged(&lu, &diag_ptr);
        assert!(levels.max_level_width() >= SWEEP_PAR_MIN_WIDTH);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut want = b.clone();
        {
            let _b1 = crate::parallel::enter_budget(1);
            solve_lu_leveled_par(
                lu.row_ptr(),
                lu.col_idx(),
                lu.vals(),
                &diag_ptr,
                &diag_inv,
                &levels,
                &mut want,
            );
        }
        for threads in [2usize, 4, 8] {
            let _bt = crate::parallel::enter_budget(threads);
            let mut got = b.clone();
            solve_lu_leveled_par(
                lu.row_ptr(),
                lu.col_idx(),
                lu.vals(),
                &diag_ptr,
                &diag_inv,
                &levels,
                &mut got,
            );
            assert_eq!(got, want, "t={threads}");
        }
    }
}
