//! The least-squares recurrence of GMRES: Givens-rotation QR of the Arnoldi
//! Hessenberg matrix, one column at a time, so the residual norm of the
//! cycle's best iterate is known after every column without forming it.
//!
//! This is the part of GMRES that does not depend on where the vectors live.
//! The driver ([`crate::gmres::arnoldi`]) fills [`GivensLsq::column`] with its
//! orthogonalization coefficients — local sums inside a rank, all-reduced
//! ones across ranks — and reads the residual estimate and the update
//! coefficients back. It holds no policy: when to stop, restart or distrust
//! the estimate is the driver's.

/// Hessenberg columns, rotations, rotated right-hand side and solution of
/// one restart cycle, allocated once per solve.
///
/// The methods are `#[inline]` because the driver is generic and is
/// instantiated in other crates: inlined, it sees that `column(k)` has
/// `k + 2` entries, as it did when it sliced its own vector (E24 measured
/// 3 % of a warm solve request without the hint). `rotate`, `estimate` and
/// `solve` are `#[inline(always)]`: with the hint alone the release
/// `parapre-netd` kept `rotate` and `solve` out of line (`nm -C` listed
/// both), and each has one call site in the driver.
#[derive(Debug)]
pub struct GivensLsq {
    /// Column stride: `restart + 1`.
    ld: usize,
    /// Column `j` occupies `h[j·ld .. j·ld + j + 2]`.
    h: Vec<f64>,
    /// The cycle's rotations `(c, s)`; its length is the columns rotated in.
    rot: Vec<(f64, f64)>,
    g: Vec<f64>,
    y: Vec<f64>,
}

impl GivensLsq {
    /// State for cycles of at most `restart` columns.
    pub fn new(restart: usize) -> Self {
        let ld = restart + 1;
        GivensLsq {
            ld,
            h: vec![0.0; restart * ld],
            rot: Vec::with_capacity(restart),
            g: vec![0.0; ld],
            y: vec![0.0; restart],
        }
    }

    /// Opens a cycle whose starting residual has norm `beta`.
    #[inline]
    pub fn start(&mut self, beta: f64) {
        self.rot.clear();
        self.g.fill(0.0);
        self.g[0] = beta;
    }

    /// Column `k` of the Hessenberg matrix, for the caller to fill: `k + 1`
    /// projection coefficients, then the norm of what was left.
    #[inline]
    pub fn column(&mut self, k: usize) -> &mut [f64] {
        &mut self.h[k * self.ld..k * self.ld + k + 2]
    }

    /// Rotates column `k` (the next one: `k` columns are in) into the
    /// triangular factor and returns the residual norm of the least-squares
    /// problem over `k + 1` columns. A column holding a NaN or an infinity is
    /// left out and `None` returned: the first `k` columns still solve.
    #[inline(always)]
    pub fn rotate(&mut self, k: usize) -> Option<f64> {
        debug_assert_eq!(k, self.rot.len());
        let hcol = &mut self.h[k * self.ld..k * self.ld + k + 2];
        if hcol.iter().any(|h| !h.is_finite()) {
            return None;
        }
        for (i, &(c, s)) in self.rot.iter().enumerate() {
            let t = c * hcol[i] + s * hcol[i + 1];
            hcol[i + 1] = -s * hcol[i] + c * hcol[i + 1];
            hcol[i] = t;
        }
        let (c, s) = givens_rotation(hcol[k], hcol[k + 1]);
        hcol[k] = c * hcol[k] + s * hcol[k + 1];
        hcol[k + 1] = 0.0;
        self.rot.push((c, s));
        let gk = self.g[k];
        self.g[k] = c * gk;
        self.g[k + 1] = -s * gk;
        Some(self.g[k + 1].abs())
    }

    /// The residual norm [`GivensLsq::rotate`] would return for column `k`
    /// as it stands, without rotating it in (NaN for a non-finite column).
    #[inline(always)]
    pub fn estimate(&self, k: usize) -> f64 {
        debug_assert_eq!(k, self.rot.len());
        let hcol = &self.h[k * self.ld..k * self.ld + k + 2];
        let mut diag = hcol[0];
        for (i, &(c, s)) in self.rot.iter().enumerate() {
            diag = -s * diag + c * hcol[i + 1];
        }
        let (_, s) = givens_rotation(diag, hcol[k + 1]);
        (s * self.g[k]).abs()
    }

    /// How many of the first `k` columns lead up to the first zero on the
    /// diagonal of `R` (`k` if there is none). Only a column whose rotated
    /// diagonal and norm both vanished puts one there, and that column ends
    /// its cycle.
    #[inline]
    pub fn nonsingular(&self, k: usize) -> usize {
        (0..k)
            .find(|&i| self.h[i * self.ld + i] == 0.0)
            .unwrap_or(k)
    }

    /// Coefficients `y` of the cycle's best iterate over its first `k`
    /// columns: back-substitution of `R y = g`.
    #[inline(always)]
    pub fn solve(&mut self, k: usize) -> &[f64] {
        debug_assert!(k <= self.rot.len());
        for i in (0..k).rev() {
            let mut acc = self.g[i];
            for j in i + 1..k {
                acc -= self.h[j * self.ld + i] * self.y[j];
            }
            self.y[i] = acc / self.h[i * self.ld + i];
        }
        &self.y[..k]
    }
}

/// Robust Givens rotation `(c, s)` with `c·a + s·b = r`, `-s·a + c·b = 0`.
fn givens_rotation(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a == 0.0 {
        (0.0, 1.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_and_coefficients_solve_the_small_least_squares_problem() {
        // H̄ = [[2, 1], [1, 3], [0, 1]], β e₁ with β = 2.
        let mut lsq = GivensLsq::new(3);
        lsq.start(2.0);
        lsq.column(0).copy_from_slice(&[2.0, 1.0]);
        let e0 = lsq.rotate(0).unwrap();
        lsq.column(1).copy_from_slice(&[1.0, 3.0, 1.0]);
        let e1 = lsq.rotate(1).unwrap();
        assert!(e1 <= e0 && e0 <= 2.0);
        let y = lsq.solve(2).to_vec();
        // The residual of β e₁ − H̄ y has the estimated norm and is
        // orthogonal to both columns.
        let r = [2.0 - 2.0 * y[0] - y[1], -(y[0] + 3.0 * y[1]), -y[1]];
        let norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - e1).abs() < 1e-14, "{norm} vs {e1}");
        assert!((2.0 * r[0] + r[1]).abs() < 1e-14);
        assert!((r[0] + 3.0 * r[1] + r[2]).abs() < 1e-14);
        // One column alone: y₀ minimizes ‖(2 − 2y, −y)‖.
        lsq.start(2.0);
        lsq.column(0).copy_from_slice(&[2.0, 1.0]);
        lsq.rotate(0).unwrap();
        assert!((lsq.solve(1)[0] - 0.8).abs() < 1e-15);
    }

    #[test]
    fn a_zero_on_the_diagonal_ends_the_nonsingular_block() {
        // H̄ = [[1, 1], [1, 1], [0, 0]]: the second column is the first's.
        let mut lsq = GivensLsq::new(2);
        lsq.start(2.0);
        lsq.column(0).copy_from_slice(&[1.0, 1.0]);
        lsq.rotate(0).unwrap();
        lsq.column(1).copy_from_slice(&[1.0, 1.0, 0.0]);
        assert_eq!(lsq.rotate(1), Some(0.0));
        assert_eq!(lsq.nonsingular(2), 1);
        assert!((lsq.solve(1)[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn a_non_finite_column_is_left_out() {
        let mut lsq = GivensLsq::new(2);
        lsq.start(1.0);
        lsq.column(0).copy_from_slice(&[1.0, 1.0]);
        lsq.rotate(0).unwrap();
        lsq.column(1).copy_from_slice(&[0.5, f64::NAN, 1.0]);
        assert_eq!(lsq.rotate(1), None);
        assert_eq!(lsq.solve(1).len(), 1);
    }
}
