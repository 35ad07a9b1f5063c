//! Structured health report of an incomplete factorization.
//!
//! Incomplete factorizations (ILU(0), ILUT, the ARMS last level) fail
//! quietly: a tiny or zero pivot turns the triangular sweeps into noise
//! amplifiers long before anything panics. [`FactorReport`] captures what
//! the factorization actually produced — pivot extrema, fill, zero/small
//! pivot counts, non-finite entries — so callers can decide whether to
//! accept the factors, retry with a diagonal shift, or fall back to a
//! cheaper preconditioner.

/// Health summary of an incomplete LU factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorReport {
    /// Matrix dimension.
    pub n: usize,
    /// Stored nonzeros of the factor, pivots included (fill).
    pub fill_nnz: usize,
    /// Smallest pivot magnitude, `min_i |u_ii|`.
    pub min_pivot: f64,
    /// Largest pivot magnitude, `max_i |u_ii|`.
    pub max_pivot: f64,
    /// Pivots that are exactly zero.
    pub zero_pivots: usize,
    /// Pivots below the small-pivot threshold (relative to `max_pivot`).
    pub small_pivots: usize,
    /// NaN or infinite entries anywhere in the factor.
    pub nonfinite: usize,
    /// Pivots the factorization itself replaced to stay nonsingular.
    pub pivot_fixes: usize,
    /// Diagonal shift `alpha` under which these factors were produced
    /// (`0.0` = unshifted).
    pub shift_alpha: f64,
    /// Shift-ladder rungs spent before this factorization was accepted
    /// (`0` = first attempt succeeded).
    pub shift_attempts: usize,
}

/// Relative threshold below which a pivot counts as "small":
/// `|u_ii| < SMALL_PIVOT_RTOL · max_j |u_jj|`.
pub const SMALL_PIVOT_RTOL: f64 = 1e-13;

impl FactorReport {
    /// Scans a factor stored as strict lower values, pivots and strict upper
    /// values.
    pub fn scan(l_vals: &[f64], diag: &[f64], u_vals: &[f64]) -> FactorReport {
        let mut min_pivot = f64::INFINITY;
        let mut max_pivot = 0.0f64;
        let mut zero_pivots = 0usize;
        let nonfinite = [l_vals, diag, u_vals]
            .iter()
            .flat_map(|part| part.iter())
            .filter(|v| !v.is_finite())
            .count();
        for d in diag.iter().map(|d| d.abs()) {
            if d == 0.0 {
                zero_pivots += 1;
            }
            if d.is_finite() {
                min_pivot = min_pivot.min(d);
                max_pivot = max_pivot.max(d);
            } else {
                min_pivot = f64::NAN;
            }
        }
        if diag.is_empty() {
            min_pivot = 0.0;
        }
        let small_pivots = diag
            .iter()
            .filter(|d| d.is_finite() && d.abs() < SMALL_PIVOT_RTOL * max_pivot)
            .count();
        FactorReport {
            n: diag.len(),
            fill_nnz: l_vals.len() + diag.len() + u_vals.len(),
            min_pivot,
            max_pivot,
            zero_pivots,
            small_pivots,
            nonfinite,
            pivot_fixes: 0,
            shift_alpha: 0.0,
            shift_attempts: 0,
        }
    }

    /// Whether the factors are safe to sweep with: every entry finite and
    /// no zero or dangerously small pivots.
    pub fn healthy(&self) -> bool {
        self.nonfinite == 0
            && self.zero_pivots == 0
            && self.small_pivots == 0
            && self.min_pivot.is_finite()
            && self.min_pivot > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_flags_zero_and_nonfinite() {
        let rep = FactorReport::scan(&[], &[2.0, 0.0, 1.0], &[f64::NAN]);
        assert_eq!(rep.zero_pivots, 1);
        assert_eq!(rep.nonfinite, 1);
        assert!(!rep.healthy());
    }

    #[test]
    fn scan_accepts_clean_factor() {
        let rep = FactorReport::scan(&[-1.0], &[4.0, 3.5, 4.2], &[-1.0]);
        assert!(rep.healthy());
        assert_eq!(rep.fill_nnz, 5);
        assert!((rep.min_pivot - 3.5).abs() < 1e-15);
        assert!((rep.max_pivot - 4.2).abs() < 1e-15);
    }

    #[test]
    fn small_pivot_is_relative() {
        let rep = FactorReport::scan(&[], &[1e20, 1e-3], &[]);
        // 1e-3 is tiny relative to 1e20.
        assert_eq!(rep.small_pivots, 1);
        assert!(!rep.healthy());
    }
}
