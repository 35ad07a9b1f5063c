//! Level scheduling for sparse triangular sweeps.
//!
//! A triangular solve looks inherently sequential, but rows whose
//! off-diagonal pattern only references already-finished rows can be swept
//! together. Grouping rows into such *levels* (Saad, §11.6) exposes the
//! sweep's parallelism without changing a single floating-point operation:
//! every row still consumes exactly the entries it consumed in the natural
//! order, so a level-ordered sweep is bitwise identical to the row-ordered
//! one.
//!
//! [`SweepLevels`] is computed once per factorization from the split
//! patterns of an LU factor (strict lower = `L`, strict upper of `U`, as
//! stored by the ILU kernels in `parapre-krylov`) and kept alongside it as
//! metadata: the benches report the level counts/widths as the sweep's
//! available parallelism, and `LuFactors::solve_in_place_leveled` drives
//! the actual level-ordered sweep.

/// Level-schedule metadata for the forward (`L`) and backward (`U`) sweeps
/// of a triangular factor.
///
/// Rows are stored level-major in flat arrays (`ptr`/`rows` pairs, CSR
/// style); within a level rows are in ascending index order, which keeps
/// construction deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepLevels {
    lower_ptr: Vec<usize>,
    lower_rows: Vec<usize>,
    upper_ptr: Vec<usize>,
    upper_rows: Vec<usize>,
    /// Rows in the widest level of either sweep.
    max_width: usize,
}

impl SweepLevels {
    /// Builds the schedule from the strict lower (`l_ptr`/`l_cols`) and
    /// strict upper (`u_ptr`/`u_cols`) patterns of a factor, CSR style.
    pub fn from_split(l_ptr: &[usize], l_cols: &[u32], u_ptr: &[usize], u_cols: &[u32]) -> Self {
        let n = l_ptr.len().saturating_sub(1);
        debug_assert_eq!(u_ptr.len(), l_ptr.len());

        // Forward sweep: row i waits for every j < i stored in its L row.
        let mut level = vec![0usize; n];
        let mut n_levels = 0usize;
        for i in 0..n {
            let mut lv = 0usize;
            for &j in &l_cols[l_ptr[i]..l_ptr[i + 1]] {
                lv = lv.max(level[j as usize] + 1);
            }
            level[i] = lv;
            n_levels = n_levels.max(lv + 1);
        }
        let (lower_ptr, lower_rows) = bucket_by_level(&level, if n == 0 { 0 } else { n_levels });

        // Backward sweep: row i waits for every j > i stored in its U row.
        let mut n_up = 0usize;
        for i in (0..n).rev() {
            let mut lv = 0usize;
            for &j in &u_cols[u_ptr[i]..u_ptr[i + 1]] {
                lv = lv.max(level[j as usize] + 1);
            }
            level[i] = lv;
            n_up = n_up.max(lv + 1);
        }
        let (upper_ptr, upper_rows) = bucket_by_level(&level, if n == 0 { 0 } else { n_up });

        let widths = |ptr: &[usize]| ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        SweepLevels {
            max_width: widths(&lower_ptr).max(widths(&upper_ptr)),
            lower_ptr,
            lower_rows,
            upper_ptr,
            upper_rows,
        }
    }

    /// Number of levels in the forward (`L`) sweep.
    pub fn n_lower_levels(&self) -> usize {
        self.lower_ptr.len().saturating_sub(1)
    }

    /// Number of levels in the backward (`U`) sweep.
    pub fn n_upper_levels(&self) -> usize {
        self.upper_ptr.len().saturating_sub(1)
    }

    /// Rows of forward-sweep level `l` (independent of each other).
    pub fn lower_level(&self, l: usize) -> &[usize] {
        &self.lower_rows[self.lower_ptr[l]..self.lower_ptr[l + 1]]
    }

    /// Rows of backward-sweep level `l` (independent of each other).
    pub fn upper_level(&self, l: usize) -> &[usize] {
        &self.upper_rows[self.upper_ptr[l]..self.upper_ptr[l + 1]]
    }

    /// Mean rows per level across both sweeps — the schedule's available
    /// parallelism (1.0 means fully sequential).
    pub fn mean_level_width(&self) -> f64 {
        let levels = self.n_lower_levels() + self.n_upper_levels();
        if levels == 0 {
            return 0.0;
        }
        (self.lower_rows.len() + self.upper_rows.len()) as f64 / levels as f64
    }

    /// Widest level across both sweeps — the peak fan-out a level-parallel
    /// sweep of this factor can use.
    pub fn max_level_width(&self) -> usize {
        self.max_width
    }
}

/// Buckets row indices by their level into a flat (ptr, rows) pair.
fn bucket_by_level(level: &[usize], n_levels: usize) -> (Vec<usize>, Vec<usize>) {
    let mut counts = vec![0usize; n_levels + 1];
    for &lv in level {
        counts[lv + 1] += 1;
    }
    for l in 0..n_levels {
        counts[l + 1] += counts[l];
    }
    let ptr = counts.clone();
    let mut rows = vec![0usize; level.len()];
    let mut next = counts;
    // Ascending row order within each level.
    for (i, &lv) in level.iter().enumerate() {
        rows[next[lv]] = i;
        next[lv] += 1;
    }
    (ptr, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SplitCsr;
    use crate::Csr;

    /// The schedule of a merged factor (test helper).
    fn levels_of(lu: &Csr) -> SweepLevels {
        let s = SplitCsr::from_merged(lu).expect("diagonal present");
        SweepLevels::from_split(&s.l_ptr, &s.l_cols, &s.u_ptr, &s.u_cols)
    }

    #[test]
    fn diagonal_matrix_is_one_level() {
        let d = Csr::identity(5);
        let lv = levels_of(&d);
        assert_eq!(lv.n_lower_levels(), 1);
        assert_eq!(lv.n_upper_levels(), 1);
        assert_eq!(lv.lower_level(0), &[0, 1, 2, 3, 4]);
        assert_eq!(lv.mean_level_width(), 5.0);
    }

    #[test]
    fn bidiagonal_chain_is_fully_sequential() {
        // Lower bidiagonal: every row depends on the previous one.
        let n = 6;
        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            rows[i][i] = 2.0;
            if i > 0 {
                rows[i][i - 1] = -1.0;
            }
        }
        let lu = Csr::from_dense_rows(&rows);
        let lv = levels_of(&lu);
        assert_eq!(lv.n_lower_levels(), n);
        for l in 0..n {
            assert_eq!(lv.lower_level(l), &[l]);
        }
        // The strict upper part is empty: backward sweep is one level.
        assert_eq!(lv.n_upper_levels(), 1);
    }

    #[test]
    fn levels_respect_dependencies() {
        // Arrow pattern: last row depends on all, forcing it to a later
        // level than everything it reads.
        let lu = Csr::from_dense_rows(&[
            vec![2.0, 0.0, 0.0, 1.0],
            vec![0.0, 2.0, 0.0, 1.0],
            vec![0.0, 0.0, 2.0, 1.0],
            vec![1.0, 1.0, 1.0, 2.0],
        ]);
        let lv = levels_of(&lu);
        // Forward: rows 0..3 at level 0, row 3 at level 1.
        assert_eq!(lv.lower_level(0), &[0, 1, 2]);
        assert_eq!(lv.lower_level(1), &[3]);
        // Backward: row 3 first, rows 0..3 after it.
        assert_eq!(lv.upper_level(0), &[3]);
        assert_eq!(lv.upper_level(1), &[0, 1, 2]);
    }

    #[test]
    fn every_row_appears_exactly_once() {
        let lu = Csr::from_dense_rows(&[
            vec![4.0, 1.0, 0.0, 0.0],
            vec![1.0, 4.0, 1.0, 0.0],
            vec![0.0, 1.0, 4.0, 1.0],
            vec![0.0, 0.0, 1.0, 4.0],
        ]);
        let lv = levels_of(&lu);
        let mut seen = [false; 4];
        for l in 0..lv.n_lower_levels() {
            for &r in lv.lower_level(l) {
                assert!(!seen[r]);
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
