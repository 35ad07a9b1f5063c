//! Coordinate (triplet) format used as an assembly staging buffer.

use crate::{Csr, Error, Result};

/// A coordinate-format sparse matrix builder.
///
/// Finite-element assembly pushes one triplet per element contribution;
/// [`Coo::to_csr`] sorts and **sums duplicates**, matching the semantics of
/// `MatSetValues(..., ADD_VALUES)`-style assembly.
#[derive(Debug, Clone)]
pub struct Coo {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Coo {
    /// Creates an empty builder of the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Coo {
            n_rows,
            n_cols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty builder with a triplet capacity hint.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        Coo {
            n_rows,
            n_cols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of raw triplets pushed so far (duplicates not merged).
    pub fn n_triplets(&self) -> usize {
        self.vals.len()
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds (assembly bugs should fail
    /// loudly, not corrupt the matrix).
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n_rows, "coo push: row {i} out of {}", self.n_rows);
        assert!(j < self.n_cols, "coo push: col {j} out of {}", self.n_cols);
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Fallible variant of [`Coo::push`].
    pub fn try_push(&mut self, i: usize, j: usize, v: f64) -> Result<()> {
        if i >= self.n_rows {
            return Err(Error::IndexOutOfBounds {
                index: i,
                bound: self.n_rows,
            });
        }
        if j >= self.n_cols {
            return Err(Error::IndexOutOfBounds {
                index: j,
                bound: self.n_cols,
            });
        }
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
        Ok(())
    }

    /// Moves `other`'s triplets after this builder's, in their order, so
    /// [`Coo::to_csr`] sums duplicates as if they had been pushed here.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn append(&mut self, other: Coo) {
        assert_eq!(
            (self.n_rows, self.n_cols),
            (other.n_rows, other.n_cols),
            "coo append: shapes differ"
        );
        self.rows.extend_from_slice(&other.rows);
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend_from_slice(&other.vals);
    }

    /// Converts to CSR, summing duplicate entries and dropping exact zeros
    /// produced by cancellation only if `drop_zeros` is set.
    pub fn to_csr_opts(&self, drop_zeros: bool) -> Csr {
        // Counting sort by row, then sort each row segment by column and
        // merge duplicates. O(nnz log rowlen) and allocation-lean.
        let nnz = self.vals.len();
        let mut counts = vec![0usize; self.n_rows + 1];
        for &i in &self.rows {
            counts[i + 1] += 1;
        }
        for i in 0..self.n_rows {
            counts[i + 1] += counts[i];
        }
        let mut order = vec![0usize; nnz];
        let mut next = counts.clone();
        for (k, &i) in self.rows.iter().enumerate() {
            order[next[i]] = k;
            next[i] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        row_ptr.push(0);
        let mut seg: Vec<(usize, f64)> = Vec::new();
        for i in 0..self.n_rows {
            seg.clear();
            for &k in &order[counts[i]..counts[i + 1]] {
                seg.push((self.cols[k], self.vals[k]));
            }
            seg.sort_unstable_by_key(|&(j, _)| j);
            let mut iter = seg.iter().copied();
            if let Some((mut cur_j, mut cur_v)) = iter.next() {
                for (j, v) in iter {
                    if j == cur_j {
                        cur_v += v;
                    } else {
                        if !(drop_zeros && cur_v == 0.0) {
                            col_idx.push(cur_j);
                            vals.push(cur_v);
                        }
                        cur_j = j;
                        cur_v = v;
                    }
                }
                if !(drop_zeros && cur_v == 0.0) {
                    col_idx.push(cur_j);
                    vals.push(cur_v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts_unchecked(self.n_rows, self.n_cols, row_ptr, col_idx, vals)
    }

    /// Converts to CSR, summing duplicates and keeping explicit zeros.
    pub fn to_csr(&self) -> Csr {
        self.to_csr_opts(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 0, 2.5);
        c.push(1, 0, -1.0);
        c.push(0, 1, 4.0);
        let a = c.to_csr();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn unsorted_input_sorted_output() {
        let mut c = Coo::new(3, 3);
        c.push(2, 2, 1.0);
        c.push(0, 2, 2.0);
        c.push(0, 0, 3.0);
        c.push(1, 1, 4.0);
        let a = c.to_csr();
        a.validate().unwrap();
        assert_eq!(a.row(0).0, &[0, 2]);
    }

    #[test]
    fn cancellation_dropped_when_requested() {
        let mut c = Coo::new(1, 2);
        c.push(0, 1, 5.0);
        c.push(0, 1, -5.0);
        c.push(0, 0, 1.0);
        assert_eq!(c.to_csr().nnz(), 2);
        assert_eq!(c.to_csr_opts(true).nnz(), 1);
    }

    #[test]
    fn out_of_bounds_push_fails() {
        let mut c = Coo::new(1, 1);
        assert!(c.try_push(1, 0, 1.0).is_err());
        assert!(c.try_push(0, 3, 1.0).is_err());
        assert!(c.try_push(0, 0, 1.0).is_ok());
    }

    #[test]
    fn empty_rows_ok() {
        let c = Coo::new(4, 4);
        let a = c.to_csr();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.n_rows(), 4);
        a.validate().unwrap();
    }
}
