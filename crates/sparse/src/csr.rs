//! Compressed sparse row matrices.

use crate::{Error, Result};

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (checked by [`Csr::validate`], maintained by all constructors):
/// * `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`, monotone non-decreasing;
/// * `col_idx.len() == vals.len() == row_ptr[n_rows]`;
/// * within each row, column indices are strictly increasing and `< n_cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

/// Result of [`Csr::split_rows`]: whole rows routed to an interior or a
/// boundary part, with the original row index of every split row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSplit {
    /// Rows referencing only columns below the threshold.
    pub interior: Csr,
    /// Original row index of each interior row.
    pub interior_rows: Vec<usize>,
    /// Rows referencing at least one column at/above the threshold.
    pub boundary: Csr,
    /// Original row index of each boundary row.
    pub boundary_rows: Vec<usize>,
}

impl Csr {
    /// Builds a CSR matrix from raw parts, validating the invariants.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self> {
        let m = Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
        };
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSR matrix from raw parts without validation.
    ///
    /// Callers must uphold the structural invariants; intended for kernels
    /// that construct rows in sorted order (assembly, ILU extraction).
    pub fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert!({
            let m = Csr {
                n_rows,
                n_cols,
                row_ptr: row_ptr.clone(),
                col_idx: col_idx.clone(),
                vals: vals.clone(),
            };
            m.validate().is_ok()
        });
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// An `n x n` empty (all-zero) matrix.
    pub fn zero(n_rows: usize, n_cols: usize) -> Self {
        Csr {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from dense row data (mostly for tests).
    pub fn from_dense_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for r in rows {
            assert_eq!(r.len(), n_cols, "ragged dense rows");
            for (j, &v) in r.iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row pointer array (length `n_rows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable value array (structure is immutable, values may be scaled).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Iterator over `(row, col, value)` of all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Looks up entry `(i, j)` by binary search; zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Checks all structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.row_ptr.len() != self.n_rows + 1 {
            return Err(Error::InvalidStructure("row_ptr length".into()));
        }
        if self.row_ptr[0] != 0 {
            return Err(Error::InvalidStructure("row_ptr[0] != 0".into()));
        }
        if *self.row_ptr.last().unwrap() != self.vals.len() || self.col_idx.len() != self.vals.len()
        {
            return Err(Error::InvalidStructure("nnz mismatch".into()));
        }
        for i in 0..self.n_rows {
            if self.row_ptr[i] > self.row_ptr[i + 1] {
                return Err(Error::InvalidStructure("row_ptr not monotone".into()));
            }
            let (cols, _) = self.row(i);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(Error::InvalidStructure(
                        "columns not strictly increasing".into(),
                    ));
                }
            }
            if let Some(&last) = cols.last() {
                if last >= self.n_cols {
                    return Err(Error::InvalidStructure("column index out of range".into()));
                }
            }
        }
        Ok(())
    }

    /// Sparse matrix-vector product `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "spmv: x length");
        assert_eq!(y.len(), self.n_rows, "spmv: y length");
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *yi = acc;
        }
    }

    /// Allocating variant of [`Csr::spmv`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv(x, &mut y);
        y
    }

    /// `y += alpha * A x`.
    pub fn spmv_acc(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *yi += alpha * acc;
        }
    }

    /// Splits the rows into an *interior* part (rows whose stored entries
    /// all have column `< col_threshold`) and a *boundary* part (rows with
    /// at least one entry at column `>= col_threshold`).
    ///
    /// This is the comm/compute-overlap split of a distributed SpMV: with
    /// ghost columns numbered at the tail, interior rows can be computed
    /// before any ghost value has arrived. Both parts keep this matrix's
    /// full column count, and `y[rows[k]] = part_y[k]` scatters results
    /// back; because each part keeps whole rows, the per-row reduction
    /// order is untouched and the recombined product is bitwise identical
    /// to [`Csr::spmv`].
    pub fn split_rows(&self, col_threshold: usize) -> RowSplit {
        let mut interior_rows = Vec::new();
        let mut boundary_rows = Vec::new();
        for i in 0..self.n_rows {
            let (cols, _) = self.row(i);
            // Columns are sorted: the last one decides.
            if cols.last().is_some_and(|&c| c >= col_threshold) {
                boundary_rows.push(i);
            } else {
                interior_rows.push(i);
            }
        }
        let take = |rows: &[usize]| -> Csr {
            let mut row_ptr = Vec::with_capacity(rows.len() + 1);
            let mut col_idx = Vec::new();
            let mut vals = Vec::new();
            row_ptr.push(0);
            for &i in rows {
                let (cols, vs) = self.row(i);
                col_idx.extend_from_slice(cols);
                vals.extend_from_slice(vs);
                row_ptr.push(col_idx.len());
            }
            Csr {
                n_rows: rows.len(),
                n_cols: self.n_cols,
                row_ptr,
                col_idx,
                vals,
            }
        };
        RowSplit {
            interior: take(&interior_rows),
            interior_rows,
            boundary: take(&boundary_rows),
            boundary_rows,
        }
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &j in &self.col_idx {
            counts[j + 1] += 1;
        }
        for j in 0..self.n_cols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let nnz = self.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut vals = vec![0.0; nnz];
        let mut next = counts;
        for i in 0..self.n_rows {
            let (cols, vs) = self.row(i);
            for (&j, &v) in cols.iter().zip(vs) {
                let dst = next[j];
                col_idx[dst] = i;
                vals[dst] = v;
                next[j] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Extracts the diagonal; fails if some diagonal entry is not stored.
    pub fn diagonal(&self) -> Result<Vec<f64>> {
        let n = self.n_rows.min(self.n_cols);
        let mut d = Vec::with_capacity(n);
        for i in 0..n {
            let (cols, vals) = self.row(i);
            match cols.binary_search(&i) {
                Ok(k) => d.push(vals[k]),
                Err(_) => return Err(Error::MissingDiagonal(i)),
            }
        }
        Ok(d)
    }

    /// Returns a copy with each diagonal entry shifted by
    /// `alpha · ‖row i‖∞ · sign(a_ii)` (sign `+1` for a zero or structurally
    /// missing diagonal), inserting missing diagonal entries so that the
    /// shifted matrix is always factorable by ILU-type methods. Empty rows
    /// use a unit row norm so they too get a nonzero pivot.
    pub fn with_shifted_diagonal(&self, alpha: f64) -> Csr {
        let nd = self.n_rows.min(self.n_cols);
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::with_capacity(self.col_idx.len() + nd);
        let mut vals = Vec::with_capacity(self.vals.len() + nd);
        row_ptr.push(0);
        for i in 0..self.n_rows {
            let (cols, vs) = self.row(i);
            if i >= nd {
                col_idx.extend_from_slice(cols);
                vals.extend_from_slice(vs);
                row_ptr.push(col_idx.len());
                continue;
            }
            let rownorm = vs.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
            match cols.binary_search(&i) {
                Ok(k) => {
                    let sign = if vs[k] < 0.0 { -1.0 } else { 1.0 };
                    col_idx.extend_from_slice(cols);
                    vals.extend_from_slice(vs);
                    vals[row_ptr[i] + k] += alpha * rownorm * sign;
                }
                Err(k) => {
                    col_idx.extend_from_slice(&cols[..k]);
                    vals.extend_from_slice(&vs[..k]);
                    col_idx.push(i);
                    vals.push(alpha * rownorm);
                    col_idx.extend_from_slice(&cols[k..]);
                    vals.extend_from_slice(&vs[k..]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts_unchecked(self.n_rows, self.n_cols, row_ptr, col_idx, vals)
    }

    /// Extracts the submatrix with the given (sorted or unsorted) row set and
    /// a column renumbering.
    ///
    /// `col_map(j) = Some(jj)` keeps column `j` as local column `jj`; `None`
    /// drops the column. `new_n_cols` is the local column count.
    pub fn extract(
        &self,
        rows: &[usize],
        col_map: impl Fn(usize) -> Option<usize>,
        new_n_cols: usize,
    ) -> Csr {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for &i in rows {
            scratch.clear();
            let (cols, vs) = self.row(i);
            for (&j, &v) in cols.iter().zip(vs) {
                if let Some(jj) = col_map(j) {
                    scratch.push((jj, v));
                }
            }
            scratch.sort_unstable_by_key(|&(jj, _)| jj);
            for &(jj, v) in &scratch {
                col_idx.push(jj);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            n_rows: rows.len(),
            n_cols: new_n_cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Computes `C = A + beta * B` (same shape; patterns may differ).
    pub fn add(&self, beta: f64, other: &Csr) -> Result<Csr> {
        if self.n_rows != other.n_rows {
            return Err(Error::DimensionMismatch {
                op: "add rows",
                expected: self.n_rows,
                found: other.n_rows,
            });
        }
        if self.n_cols != other.n_cols {
            return Err(Error::DimensionMismatch {
                op: "add cols",
                expected: self.n_cols,
                found: other.n_cols,
            });
        }
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for i in 0..self.n_rows {
            let (ca, va) = self.row(i);
            let (cb, vb) = other.row(i);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ca.len() || q < cb.len() {
                let ja = ca.get(p).copied().unwrap_or(usize::MAX);
                let jb = cb.get(q).copied().unwrap_or(usize::MAX);
                if ja < jb {
                    col_idx.push(ja);
                    vals.push(va[p]);
                    p += 1;
                } else if jb < ja {
                    col_idx.push(jb);
                    vals.push(beta * vb[q]);
                    q += 1;
                } else {
                    col_idx.push(ja);
                    vals.push(va[p] + beta * vb[q]);
                    p += 1;
                    q += 1;
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Sparse-sparse product `C = A * B` (row-by-row Gustavson algorithm).
    pub fn matmul(&self, other: &Csr) -> Result<Csr> {
        if self.n_cols != other.n_rows {
            return Err(Error::DimensionMismatch {
                op: "matmul inner",
                expected: self.n_cols,
                found: other.n_rows,
            });
        }
        let n = self.n_rows;
        let m = other.n_cols;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        // Gustavson sparse accumulator.
        let mut marker = vec![usize::MAX; m];
        let mut acc = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..n {
            touched.clear();
            let (ca, va) = self.row(i);
            for (&k, &aik) in ca.iter().zip(va) {
                let (cb, vb) = other.row(k);
                for (&j, &bkj) in cb.iter().zip(vb) {
                    if marker[j] != i {
                        marker[j] = i;
                        acc[j] = 0.0;
                        touched.push(j);
                    }
                    acc[j] += aik * bkj;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                col_idx.push(j);
                vals.push(acc[j]);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            n_rows: n,
            n_cols: m,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Infinity norm (max absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| self.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Converts to dense row-major storage (tests / small systems only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.n_cols]; self.n_rows];
        for (i, j, v) in self.iter() {
            d[i][j] = v;
        }
        d
    }

    /// True when the matrix is structurally and numerically symmetric to
    /// within `tol` (tests).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        self.iter()
            .all(|(i, j, v)| (self.get(j, i) - v).abs() <= tol)
    }

    /// 64-bit FNV-1a content fingerprint over shape, sparsity pattern, and
    /// exact value bits — matrices hash equal iff they are bit-identical.
    /// This is the matrix-identity component of solver-session cache keys.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprints().1
    }

    /// The FNV-1a state after shape, `row_ptr` and `col_idx` — the prefix
    /// of the pass [`Csr::fingerprint`] makes. Two matrices with the same
    /// sparsity pattern and different values hash equal here, which is how
    /// the engine recognizes a matrix it can refactor numerically.
    pub fn pattern_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        h = fnv1a_u64(h, self.n_rows as u64);
        h = fnv1a_u64(h, self.n_cols as u64);
        for &p in &self.row_ptr {
            h = fnv1a_u64(h, p as u64);
        }
        for &j in &self.col_idx {
            h = fnv1a_u64(h, j as u64);
        }
        h
    }

    /// `(pattern_fingerprint, fingerprint)` in one pass: the content hash
    /// continues from the pattern state over the value bits.
    pub fn fingerprints(&self) -> (u64, u64) {
        let pattern = self.pattern_fingerprint();
        let mut h = pattern;
        for &v in &self.vals {
            h = fnv1a_u64(h, v.to_bits());
        }
        (pattern, h)
    }
}

/// Folds one little-endian `u64` into an FNV-1a state.
fn fnv1a_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        Csr::from_dense_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        assert_eq!(a.fingerprint(), sample().fingerprint());
        // A value change flips the hash.
        let mut b = sample();
        b.vals_mut()[0] = 2.0 + 1e-13;
        assert_ne!(a.fingerprint(), b.fingerprint());
        // A pattern change with identical values flips the hash.
        let c = Csr::from_dense_rows(&[
            vec![2.0, 0.0, -1.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Shape participates even with no stored entries.
        assert_ne!(Csr::zero(2, 3).fingerprint(), Csr::zero(3, 2).fingerprint());
    }

    #[test]
    fn pattern_fingerprint_is_the_prefix_of_the_content_hash() {
        // The pre-refactorization `fingerprint()`, verbatim: wire `fp`
        // strings and cache keys depend on its value.
        fn legacy(a: &Csr) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            h = fnv1a_u64(h, a.n_rows as u64);
            h = fnv1a_u64(h, a.n_cols as u64);
            for &p in &a.row_ptr {
                h = fnv1a_u64(h, p as u64);
            }
            for &j in &a.col_idx {
                h = fnv1a_u64(h, j as u64);
            }
            for &v in &a.vals {
                h = fnv1a_u64(h, v.to_bits());
            }
            h
        }
        let a = sample();
        let mut b = sample();
        b.vals_mut()[3] = -7.25;
        for m in [&a, &b, &Csr::zero(2, 3), &Csr::identity(5)] {
            assert_eq!(m.fingerprint(), legacy(m));
            assert_eq!(m.fingerprints(), (m.pattern_fingerprint(), legacy(m)));
        }
        // Pinned from the commit before the split.
        assert_eq!(a.fingerprint(), 0x32a2_27f3_df20_0c84);
        // Same pattern, new values: pattern hash equal, content hash not.
        assert_eq!(a.pattern_fingerprint(), b.pattern_fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // A new coupling changes both.
        let c = Csr::from_dense_rows(&[
            vec![2.0, 0.0, -1.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ]);
        assert_ne!(a.pattern_fingerprint(), c.pattern_fingerprint());
    }

    #[test]
    fn from_dense_roundtrip() {
        let a = sample();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.to_dense()[1], vec![-1.0, 2.0, -1.0]);
    }

    #[test]
    fn validate_rejects_unsorted_columns() {
        let r = Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(r, Err(Error::InvalidStructure(_))));
    }

    #[test]
    fn validate_rejects_out_of_range_column() {
        let r = Csr::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Csr::from_dense_rows(&[vec![1.0, 2.0, 0.0], vec![0.0, 0.0, 3.0]]);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal().unwrap(), vec![2.0, 2.0, 2.0]);
        let b = Csr::from_dense_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(matches!(b.diagonal(), Err(Error::MissingDiagonal(0))));
    }

    #[test]
    fn add_merges_patterns() {
        let a = Csr::from_dense_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = Csr::from_dense_rows(&[vec![0.0, 2.0], vec![2.0, 0.0]]);
        let c = a.add(0.5, &b).unwrap();
        assert_eq!(c.to_dense(), vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
    }

    #[test]
    fn matmul_identity() {
        let a = sample();
        let i = Csr::identity(3);
        let c = a.matmul(&i).unwrap();
        assert_eq!(c.to_dense(), a.to_dense());
    }

    #[test]
    fn matmul_matches_dense() {
        let a = Csr::from_dense_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Csr::from_dense_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.to_dense(), vec![vec![2.0, 1.0], vec![4.0, 3.0]]);
    }

    #[test]
    fn norms() {
        let a = Csr::from_dense_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        assert!((a.inf_norm() - 7.0).abs() < 1e-14);
    }

    #[test]
    fn symmetry_check() {
        assert!(sample().is_symmetric(0.0));
        let b = Csr::from_dense_rows(&[vec![1.0, 2.0], vec![3.0, 1.0]]);
        assert!(!b.is_symmetric(1e-12));
    }

    #[test]
    fn spmv_acc_accumulates() {
        let a = sample();
        let x = [1.0, 1.0, 1.0];
        let mut y = [10.0, 10.0, 10.0];
        a.spmv_acc(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 10.0, 12.0]);
    }

    #[test]
    fn split_rows_partitions_and_recombines_bitwise() {
        let a = Csr::from_dense_rows(&[
            vec![2.0, 1.0, 0.0, 0.0], // interior (cols < 2)
            vec![0.0, 3.0, 0.5, 0.0], // boundary (col 2)
            vec![1.0, 0.0, 4.0, 1.0], // boundary (col 3)
            vec![7.0, 0.0, 0.0, 0.0], // interior
        ]);
        let split = a.split_rows(2);
        assert_eq!(split.interior_rows, vec![0, 3]);
        assert_eq!(split.boundary_rows, vec![1, 2]);
        assert_eq!(split.interior.n_rows(), 2);
        assert_eq!(split.boundary.n_cols(), 4);
        assert_eq!(
            split.interior.nnz() + split.boundary.nnz(),
            a.nnz(),
            "every entry lands in exactly one part"
        );
        // Recombined SpMV is bitwise identical to the fused one.
        let x = [0.3, -1.7, 2.9, 0.11];
        let mut want = [0.0; 4];
        a.spmv(&x, &mut want);
        let mut yi = vec![0.0; 2];
        let mut yb = vec![0.0; 2];
        split.interior.spmv(&x, &mut yi);
        split.boundary.spmv(&x, &mut yb);
        let mut got = [0.0; 4];
        for (k, &r) in split.interior_rows.iter().enumerate() {
            got[r] = yi[k];
        }
        for (k, &r) in split.boundary_rows.iter().enumerate() {
            got[r] = yb[k];
        }
        assert_eq!(got, want);
    }

    #[test]
    fn split_rows_all_interior_or_all_boundary() {
        let a = sample();
        let all_interior = a.split_rows(a.n_cols());
        assert_eq!(all_interior.interior_rows.len(), a.n_rows());
        assert!(all_interior.boundary_rows.is_empty());
        let all_boundary = a.split_rows(0);
        // Rows with entries go boundary; empty rows count as interior.
        for i in all_boundary.boundary_rows {
            assert!(!a.row(i).0.is_empty());
        }
    }
}
