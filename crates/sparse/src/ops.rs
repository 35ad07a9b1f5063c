//! Vector kernels and triangular solves shared across the workspace.
//!
//! The BLAS-1 kernels are written as explicit 4-lane-chunked loops: the
//! lane accumulators autovectorize without intrinsics, and reductions use
//! **fixed chunk boundaries with an ordered combine** ([`REDUCE_CHUNK`]):
//! iteration counts depend on these bits.

use crate::{Csr, Error, Result};
use std::cell::RefCell;
use std::ops::Range;

/// Accumulator lanes of the chunked BLAS-1 loops (autovec-friendly f64x4).
const LANES: usize = 4;

/// Fixed reduction-chunk length (elements). Partial sums are always taken
/// over `[c·CHUNK, (c+1)·CHUNK)` windows and combined in ascending chunk
/// order.
pub const REDUCE_CHUNK: usize = 4096;

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

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `y += alpha * x` (4-lane unrolled).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
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

/// Narrows a column index to the 32-bit width split factors store — the
/// one place a `usize` index becomes a `u32`. An index that does not fit is
/// a typed error, never a truncation.
#[inline]
pub fn narrow_index(j: usize) -> Result<u32> {
    u32::try_from(j).map_err(|_| Error::DimensionMismatch {
        op: "factor index width",
        expected: u32::MAX as usize,
        found: j,
    })
}

/// A square matrix taken apart into its strict lower triangle, diagonal and
/// strict upper triangle, each in CSR order with 32-bit columns: the
/// storage the triangular sweeps read ([`SplitLu`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCsr {
    /// Row pointers of the strict lower triangle (`n + 1` entries).
    pub l_ptr: Vec<usize>,
    /// Columns of the strict lower triangle, sorted in every row.
    pub l_cols: Vec<u32>,
    /// Values of the strict lower triangle.
    pub l_vals: Vec<f64>,
    /// The diagonal.
    pub diag: Vec<f64>,
    /// Row pointers of the strict upper triangle (`n + 1` entries).
    pub u_ptr: Vec<usize>,
    /// Columns of the strict upper triangle, **descending** in every row:
    /// like `L`'s, a row ends with the entry nearest the diagonal, the one
    /// the sweep has just produced.
    pub u_cols: Vec<u32>,
    /// Values of the strict upper triangle.
    pub u_vals: Vec<f64>,
}

impl SplitCsr {
    /// Splits `a` (sorted columns, every diagonal entry stored). A missing
    /// diagonal is [`Error::MissingDiagonal`], a non-square matrix or one
    /// too large for 32-bit columns [`Error::DimensionMismatch`].
    pub fn from_merged(a: &Csr) -> Result<SplitCsr> {
        let n = a.n_rows();
        if a.n_cols() != n {
            return Err(Error::DimensionMismatch {
                op: "split triangles",
                expected: n,
                found: a.n_cols(),
            });
        }
        let mut out = SplitCsr {
            l_ptr: Vec::with_capacity(n + 1),
            l_cols: Vec::new(),
            l_vals: Vec::new(),
            diag: Vec::with_capacity(n),
            u_ptr: Vec::with_capacity(n + 1),
            u_cols: Vec::new(),
            u_vals: Vec::new(),
        };
        out.l_ptr.push(0);
        out.u_ptr.push(0);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let d = cols
                .binary_search(&i)
                .map_err(|_| Error::MissingDiagonal(i))?;
            for (&j, &v) in cols[..d].iter().zip(&vals[..d]) {
                out.l_cols.push(narrow_index(j)?);
                out.l_vals.push(v);
            }
            out.diag.push(vals[d]);
            for (&j, &v) in cols[d + 1..].iter().zip(&vals[d + 1..]).rev() {
                out.u_cols.push(narrow_index(j)?);
                out.u_vals.push(v);
            }
            out.l_ptr.push(out.l_cols.len());
            out.u_ptr.push(out.u_cols.len());
        }
        out.l_cols.shrink_to_fit();
        out.l_vals.shrink_to_fit();
        out.u_cols.shrink_to_fit();
        out.u_vals.shrink_to_fit();
        Ok(out)
    }

    /// What the sweeps read of this matrix, given its pivot reciprocals.
    pub fn sweep_view<'a>(&'a self, diag_inv: &'a [f64]) -> SplitLu<'a> {
        SplitLu {
            l_ptr: &self.l_ptr,
            l_cols: &self.l_cols,
            l_vals: &self.l_vals,
            u_ptr: &self.u_ptr,
            u_cols: &self.u_cols,
            u_vals: &self.u_vals,
            diag_inv,
        }
    }
}

/// Reciprocals of the pivots `diag`, so the backward sweep multiplies
/// instead of divides. A pivot that is zero, non-finite, or so small its
/// reciprocal overflows is a structured error instead of an Inf/NaN seeding
/// every later triangular sweep.
pub fn diag_reciprocals_checked(diag: &[f64]) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(diag.len());
    for (i, &d) in diag.iter().enumerate() {
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

/// `acc − Σ vals[k] · x[cols[k]]` over one stored row, for `K` interleaved
/// columns at once: the row kernel of every triangular sweep.
///
/// A single accumulator is one serial dependency chain per row, so the
/// 4-aligned head goes through four independent lane accumulators with a
/// fixed combine order. The last one to four entries are subtracted one
/// after the other instead: rows are stored nearest-the-diagonal last, and
/// that entry usually reads the `x` the previous row has just written, so
/// only one multiply and one subtract wait for it. Every column has its own
/// lanes and tail and combines them in that order, so every caller gets the
/// same bits for the same row, whatever `K` the column rides in; `K > 1`
/// reads each factor entry once for all of them.
#[inline(always)]
pub fn row_sub<const K: usize>(
    acc: [f64; K],
    vals: &[f64],
    cols: &[u32],
    x: &[[f64; K]],
) -> [f64; K] {
    debug_assert_eq!(vals.len(), cols.len());
    let head = vals.len().saturating_sub(1) & !(LANES - 1);
    let mut lanes = [[0.0f64; K]; LANES];
    for (vs, cs) in vals[..head]
        .chunks_exact(LANES)
        .zip(cols[..head].chunks_exact(LANES))
    {
        for l in 0..LANES {
            let xl = &x[cs[l] as usize];
            for c in 0..K {
                lanes[l][c] += vs[l] * xl[c];
            }
        }
    }
    let mut acc = acc;
    for c in 0..K {
        acc[c] -= (lanes[0][c] + lanes[2][c]) + (lanes[1][c] + lanes[3][c]);
    }
    for (v, &j) in vals[head..].iter().zip(&cols[head..]) {
        let xj = &x[j as usize];
        for c in 0..K {
            acc[c] -= v * xj[c];
        }
    }
    acc
}

/// The column groups a `k`-column kernel runs in: consecutive ranges of
/// width 8, 4, 2 or 1, widest first (`k = 11` is `0..8, 8..10, 10..11`).
/// A kernel is instantiated once per width.
pub fn column_groups(k: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let rest = k - start;
        let width = [8, 4, 2, 1].into_iter().find(|&w| w <= rest)?;
        start += width;
        Some(start - width..start)
    })
}

/// Packs the leading `rows` entries of each of `cols` into `out` (length
/// `rows · cols.len()`) in column-group layout: the columns of group `g`
/// ([`column_groups`]) occupy `out[g.start · rows .. g.end · rows]`,
/// interleaved row by row. One column is a plain copy. Columns shorter than
/// `rows` (all of one length) leave the rest of their rows in `out` as they
/// were: the ghost tail of a distributed vector.
pub fn pack_columns(cols: &[&[f64]], rows: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), rows * cols.len());
    for g in column_groups(cols.len()) {
        let (cols, block) = (&cols[g.clone()], &mut out[g.start * rows..g.end * rows]);
        match g.len() {
            8 => pack_group::<8>(cols, block.as_chunks_mut().0),
            4 => pack_group::<4>(cols, block.as_chunks_mut().0),
            2 => pack_group::<2>(cols, block.as_chunks_mut().0),
            _ => pack_group::<1>(cols, block.as_chunks_mut().0),
        }
    }
}

/// The inverse of [`pack_columns`]: the leading `rows` entries of each of
/// `cols` (all of a shorter one) from `packed`.
pub fn unpack_columns(packed: &[f64], rows: usize, cols: &mut [&mut [f64]]) {
    debug_assert_eq!(packed.len(), rows * cols.len());
    for g in column_groups(cols.len()) {
        let (block, cols) = (&packed[g.start * rows..g.end * rows], &mut cols[g]);
        match cols.len() {
            8 => unpack_group::<8>(block.as_chunks().0, cols),
            4 => unpack_group::<4>(block.as_chunks().0, cols),
            2 => unpack_group::<2>(block.as_chunks().0, cols),
            _ => unpack_group::<1>(block.as_chunks().0, cols),
        }
    }
}

/// One group of [`pack_columns`], row by row: each row of `block` is written
/// once, whole.
#[inline(always)]
fn pack_group<const W: usize>(cols: &[&[f64]], block: &mut [[f64; W]]) {
    let len = cols[0].len().min(block.len());
    let cols: [&[f64]; W] = std::array::from_fn(|t| &cols[t][..len]);
    for (i, row) in block[..len].iter_mut().enumerate() {
        for t in 0..W {
            row[t] = cols[t][i];
        }
    }
}

/// One group of [`unpack_columns`], row by row.
#[inline(always)]
fn unpack_group<const W: usize>(block: &[[f64; W]], cols: &mut [&mut [f64]]) {
    let len = cols[0].len().min(block.len());
    let mut cols = cols.iter_mut();
    let cols: [&mut [f64]; W] =
        std::array::from_fn(|_| &mut cols.next().expect("one column per lane")[..len]);
    for (i, row) in block[..len].iter().enumerate() {
        for t in 0..W {
            cols[t][i] = row[t];
        }
    }
}

/// A borrowed incomplete-LU factor in sweep order: the strict lower
/// triangle `L` (unit diagonal implicit), the strict upper triangle of `U`
/// and the reciprocals of `U`'s diagonal, each in its own arrays — a forward
/// sweep reads no byte of `U`, a backward sweep none of `L`. Borrowed
/// because a numerically refactored factor shares the index arrays with its
/// donor and owns only the values.
#[derive(Debug, Clone, Copy)]
pub struct SplitLu<'a> {
    /// Row pointers of `L` (`n + 1` entries).
    pub l_ptr: &'a [usize],
    /// Columns of `L`, sorted in every row.
    pub l_cols: &'a [u32],
    /// Values of `L`.
    pub l_vals: &'a [f64],
    /// Row pointers of the strict upper triangle of `U` (`n + 1` entries).
    pub u_ptr: &'a [usize],
    /// Columns of the strict upper triangle, descending in every row.
    pub u_cols: &'a [u32],
    /// Values of the strict upper triangle.
    pub u_vals: &'a [f64],
    /// Reciprocals of `U`'s diagonal.
    pub diag_inv: &'a [f64],
}

impl SplitLu<'_> {
    /// Row `i` of the forward sweep `(I + L) y = b`.
    #[inline(always)]
    fn forward_row<const K: usize>(&self, i: usize, x: &[[f64; K]]) -> [f64; K] {
        let (lo, hi) = (self.l_ptr[i], self.l_ptr[i + 1]);
        row_sub(x[i], &self.l_vals[lo..hi], &self.l_cols[lo..hi], x)
    }

    /// Row `i` of the backward sweep `U x = y`, reading only columns below
    /// `col_end` (the columns of a `U` row descend).
    #[inline(always)]
    fn backward_row<const K: usize>(&self, i: usize, col_end: usize, x: &[[f64; K]]) -> [f64; K] {
        let (lo, hi) = (self.u_ptr[i], self.u_ptr[i + 1]);
        let cols = &self.u_cols[lo..hi];
        let skip = match cols.first() {
            Some(&c) if c as usize >= col_end => cols.partition_point(|&c| c as usize >= col_end),
            _ => 0,
        };
        let d = self.diag_inv[i];
        row_sub(x[i], &self.u_vals[lo + skip..hi], &cols[skip..], x).map(|v| v * d)
    }
}

/// Solves `L U x = b` in place, row by row (`x` holds `b` on entry).
pub fn solve_lu(lu: &SplitLu<'_>, x: &mut [f64]) {
    let n = lu.diag_inv.len();
    debug_assert_eq!(x.len(), n);
    solve_lu_leading(lu, n, x);
}

/// Solves with the leading `nb × nb` principal block of the factor, ignoring
/// every entry with column ≥ `nb`. Only `x[..nb]` participates.
pub fn solve_lu_leading(lu: &SplitLu<'_>, nb: usize, x: &mut [f64]) {
    solve_lu_interleaved(lu, nb, x.as_chunks_mut::<1>().0);
}

/// [`solve_lu_leading`] for `K` interleaved right-hand sides: `x[i][c]` is
/// row `i` of column `c`. Each factor entry is read once for all `K`, and
/// each column gets the bits of its own one-column sweep.
fn solve_lu_interleaved<const K: usize>(lu: &SplitLu<'_>, nb: usize, x: &mut [[f64; K]]) {
    debug_assert!(nb <= lu.diag_inv.len() && nb <= x.len());
    // Strict lower entries of row i all have col < i < nb.
    for i in 0..nb {
        x[i] = lu.forward_row(i, x);
    }
    for i in (0..nb).rev() {
        x[i] = lu.backward_row(i, nb, x);
    }
}

thread_local! {
    /// Per-thread column-group scratch of [`solve_lu_columns`]: rank
    /// threads sweep concurrently through one shared factor.
    static PACKED: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// [`solve_lu_leading`] of every right-hand side: `xs[c][..nb]` solves
/// `bs[c][..nb]`, the rest of `xs[c]` is left alone. Each factor entry is
/// read once per group of up to eight columns ([`column_groups`]), and every
/// column is bit for bit its own [`solve_lu_leading`].
pub fn solve_lu_columns(lu: &SplitLu<'_>, nb: usize, bs: &[&[f64]], xs: &mut [&mut [f64]]) {
    debug_assert_eq!(bs.len(), xs.len());
    if let ([b], [x]) = (bs, &mut *xs) {
        x[..nb].copy_from_slice(&b[..nb]);
        return solve_lu_leading(lu, nb, x);
    }
    PACKED.with(|s| {
        let mut packed = s.borrow_mut();
        packed.resize(nb * bs.len(), 0.0);
        pack_columns(bs, nb, &mut packed);
        for g in column_groups(bs.len()) {
            let block = &mut packed[g.start * nb..g.end * nb];
            match g.len() {
                8 => solve_lu_interleaved::<8>(lu, nb, block.as_chunks_mut().0),
                4 => solve_lu_interleaved::<4>(lu, nb, block.as_chunks_mut().0),
                2 => solve_lu_interleaved::<2>(lu, nb, block.as_chunks_mut().0),
                _ => solve_lu_interleaved::<1>(lu, nb, block.as_chunks_mut().0),
            }
        }
        unpack_columns(&packed, nb, xs);
    });
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
        let mut z = [2.0, 4.0];
        scale(0.5, &mut z);
        assert_eq!(z, [1.0, 2.0]);
    }

    #[test]
    fn dot_is_the_ascending_sum_of_four_lane_chunk_partials() {
        // Iteration counts depend on these bits: written out naively, one
        // partial per REDUCE_CHUNK window (four strided lanes over the
        // 4-aligned head, a scalar tail), partials added in ascending order.
        for n in [
            0,
            1,
            REDUCE_CHUNK - 1,
            REDUCE_CHUNK,
            REDUCE_CHUNK + 1,
            3 * REDUCE_CHUNK + 5,
        ] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin() + 0.2).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.007).cos() - 0.1).collect();
            let mut want = 0.0;
            for lo in (0..n).step_by(REDUCE_CHUNK) {
                let hi = (lo + REDUCE_CHUNK).min(n);
                let head = lo + (hi - lo) / 4 * 4;
                let mut lane = [0.0f64; 4];
                for i in lo..head {
                    lane[(i - lo) % 4] += x[i] * y[i];
                }
                let mut tail = 0.0;
                for i in head..hi {
                    tail += x[i] * y[i];
                }
                want += (lane[0] + lane[2]) + (lane[1] + lane[3]) + tail;
            }
            assert_eq!(dot(&x, &y).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn narrow_index_is_checked_at_the_boundary() {
        assert_eq!(narrow_index(0), Ok(0));
        assert_eq!(narrow_index(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            narrow_index(u32::MAX as usize + 1),
            Err(Error::DimensionMismatch {
                op: "factor index width",
                expected: u32::MAX as usize,
                found: u32::MAX as usize + 1,
            })
        );
    }

    #[test]
    fn row_sub_combines_lanes_and_tail_in_a_fixed_order() {
        // Ten entries: two 4-lane chunks, then a serial tail of two, in
        // permuted column order.
        let vals: Vec<f64> = (0..10).map(|k| 0.1 + k as f64).collect();
        let cols: Vec<u32> = vec![8, 3, 5, 0, 7, 1, 6, 2, 4, 9];
        let x: Vec<f64> = (0..10).map(|j| (j as f64 * 0.37).sin()).collect();
        let x1 = x.as_chunks::<1>().0;
        let p = |k: usize| vals[k] * x[cols[k] as usize];
        let lanes = ((p(0) + p(4)) + (p(2) + p(6))) + ((p(1) + p(5)) + (p(3) + p(7)));
        let want = ((1.5 - lanes) - p(8)) - p(9);
        assert_eq!(
            row_sub([1.5], &vals, &cols, x1)[0].to_bits(),
            want.to_bits()
        );
        // Eight entries: one chunk in the lanes, the other four serial.
        let lanes = (p(0) + p(2)) + (p(1) + p(3));
        let want = ((((1.5 - lanes) - p(4)) - p(5)) - p(6)) - p(7);
        assert_eq!(
            row_sub([1.5], &vals[..8], &cols[..8], x1)[0].to_bits(),
            want.to_bits()
        );
        assert_eq!(row_sub([1.5], &[], &[], x1), [1.5]);
    }

    #[test]
    fn column_groups_are_widest_first_and_cover_every_column() {
        let widths = |k: usize| column_groups(k).map(|g| g.len()).collect::<Vec<_>>();
        assert_eq!(widths(0), Vec::<usize>::new());
        assert_eq!(widths(1), [1]);
        assert_eq!(widths(3), [2, 1]);
        assert_eq!(widths(8), [8]);
        assert_eq!(widths(15), [8, 4, 2, 1]);
        assert_eq!(column_groups(11).collect::<Vec<_>>(), [0..8, 8..10, 10..11]);
        let cols: Vec<Vec<f64>> = (0..7)
            .map(|c| (0..5).map(|i| (10 * c + i) as f64).collect())
            .collect();
        let mut packed = vec![0.0; 35];
        let views: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        pack_columns(&views, 5, &mut packed);
        // Group 0..4 interleaved, then 4..6, then column 6 alone.
        assert_eq!(&packed[..4], [0.0, 10.0, 20.0, 30.0]);
        assert_eq!(&packed[20..22], [40.0, 50.0]);
        assert_eq!(&packed[30..], [60.0, 61.0, 62.0, 63.0, 64.0]);
        let mut back = vec![vec![0.0; 5]; 7];
        let mut views: Vec<&mut [f64]> = back.iter_mut().map(Vec::as_mut_slice).collect();
        unpack_columns(&packed, 5, &mut views);
        assert_eq!(back, cols);
    }

    #[test]
    fn column_sweeps_are_their_one_column_sweeps_bit_for_bit() {
        // A banded factor with rows long enough for the lanes and the tail,
        // reaching past the leading block in both triangles.
        let n: usize = 40;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let d = i.abs_diff(j);
                        if i == j {
                            4.0 + (i % 3) as f64
                        } else if d <= 7 && (i * 7 + j * 3) % 4 != 0 {
                            ((i * 13 + j * 5) as f64 * 0.31).sin() * 0.2
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let s = SplitCsr::from_merged(&Csr::from_dense_rows(&rows)).unwrap();
        let diag_inv = diag_reciprocals_checked(&s.diag).unwrap();
        let lu = s.sweep_view(&diag_inv);
        for nb in [n, 27] {
            for k in [1, 2, 3, 4, 7, 8, 11] {
                let rhs: Vec<Vec<f64>> = (0..k)
                    .map(|c| (0..n).map(|i| ((i + 3 * c) as f64 * 0.17).cos()).collect())
                    .collect();
                let mut want = rhs.clone();
                for x in &mut want {
                    solve_lu_leading(&lu, nb, x);
                }
                // Outside the leading block the outputs keep what they held.
                let mut got = rhs.clone();
                let bs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
                let mut xs: Vec<&mut [f64]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                solve_lu_columns(&lu, nb, &bs, &mut xs);
                for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(g), bits(w), "nb={nb} k={k} column {c}");
                }
            }
        }
    }

    #[test]
    fn split_takes_a_merged_factor_apart() {
        let merged = Csr::from_dense_rows(&[
            vec![4.0, 2.0, 7.0],
            vec![0.5, 3.0, 1.0],
            vec![0.125, 0.25, 5.0],
        ]);
        let s = SplitCsr::from_merged(&merged).unwrap();
        assert_eq!(s.l_ptr, [0, 0, 1, 3]);
        assert_eq!(s.l_cols, [0, 0, 1]);
        assert_eq!(s.l_vals, [0.5, 0.125, 0.25]);
        assert_eq!(s.diag, [4.0, 3.0, 5.0]);
        // U rows descend: the entry nearest the diagonal comes last.
        assert_eq!(s.u_ptr, [0, 2, 3, 3]);
        assert_eq!(s.u_cols, [2, 1, 2]);
        assert_eq!(s.u_vals, [7.0, 2.0, 1.0]);
    }

    #[test]
    fn split_reports_missing_diagonal_and_shape() {
        let u = Csr::from_dense_rows(&[vec![0.0, 1.0], vec![0.0, 3.0]]);
        assert_eq!(SplitCsr::from_merged(&u), Err(Error::MissingDiagonal(0)));
        assert!(matches!(
            SplitCsr::from_merged(&Csr::zero(2, 3)),
            Err(Error::DimensionMismatch {
                op: "split triangles",
                ..
            })
        ));
    }

    #[test]
    fn split_lu_solve_roundtrip() {
        // A = L*U with L unit lower [1 0; 0.5 1], U upper [4 2; 0 3]
        // merged storage: [4 2; 0.5 3]
        let merged = Csr::from_dense_rows(&[vec![4.0, 2.0], vec![0.5, 3.0]]);
        // A = [4 2; 2 4]
        let a = Csr::from_dense_rows(&[vec![4.0, 2.0], vec![2.0, 4.0]]);
        let s = SplitCsr::from_merged(&merged).unwrap();
        let diag_inv = diag_reciprocals_checked(&s.diag).unwrap();
        let x_true = [3.0, -1.0];
        let mut x = a.mul_vec(&x_true);
        solve_lu(&s.sweep_view(&diag_inv), &mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-14, "{x:?}");
        }
    }

    #[test]
    fn leading_solve_ignores_columns_past_the_block() {
        // Row 0 of U reaches into column 2; the leading 2x2 solve must not
        // read it, and must leave x[2] alone.
        let merged = Csr::from_dense_rows(&[
            vec![2.0, 1.0, 9.0],
            vec![0.5, 4.0, 9.0],
            vec![9.0, 9.0, 1.0],
        ]);
        let s = SplitCsr::from_merged(&merged).unwrap();
        let diag_inv = diag_reciprocals_checked(&s.diag).unwrap();
        let mut x = [3.0, 5.5, 7.0];
        solve_lu_leading(&s.sweep_view(&diag_inv), 2, &mut x);
        // Forward: y = [3, 5.5 - 0.5*3 = 4]; backward: x1 = 1, x0 = (3 - 1)/2.
        assert_eq!(x, [1.0, 1.0, 7.0]);
    }

    #[test]
    fn reciprocals_reject_unusable_pivots() {
        assert_eq!(
            diag_reciprocals_checked(&[2.0, 0.0]),
            Err(Error::ZeroPivot(1))
        );
        assert_eq!(
            diag_reciprocals_checked(&[f64::NAN]),
            Err(Error::NonFinitePivot(0))
        );
        assert_eq!(
            diag_reciprocals_checked(&[1.0, 1e-320]),
            Err(Error::NonFinitePivot(1))
        );
    }
}
