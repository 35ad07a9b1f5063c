//! The Krylov basis panel and its blocked Gram–Schmidt projection kernels.
//!
//! A handful of long vectors — an Arnoldi basis, the FGMRES directions, a
//! deflation basis — is stored as one [`Panel`]: a contiguous column-major
//! array allocated once. A classical Gram–Schmidt step against its leading
//! columns `v_0..v_{k-1}` is two batched passes: `h_i = ⟨w, v_i⟩` for every
//! column ([`Basis::dots`]), then `w ← w − Σ_i h_i v_i` ([`Basis::sub`]).
//! Keeping the passes batched (instead of a dot/axpy pair per vector, as MGS
//! does) lets the distributed solver combine all `k` inner products into a
//! single allreduce. The Arnoldi step with delayed re-orthogonalization
//! (DCGS2) works on two vectors at once — the previous step's vector, which
//! it finishes, and the new one, which it projects — so each of its two
//! passes takes both: [`Basis::dots2`] and [`Basis::sub2`].
//!
//! The kernels walk the vectors in row blocks that stay in L1 and take four
//! columns per read of a block, so a vector is loaded once per four columns
//! instead of once per column, and the basis once per pass.
//!
//! Determinism: every inner product has the lane structure and the fixed
//! [`REDUCE_CHUNK`] combine order of [`ops::dot`](parapre_sparse::ops::dot),
//! and every element of a vector has the columns subtracted in ascending
//! order as a loop of [`ops::axpy`](parapre_sparse::ops::axpy) would, so
//! results are bit for bit those of the per-column loops.

use parapre_sparse::ops::REDUCE_CHUNK;
use std::ops::Range;

/// Accumulator lanes of one inner product, as in `ops::dot`.
const LANES: usize = 4;

/// Columns taken per read of a block of `w`.
const COLS: usize = 4;

/// Rows per block: 2 KB of a vector and of each column, so the two vectors'
/// blocks and the 21 column blocks of a full FGMRES(20) basis (47 KB) stay
/// in a 48 KB L1 between the two vectors of a two-vector kernel.
/// Divides [`REDUCE_CHUNK`]; a multiple of [`LANES`].
const ROW_BLOCK: usize = 256;

/// Inner products whose accumulators fit on the stack; a wider basis takes
/// them from the heap.
const STACK_ACCS: usize = 64;

/// The accumulators of one inner product over one reduction chunk: the four
/// lanes of the 4-aligned head, then the scalar tail.
type Acc = [f64; LANES + 1];

/// A column-major panel of `n_cols` vectors of length `n_rows`, contiguous
/// and allocated once.
#[derive(Debug, Clone)]
pub struct Panel {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Panel {
    /// A panel of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Panel {
        Panel {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Column `j`.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// Column `j`, mutable.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// The leading `k` columns as a basis to project against.
    pub fn basis(&self, k: usize) -> Basis<'_> {
        Basis {
            n_rows: self.n_rows,
            n_cols: k,
            data: &self.data[..k * self.n_rows],
        }
    }

    /// The leading `k` columns as a basis, and column `k` to orthogonalize
    /// against them in place.
    pub fn split(&mut self, k: usize) -> (Basis<'_>, &mut [f64]) {
        let (head, tail) = self.data.split_at_mut(k * self.n_rows);
        let basis = Basis {
            n_rows: self.n_rows,
            n_cols: k,
            data: head,
        };
        (basis, &mut tail[..self.n_rows])
    }

    /// The leading `k` columns as a basis, and columns `k` and `k + 1` to
    /// update in place against them.
    pub fn split2(&mut self, k: usize) -> (Basis<'_>, &mut [f64], &mut [f64]) {
        let n = self.n_rows;
        let (head, tail) = self.data.split_at_mut(k * n);
        let (x, y) = tail[..2 * n].split_at_mut(n);
        let basis = Basis {
            n_rows: n,
            n_cols: k,
            data: head,
        };
        (basis, x, y)
    }

    /// Keeps the leading `k` columns and gives the rest of the allocation
    /// back.
    pub fn truncate(&mut self, k: usize) {
        assert!(k <= self.n_cols);
        self.n_cols = k;
        self.data.truncate(k * self.n_rows);
        self.data.shrink_to_fit();
    }
}

/// The leading columns of a [`Panel`], borrowed: the vectors a projection
/// runs against.
#[derive(Debug, Clone, Copy)]
pub struct Basis<'a> {
    n_rows: usize,
    n_cols: usize,
    data: &'a [f64],
}

impl<'a> Basis<'a> {
    /// Number of basis vectors.
    pub fn len(&self) -> usize {
        self.n_cols
    }

    /// Whether the basis has no vectors.
    pub fn is_empty(&self) -> bool {
        self.n_cols == 0
    }

    /// Basis vector `j`.
    pub fn col(&self, j: usize) -> &'a [f64] {
        &self.data[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// `out[j] = ⟨w, v_j⟩` for every basis vector and `out[len] = ⟨w, w⟩`.
    pub fn dots(&self, w: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), self.n_rows);
        assert_eq!(out.len(), self.n_cols + 1);
        reduce_in_chunks(w.len(), out, |rows, accs| {
            self.dots_block(rows.start, &w[rows], accs);
        });
    }

    /// `w ← w − Σ_j coeffs[j] · v_j`, the basis vectors subtracted from
    /// every element in ascending order.
    pub fn sub(&self, coeffs: &[f64], w: &mut [f64]) {
        assert_eq!(w.len(), self.n_rows);
        assert_eq!(coeffs.len(), self.n_cols);
        for (b, block) in w.chunks_mut(ROW_BLOCK).enumerate() {
            self.sub_block(b * ROW_BLOCK, coeffs, block, |x| x);
        }
    }

    /// `out[j] = ⟨x, v_j⟩` for every basis vector, then [`Basis::dots`] of
    /// `y` in `out[len..]`: both vectors' inner products in one pass over
    /// the basis. `x` may be a basis vector itself.
    pub fn dots2(&self, x: &[f64], y: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n_rows);
        assert_eq!(y.len(), self.n_rows);
        assert_eq!(out.len(), 2 * self.n_cols + 1);
        reduce_in_chunks(self.n_rows, out, |rows, accs| {
            let (xs, ys) = accs.split_at_mut(self.n_cols);
            self.dots_block(rows.start, &x[rows.clone()], xs);
            self.dots_block(rows.start, &y[rows], ys);
        });
    }

    /// `x ← (x − Σ_j a[j] · v_j) / divisor`, then
    /// `y ← (y − Σ_j b[j] · v_j − b[len] · x) / divisor` with the new `x`,
    /// in one pass over the basis: the finish of one Gram–Schmidt vector and
    /// the projection of the next.
    pub fn sub2(&self, a: &[f64], x: &mut [f64], b: &[f64], y: &mut [f64], divisor: f64) {
        assert_eq!(x.len(), self.n_rows);
        assert_eq!(y.len(), self.n_rows);
        assert_eq!(a.len(), self.n_cols);
        assert_eq!(b.len(), self.n_cols + 1);
        let (b, b_x) = (&b[..self.n_cols], b[self.n_cols]);
        let blocks = x.chunks_mut(ROW_BLOCK).zip(y.chunks_mut(ROW_BLOCK));
        for (i, (xb, yb)) in blocks.enumerate() {
            self.sub_block(i * ROW_BLOCK, a, xb, |t| t / divisor);
            self.sub_block(i * ROW_BLOCK, b, yb, |t| t);
            for (yi, &xi) in yb.iter_mut().zip(&*xb) {
                *yi = (*yi - b_x * xi) / divisor;
            }
        }
    }

    /// Rows `row0..row0 + n` of basis vectors `j..j + G`; past the last
    /// basis vector comes `w` itself, whose inner product is `⟨w, w⟩`.
    #[inline(always)]
    fn cols_at<'b, const G: usize>(&self, j: usize, row0: usize, w: &'b [f64]) -> [&'b [f64]; G]
    where
        'a: 'b,
    {
        std::array::from_fn(|g| {
            if j + g < self.n_cols {
                &self.col(j + g)[row0..row0 + w.len()]
            } else {
                w
            }
        })
    }

    /// Adds the rows `row0..row0 + w.len()` of every inner product to its
    /// accumulator.
    #[inline(always)]
    fn dots_block(&self, row0: usize, w: &[f64], accs: &mut [Acc]) {
        let mut groups = accs.chunks_exact_mut(COLS);
        let mut j = 0;
        for accs in &mut groups {
            dots_group(self.cols_at::<COLS>(j, row0, w), w, accs);
            j += COLS;
        }
        let accs = groups.into_remainder();
        match accs.len() {
            0 => {}
            1 => dots_group(self.cols_at::<1>(j, row0, w), w, accs),
            2 => dots_group(self.cols_at::<2>(j, row0, w), w, accs),
            _ => dots_group(self.cols_at::<3>(j, row0, w), w, accs),
        }
    }

    /// Coefficient and rows `row0..row0 + n` of basis vectors `j..j + G`.
    #[inline(always)]
    fn terms<const G: usize>(
        &self,
        coeffs: &[f64],
        j: usize,
        row0: usize,
        n: usize,
    ) -> [(f64, &'a [f64]); G] {
        std::array::from_fn(|g| (coeffs[j + g], &self.col(j + g)[row0..row0 + n]))
    }

    /// Subtracts the basis from rows `row0..row0 + w.len()`, [`COLS`]
    /// vectors per load and store of `w`, and applies `finish` with the last
    /// store.
    #[inline(always)]
    fn sub_block(&self, row0: usize, coeffs: &[f64], w: &mut [f64], finish: impl Fn(f64) -> f64) {
        let n = w.len();
        let mut j = 0;
        while self.n_cols - j > COLS {
            sub_group(self.terms::<COLS>(coeffs, j, row0, n), w, |x| x);
            j += COLS;
        }
        match self.n_cols - j {
            0 => sub_group([], w, finish),
            1 => sub_group(self.terms::<1>(coeffs, j, row0, n), w, finish),
            2 => sub_group(self.terms::<2>(coeffs, j, row0, n), w, finish),
            3 => sub_group(self.terms::<3>(coeffs, j, row0, n), w, finish),
            _ => sub_group(self.terms::<COLS>(coeffs, j, row0, n), w, finish),
        }
    }
}

/// Runs `block(rows, accs)` over the row blocks of every reduction chunk of
/// `0..n_rows` and adds each chunk's partial sums to `out` in ascending
/// chunk order, lanes and tail combined as `ops::dot` combines them.
fn reduce_in_chunks(
    n_rows: usize,
    out: &mut [f64],
    mut block: impl FnMut(Range<usize>, &mut [Acc]),
) {
    let mut stack = [[0.0; LANES + 1]; STACK_ACCS];
    let mut heap = Vec::new();
    let accs = if out.len() <= STACK_ACCS {
        &mut stack[..out.len()]
    } else {
        heap.resize(out.len(), [0.0; LANES + 1]);
        &mut heap[..]
    };
    out.fill(0.0);
    for lo in (0..n_rows).step_by(REDUCE_CHUNK) {
        let hi = (lo + REDUCE_CHUNK).min(n_rows);
        accs.fill([0.0; LANES + 1]);
        for b in (lo..hi).step_by(ROW_BLOCK) {
            block(b..(b + ROW_BLOCK).min(hi), accs);
        }
        for (o, a) in out.iter_mut().zip(accs.iter()) {
            *o += (a[0] + a[2]) + (a[1] + a[3]) + a[4];
        }
    }
}

/// `accs[g] += ⟨w, cols[g]⟩` over one row block: the 4-aligned head into the
/// lanes, what is left (only ever the end of the vector) into the tail.
#[inline(always)]
fn dots_group<const G: usize>(cols: [&[f64]; G], w: &[f64], accs: &mut [Acc]) {
    let (w4, w_tail) = w.as_chunks::<LANES>();
    let cols4 = cols.map(|c| c.as_chunks::<LANES>());
    for (c4, c_tail) in &cols4 {
        assert!(c4.len() == w4.len() && c_tail.len() == w_tail.len());
    }
    let mut lanes: [[f64; LANES]; G] = std::array::from_fn(|g| {
        let a = &accs[g];
        [a[0], a[1], a[2], a[3]]
    });
    for (i, ws) in w4.iter().enumerate() {
        for g in 0..G {
            let vs = &cols4[g].0[i];
            for l in 0..LANES {
                lanes[g][l] += ws[l] * vs[l];
            }
        }
    }
    for g in 0..G {
        accs[g][..LANES].copy_from_slice(&lanes[g]);
        for (a, b) in w_tail.iter().zip(cols4[g].1) {
            accs[g][LANES] += a * b;
        }
    }
}

/// `w[i] ← finish(((w[i] − c_0·v_0[i]) − c_1·v_1[i]) − …)` over one row
/// block, for the `G` `(c, v)` pairs of `terms` in order.
#[inline(always)]
fn sub_group<const G: usize>(
    terms: [(f64, &[f64]); G],
    w: &mut [f64],
    finish: impl Fn(f64) -> f64,
) {
    for (_, v) in &terms {
        assert_eq!(v.len(), w.len());
    }
    for (i, wi) in w.iter_mut().enumerate() {
        let mut x = *wi;
        for (c, v) in &terms {
            x -= c * v[i];
        }
        *wi = finish(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_sparse::ops;

    fn filled(n: usize, k: usize) -> (Vec<f64>, Panel) {
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();
        let mut panel = Panel::zeros(n, k);
        for j in 0..k {
            for (i, v) in panel.col_mut(j).iter_mut().enumerate() {
                *v = ((i * (j + 2)) as f64 * 0.11).cos() - 0.1 * j as f64;
            }
        }
        (w, panel)
    }

    #[test]
    fn dots_match_per_column_dots_bitwise() {
        for n in [5, 1000, 20_000] {
            let (w, panel) = filled(n, 6);
            let mut per_column: Vec<f64> = (0..6).map(|j| ops::dot(&w, panel.col(j))).collect();
            per_column.push(ops::dot(&w, &w));
            let mut out = vec![f64::NAN; 7];
            panel.basis(6).dots(&w, &mut out);
            assert_eq!(out, per_column, "n={n}");
        }
    }

    #[test]
    fn sub_matches_per_column_axpys_bitwise() {
        for n in [5, 1000, 20_000] {
            let (w, panel) = filled(n, 5);
            let coeffs: Vec<f64> = (0..5).map(|i| 0.3 - 0.17 * i as f64).collect();
            let mut expect = w.clone();
            for (j, &c) in coeffs.iter().enumerate() {
                ops::axpy(-c, panel.col(j), &mut expect);
            }
            let mut got = w.clone();
            panel.basis(5).sub(&coeffs, &mut got);
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn two_vector_kernels_match_per_column_loops_bitwise() {
        for (n, k) in [(5, 0), (5, 3), (1000, 4), (20_000, 6)] {
            let (y, mut panel) = filled(n, k + 2);
            let x = panel.col(k).to_vec();
            let a: Vec<f64> = (0..k).map(|i| 0.3 - 0.17 * i as f64).collect();
            let b: Vec<f64> = (0..=k).map(|i| 0.2 + 0.07 * i as f64).collect();
            panel.col_mut(k + 1).copy_from_slice(&y);

            let mut want: Vec<f64> = (0..=k).map(|j| ops::dot(&x, panel.col(j))).collect();
            want.extend((0..=k).map(|j| ops::dot(&y, panel.col(j))));
            want.push(ops::dot(&y, &y));
            let mut got = vec![f64::NAN; 2 * k + 3];
            panel.basis(k + 1).dots2(&x, &y, &mut got);
            assert_eq!(got, want, "dots2 n={n} k={k}");

            let (mut x_want, mut y_want) = (x.clone(), y.clone());
            for (j, &c) in a.iter().enumerate() {
                ops::axpy(-c, panel.col(j), &mut x_want);
            }
            x_want.iter_mut().for_each(|v| *v /= 1.7);
            for (j, &c) in b[..k].iter().enumerate() {
                ops::axpy(-c, panel.col(j), &mut y_want);
            }
            ops::axpy(-b[k], &x_want, &mut y_want);
            y_want.iter_mut().for_each(|v| *v /= 1.7);
            let (basis, x_got, y_got) = panel.split2(k);
            basis.sub2(&a, x_got, &b, y_got, 1.7);
            assert_eq!(x_got, &x_want[..], "sub2 x n={n} k={k}");
            assert_eq!(y_got, &y_want[..], "sub2 y n={n} k={k}");
        }
    }

    #[test]
    fn projection_orthogonalizes_against_basis() {
        // One CGS pass against an orthonormal basis must leave w with
        // negligible components along it.
        let n = 4096;
        let mut panel = Panel::zeros(n, 3);
        panel.col_mut(0)[7] = 1.0;
        panel.col_mut(1)[123] = 1.0;
        for (i, w) in panel.col_mut(2).iter_mut().enumerate() {
            *w = (i as f64 * 0.05).sin();
        }
        let (basis, w) = panel.split(2);
        let mut h = vec![0.0; 3];
        basis.dots(w, &mut h);
        basis.sub(&h[..2], w);
        assert!(w[7].abs() < 1e-14);
        assert!(w[123].abs() < 1e-14);
    }

    #[test]
    fn empty_basis_leaves_only_the_norm() {
        let panel = Panel::zeros(3, 2);
        let mut w = vec![1.0, 2.0, 3.0];
        let mut out = [f64::NAN];
        panel.basis(0).dots(&w, &mut out);
        assert_eq!(out, [14.0]);
        panel.basis(0).sub(&[], &mut w);
        assert_eq!(w, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn truncate_keeps_the_leading_columns() {
        let (_, mut panel) = filled(7, 4);
        let kept: Vec<f64> = panel.col(1).to_vec();
        panel.truncate(2);
        assert_eq!(panel.n_cols(), 2);
        assert_eq!(panel.col(1).len(), 7);
        assert_eq!(panel.col(1), kept);
    }
}
