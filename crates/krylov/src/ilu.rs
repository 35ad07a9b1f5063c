//! Incomplete LU factorizations: ILU(0) and dual-threshold ILUT.
//!
//! Both factorizations store what the triangular sweeps read, in the order
//! they read it: the strict lower triangle of `L` (unit diagonal implicit)
//! and the strict upper triangle of `U` in **separate** CSR arrays with
//! 32-bit columns, plus the reciprocals of `U`'s diagonal. A forward sweep
//! touches no byte of `U`, a backward sweep none of `L`, and both go through
//! one row kernel (`parapre_sparse::ops::row_sub`). Rows end with the entry
//! nearest the diagonal: `L` columns ascend, `U` columns descend.
//!
//! The layout keeps what the paper's `Schur 1` preconditioner exploits: if
//! the subdomain matrix is ordered internal-points-first, the **trailing
//! block** of the factor approximates an LU factorization of the local Schur
//! complement `S_i = C_i − E_i B_i⁻¹ F_i`, and the **leading block** is an
//! approximate factorization of `B_i` ([`LuFactors::leading_solve`],
//! [`LuFactors::trailing_block`]).

use crate::precond::Preconditioner;
use parapre_sparse::ops::{self, SplitCsr, SplitLu};
use parapre_sparse::{Csr, Error, FactorReport, Result};
use std::sync::Arc;

/// The diagonal-shift retry ladder: relative shifts applied to the
/// diagonal (scaled by each row's norm) when an unshifted factorization
/// breaks down or produces unhealthy pivots. The first rung is the plain
/// factorization.
pub const SHIFT_LADDER: [f64; 4] = [0.0, 1e-8, 1e-4, 1e-2];

/// The value-independent half of a factor: the sparsity patterns of `L` and
/// of the strict upper triangle of `U`.
/// Computed once by the symbolic factorization ([`Ilu0::factor`],
/// [`Ilut::factor`]) and shared by `Arc` with every numeric
/// refactorization ([`LuFactors::refactor`]).
#[derive(Debug)]
struct LuSymbolic {
    /// Row pointers of `L` (`n + 1` entries).
    l_ptr: Vec<usize>,
    /// Columns of `L`, ascending in every row.
    l_cols: Vec<u32>,
    /// Row pointers of the strict upper triangle of `U` (`n + 1` entries).
    u_ptr: Vec<usize>,
    /// Columns of the strict upper triangle, descending in every row (like
    /// an `L` row, a `U` row ends with the entry nearest the diagonal).
    u_cols: Vec<u32>,
}

impl LuSymbolic {
    fn dim(&self) -> usize {
        self.l_ptr.len() - 1
    }

    /// IKJ elimination of `a` **inside this pattern** (Saad, Alg. 10.4):
    /// row `i` of `a` is scattered into a dense accumulator (entries outside
    /// the pattern are dropped), eliminated over its `L` columns in
    /// increasing order with every update restricted to the pattern, and
    /// gathered into `(l_vals, diag, u_vals)`. `check_pivot(i, d)` decides
    /// whether pivot `d` of row `i` may stand.
    fn eliminate(
        &self,
        a: &Csr,
        check_pivot: impl Fn(usize, f64) -> Result<()>,
    ) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>)> {
        let n = self.dim();
        let mut l_vals = vec![0.0f64; self.l_cols.len()];
        let mut u_vals = vec![0.0f64; self.u_cols.len()];
        let mut diag = vec![0.0f64; n];
        let mut w = vec![0.0f64; n];
        // `in_row[c] == i` while column `c` belongs to the pattern of row `i`.
        let mut in_row = vec![usize::MAX; n];
        for i in 0..n {
            let l_row = self.l_ptr[i]..self.l_ptr[i + 1];
            let u_row = self.u_ptr[i]..self.u_ptr[i + 1];
            let pattern = self.l_cols[l_row.clone()]
                .iter()
                .chain(&self.u_cols[u_row.clone()])
                .map(|&c| c as usize)
                .chain([i]);
            for c in pattern {
                w[c] = 0.0;
                in_row[c] = i;
            }
            let (a_cols, a_vals) = a.row(i);
            for (&j, &v) in a_cols.iter().zip(a_vals) {
                if in_row[j] == i {
                    w[j] = v;
                }
            }
            for kp in l_row {
                let k = self.l_cols[kp] as usize;
                let lik = w[k] / diag[k];
                l_vals[kp] = lik;
                if lik == 0.0 {
                    continue;
                }
                let k_row = self.u_ptr[k]..self.u_ptr[k + 1];
                for (&j, &ukj) in self.u_cols[k_row.clone()].iter().zip(&u_vals[k_row]) {
                    if in_row[j as usize] == i {
                        w[j as usize] -= lik * ukj;
                    }
                }
            }
            diag[i] = w[i];
            check_pivot(i, diag[i])?;
            for (slot, &c) in u_vals[u_row.clone()].iter_mut().zip(&self.u_cols[u_row]) {
                *slot = w[c as usize];
            }
        }
        Ok((l_vals, diag, u_vals))
    }
}

/// An incomplete LU factorization in sweep order.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Patterns of `L` and of the strict upper triangle of `U`.
    sym: Arc<LuSymbolic>,
    /// Values of `L` (unit diagonal implicit), aligned with `sym.l_cols`.
    l_vals: Vec<f64>,
    /// Values of the strict upper triangle of `U`, aligned with `sym.u_cols`.
    u_vals: Vec<f64>,
    /// The diagonal of `U`. The sweeps never read it (they multiply by
    /// `diag_inv`); the refactorization divides by it, and
    /// [`LuFactors::merged`] and [`LuFactors::trailing_block`] copy it.
    diag: Vec<f64>,
    /// Reciprocals of the diagonal values: the backward sweep multiplies
    /// instead of dividing (divides cost ~4× a multiply on current cores).
    diag_inv: Vec<f64>,
    /// Number of pivots that had to be replaced by a small fallback value.
    pivot_fixes: usize,
    /// Structured health report of the factorization.
    report: FactorReport,
}

impl LuFactors {
    /// Puts freshly computed values on a pattern: scans them into the
    /// [`FactorReport`], rejects non-finite entries and unusable pivots with
    /// a typed error, and takes the pivot reciprocals.
    fn assemble(
        sym: Arc<LuSymbolic>,
        l_vals: Vec<f64>,
        diag: Vec<f64>,
        u_vals: Vec<f64>,
        pivot_fixes: usize,
    ) -> Result<Self> {
        let mut report = FactorReport::scan(&l_vals, &diag, &u_vals);
        report.pivot_fixes = pivot_fixes;
        if report.nonfinite > 0 {
            // Locate the first poisoned row so the error is actionable.
            let finite = |vals: &[f64]| vals.iter().all(|v| v.is_finite());
            let row = (0..sym.dim())
                .find(|&i| {
                    !(finite(&l_vals[sym.l_ptr[i]..sym.l_ptr[i + 1]])
                        && diag[i].is_finite()
                        && finite(&u_vals[sym.u_ptr[i]..sym.u_ptr[i + 1]]))
                })
                .unwrap_or(0);
            return Err(Error::NonFinitePivot(row));
        }
        let diag_inv = ops::diag_reciprocals_checked(&diag)?;
        Ok(LuFactors {
            sym,
            l_vals,
            u_vals,
            diag,
            diag_inv,
            pivot_fixes,
            report,
        })
    }

    /// Takes a merged factor matrix (strict lower = `L` with its unit
    /// diagonal implicit, diagonal + upper = `U`) as it is: the inverse of
    /// [`LuFactors::merged`], bit for bit.
    pub fn from_merged(lu: &Csr) -> Result<Self> {
        let s = SplitCsr::from_merged(lu)?;
        let sym = LuSymbolic {
            l_ptr: s.l_ptr,
            l_cols: s.l_cols,
            u_ptr: s.u_ptr,
            u_cols: s.u_cols,
        };
        LuFactors::assemble(Arc::new(sym), s.l_vals, s.diag, s.u_vals, 0)
    }

    /// Numeric-only refactorization: factors `a` **inside this factor's
    /// sparsity pattern**, skipping everything symbolic — no drop-tolerance
    /// selection, no fill bookkeeping.
    ///
    /// Row `i` of `a` is scattered into the frozen pattern (entries of `a`
    /// outside it are dropped), then eliminated IKJ-style over the stored
    /// `L` entries only, with every update restricted to the pattern. The
    /// result shares the patterns with `self` by `Arc`;
    /// only the values, the diagonal reciprocals and the [`FactorReport`]
    /// are new. With the pattern of a complete factorization (ILUT with
    /// `drop_tol = 0` and unbounded fill, or ILU(0) of the same pattern)
    /// this reproduces that factorization's values.
    ///
    /// Strict by design: a frozen pattern cannot be repaired by a pivot
    /// fix or a diagonal shift, so a zero, negligible
    /// ([`parapre_sparse::report::SMALL_PIVOT_RTOL`]) or non-finite pivot
    /// is **reported** as [`Error::ZeroPivot`] / [`Error::NonFinitePivot`],
    /// never patched — the caller falls back to the symbolic factorization
    /// and its shift ladder. A matrix of another shape is
    /// [`Error::DimensionMismatch`].
    pub fn refactor(&self, a: &Csr) -> Result<LuFactors> {
        let n = self.dim();
        for found in [a.n_rows(), a.n_cols()] {
            if found != n {
                return Err(Error::DimensionMismatch {
                    op: "refactor",
                    expected: n,
                    found,
                });
            }
        }
        let (l_vals, diag, u_vals) = self.sym.eliminate(a, |i, d| {
            if !d.is_finite() {
                Err(Error::NonFinitePivot(i))
            } else if d.abs() < f64::MIN_POSITIVE * 1e4 {
                Err(Error::ZeroPivot(i))
            } else {
                Ok(())
            }
        })?;
        let f = LuFactors::assemble(Arc::clone(&self.sym), l_vals, diag, u_vals, 0)?;
        if !f.report.healthy() {
            let row = f
                .diag
                .iter()
                .position(|d| d.abs() == f.report.min_pivot)
                .unwrap_or(0);
            return Err(Error::ZeroPivot(row));
        }
        parapre_metrics::count(parapre_metrics::names::FILL_NNZ, f.nnz() as u64);
        Ok(f)
    }

    /// Structured health report: pivot extrema, fill, zero/small-pivot
    /// counts, and the diagonal shift (if any) these factors were built
    /// under.
    pub fn report(&self) -> &FactorReport {
        &self.report
    }

    pub(crate) fn set_shift(&mut self, alpha: f64, attempts: usize) {
        self.report.shift_alpha = alpha;
        self.report.shift_attempts = attempts;
    }

    /// The factor as one merged CSR matrix — strict lower = `L` (unit
    /// diagonal implicit), diagonal + upper = `U` — built on demand (tests,
    /// diagnostics).
    pub fn merged(&self) -> Csr {
        let n = self.dim();
        let sym = &*self.sym;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for i in 0..n {
            let l_row = sym.l_ptr[i]..sym.l_ptr[i + 1];
            let u_row = sym.u_ptr[i]..sym.u_ptr[i + 1];
            col_idx.extend(sym.l_cols[l_row.clone()].iter().map(|&c| c as usize));
            vals.extend_from_slice(&self.l_vals[l_row]);
            col_idx.push(i);
            vals.push(self.diag[i]);
            col_idx.extend(sym.u_cols[u_row.clone()].iter().rev().map(|&c| c as usize));
            vals.extend(self.u_vals[u_row].iter().rev());
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts_unchecked(n, n, row_ptr, col_idx, vals)
    }

    /// Dimension of the factorization.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Stored entries in the factor, pivots included (fill measure).
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.diag.len() + self.u_vals.len()
    }

    /// Number of zero pivots replaced by a fallback during factorization.
    pub fn pivot_fixes(&self) -> usize {
        self.pivot_fixes
    }

    /// Whether `other` holds the same symbolic half (patterns of `L` and
    /// `U`) by `Arc`, as a factor made by [`LuFactors::refactor`] does with
    /// its donor.
    pub fn shares_pattern_with(&self, other: &LuFactors) -> bool {
        Arc::ptr_eq(&self.sym, &other.sym)
    }

    /// What the sweep kernels read of this factor.
    fn sweep_view(&self) -> SplitLu<'_> {
        SplitLu {
            l_ptr: &self.sym.l_ptr,
            l_cols: &self.sym.l_cols,
            l_vals: &self.l_vals,
            u_ptr: &self.sym.u_ptr,
            u_cols: &self.sym.u_cols,
            u_vals: &self.u_vals,
            diag_inv: &self.diag_inv,
        }
    }

    /// Solves `L U x = b` in place (`x` holds `b` on entry).
    pub fn solve_in_place(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim());
        ops::solve_lu(&self.sweep_view(), x);
    }

    /// Solves `L U xs[c] = bs[c]` for every column, each factor entry read
    /// once per group of up to eight columns: bit for bit one
    /// [`LuFactors::solve_in_place`] per column.
    pub fn solve_columns(&self, bs: &[&[f64]], xs: &mut [&mut [f64]]) {
        ops::solve_lu_columns(&self.sweep_view(), self.dim(), bs, xs);
    }

    /// Solves with the **leading** `nb × nb` principal block of the factor,
    /// ignoring all entries with column ≥ `nb` — an approximate solve with
    /// the internal block `B_i` when the matrix is ordered internal-first.
    ///
    /// Only `x[..nb]` participates; the tail is untouched.
    pub fn leading_solve(&self, nb: usize, x: &mut [f64]) {
        debug_assert!(nb <= self.dim());
        ops::solve_lu_leading(&self.sweep_view(), nb, x);
    }

    /// Extracts the trailing `(n−nb) × (n−nb)` block of the factor as a
    /// standalone factorization — the paper's approximate local Schur
    /// complement factors `L_{S_i} U_{S_i}`.
    pub fn trailing_block(&self, nb: usize) -> LuFactors {
        let n = self.dim();
        debug_assert!(nb <= n);
        let sym = &*self.sym;
        // A kept column is at least `nb`, so its shifted index is no wider
        // than the stored one.
        let shifted = |c: u32| ops::narrow_index(c as usize - nb).expect("narrower than stored");
        // Sized to the trailing rows: every U entry is kept, the L rows
        // lose their leading E block (trimmed below).
        let (l_max, u_len) = (sym.l_ptr[n] - sym.l_ptr[nb], sym.u_ptr[n] - sym.u_ptr[nb]);
        let (mut l_ptr, mut u_ptr) = (
            Vec::with_capacity(n - nb + 1),
            Vec::with_capacity(n - nb + 1),
        );
        l_ptr.push(0);
        u_ptr.push(0);
        let (mut l_cols, mut u_cols) = (Vec::with_capacity(l_max), Vec::with_capacity(u_len));
        let (mut l_vals, mut u_vals) = (Vec::with_capacity(l_max), Vec::with_capacity(u_len));
        for i in nb..n {
            // L columns ascend, so the E block (columns < nb) leads the row;
            // every U column is > i ≥ nb.
            let l_row = sym.l_ptr[i]..sym.l_ptr[i + 1];
            let skip = sym.l_cols[l_row.clone()].partition_point(|&c| (c as usize) < nb);
            let l_kept = l_row.start + skip..l_row.end;
            l_cols.extend(sym.l_cols[l_kept.clone()].iter().map(|&c| shifted(c)));
            l_vals.extend_from_slice(&self.l_vals[l_kept]);
            l_ptr.push(l_cols.len());
            let u_row = sym.u_ptr[i]..sym.u_ptr[i + 1];
            u_cols.extend(sym.u_cols[u_row.clone()].iter().map(|&c| shifted(c)));
            u_vals.extend_from_slice(&self.u_vals[u_row]);
            u_ptr.push(u_cols.len());
        }
        l_cols.shrink_to_fit();
        l_vals.shrink_to_fit();
        let sym = LuSymbolic {
            l_ptr,
            l_cols,
            u_ptr,
            u_cols,
        };
        // Parent factors passed the checked-reciprocal gate, so the trailing
        // diagonals are finite and nonzero.
        LuFactors::assemble(Arc::new(sym), l_vals, self.diag[nb..].to_vec(), u_vals, 0)
            .expect("trailing block keeps diagonals")
    }
}

/// Runs `factor` up the diagonal-shift ladder: the plain matrix first, then
/// copies with increasingly large diagonal shifts (`alpha · ‖row‖∞`,
/// [`SHIFT_LADDER`]), until a factorization succeeds with healthy pivots.
/// The last rung that produced *any* finite factorization is accepted
/// best-effort; only when every rung errors does the ladder fail.
///
/// Generic over what is factored: `judged` reaches the [`LuFactors`] whose
/// report decides a rung's health and records the outcome — the factors
/// themselves for ILU(0)/ILUT, the last level for ARMS.
///
/// Each retry increments the `factor.pivot_shift` trace counter; the
/// winning factor records `shift_alpha`/`shift_attempts` in its report.
pub fn factor_with_shifts<T>(
    a: &Csr,
    mut factor: impl FnMut(&Csr) -> Result<T>,
    judged: impl Fn(&mut T) -> &mut LuFactors,
) -> Result<T> {
    let mut best: Option<(T, f64, usize)> = None;
    let mut last_err = None;
    for (attempt, &alpha) in SHIFT_LADDER.iter().enumerate() {
        if attempt > 0 {
            parapre_metrics::count(parapre_metrics::names::PIVOT_SHIFT, 1);
        }
        let shifted;
        let target = if alpha == 0.0 {
            a
        } else {
            shifted = a.with_shifted_diagonal(alpha);
            &shifted
        };
        match factor(target) {
            Ok(mut f) => {
                // A rung only wins outright when no pivot needed rescuing;
                // otherwise keep it as the best-effort candidate and climb.
                let lu = judged(&mut f);
                let healthy = lu.report().healthy() && lu.pivot_fixes() == 0;
                best = Some((f, alpha, attempt));
                if healthy {
                    break;
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((mut f, alpha, attempts)) => {
            judged(&mut f).set_shift(alpha, attempts);
            Ok(f)
        }
        None => Err(last_err.expect("ladder ran at least once")),
    }
}

impl Preconditioner for LuFactors {
    fn dim(&self) -> usize {
        LuFactors::dim(self)
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.solve_in_place(z);
    }
}

/// Zero fill-in incomplete LU: the factor has exactly the pattern of `A`.
#[derive(Debug, Clone)]
pub struct Ilu0;

impl Ilu0 {
    /// Factors `a` with the IKJ variant of ILU(0) (Saad, Alg. 10.4).
    ///
    /// Returns an error when a diagonal entry is structurally missing or an
    /// exact zero pivot is produced.
    pub fn factor(a: &Csr) -> Result<LuFactors> {
        let n = a.n_rows();
        if n != a.n_cols() {
            return Err(Error::DimensionMismatch {
                op: "ilu0",
                expected: n,
                found: a.n_cols(),
            });
        }
        let s = SplitCsr::from_merged(a)?;
        let sym = LuSymbolic {
            l_ptr: s.l_ptr,
            l_cols: s.l_cols,
            u_ptr: s.u_ptr,
            u_cols: s.u_cols,
        };
        // ILU(0) is the elimination inside the pattern of `a` itself.
        let (l_vals, diag, u_vals) = sym.eliminate(a, |i, d| {
            if d == 0.0 {
                Err(Error::ZeroPivot(i))
            } else {
                Ok(())
            }
        })?;
        parapre_metrics::count(parapre_metrics::names::FILL_NNZ, a.nnz() as u64);
        LuFactors::assemble(Arc::new(sym), l_vals, diag, u_vals, 0)
    }

    /// [`Ilu0::factor`] behind the diagonal-shift retry ladder
    /// ([`factor_with_shifts`]): never returns factors with zero or
    /// non-finite pivots without first trying shifted copies of `a`.
    pub fn factor_shifted(a: &Csr) -> Result<LuFactors> {
        factor_with_shifts(a, Ilu0::factor, |f| f)
    }
}

/// The lower columns ILUT still has to eliminate in the current row: a
/// bitset with one bit per column and a summary bit per 64-bit word, so
/// finding the smallest member skips 4,096 empty columns per summary word
/// read.
///
/// [`PendingColumns::pop`] returns the smallest member. Its search starts
/// at a cursor, the first summary word that may have a bit set: an insert
/// moves it down to its own summary word, a pop moves it up past empty
/// ones. Within a row it moves down only while the row's own lower columns
/// go in; after that it only moves up, because every fill from `U`'s row
/// `k` lands above the `k` just popped.
struct PendingColumns {
    /// Bit `j % 64` of word `j / 64` is set when column `j` is pending.
    words: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64` is set when word `w` is not 0.
    summary: Vec<u64>,
    /// No summary word below this one has a bit set.
    cursor: usize,
    /// Number of pending columns: a pop on an empty set reads no word.
    len: usize,
}

impl PendingColumns {
    /// An empty set over columns `0..n`.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        PendingColumns {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            cursor: 0,
            len: 0,
        }
    }

    /// Adds column `j`, which must not be pending.
    fn insert(&mut self, j: usize) {
        let w = j / 64;
        self.words[w] |= 1 << (j % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.cursor = self.cursor.min(w / 64);
        self.len += 1;
    }

    /// Removes and returns the smallest pending column.
    fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        loop {
            let s = self.summary[self.cursor];
            if s != 0 {
                let w = self.cursor * 64 + s.trailing_zeros() as usize;
                let bits = self.words[w];
                self.words[w] = bits & (bits - 1);
                if self.words[w] == 0 {
                    self.summary[self.cursor] = s & (s - 1);
                }
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            self.cursor += 1;
        }
    }
}

/// Parameters of the dual-threshold ILUT factorization.
#[derive(Debug, Clone, Copy)]
pub struct IlutConfig {
    /// Relative drop tolerance `τ`: entries smaller than `τ · ‖row‖₂ / √len`
    /// — `τ` times the root mean square of the row's `len` stored entries, as
    /// in SPARSKIT — are dropped.
    pub drop_tol: f64,
    /// Maximum number of kept entries per row in *each* of the L and U parts
    /// (the diagonal is always kept and does not count).
    pub fill: usize,
}

impl Default for IlutConfig {
    fn default() -> Self {
        // The classical pARMS-ish defaults used throughout the benches.
        IlutConfig {
            drop_tol: 1e-3,
            fill: 20,
        }
    }
}

/// Dual-threshold incomplete LU (Saad's ILUT(τ, p), Alg. 10.6).
#[derive(Debug, Clone)]
pub struct Ilut;

impl Ilut {
    /// Factors `a` with drop tolerance and fill cap from `cfg`.
    ///
    /// Exact zero pivots after dropping are replaced by `τ·‖row‖₂/√len` (with a
    /// final absolute fallback) and counted in
    /// [`LuFactors::pivot_fixes`] — the factorization never fails on a
    /// numerically awkward row, matching pARMS behaviour.
    pub fn factor(a: &Csr, cfg: &IlutConfig) -> Result<LuFactors> {
        let n = a.n_rows();
        if n != a.n_cols() {
            return Err(Error::DimensionMismatch {
                op: "ilut",
                expected: n,
                found: a.n_cols(),
            });
        }
        // U rows built so far (strict upper part), flat storage.
        let mut u_row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
        let mut u_cols: Vec<u32> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut u_diag: Vec<f64> = Vec::with_capacity(n);
        u_row_ptr.push(0);
        // L rows (strict lower part).
        let mut l_row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
        let mut l_cols: Vec<u32> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        l_row_ptr.push(0);

        let mut w = vec![0.0f64; n]; // dense accumulator
        let mut in_w = vec![false; n];
        let mut upper_list: Vec<usize> = Vec::new();
        // Lower indices still to eliminate, smallest first. A row's columns
        // are distinct and fill joins only where `in_w` is unset, so an
        // index enters at most once per row and pops in the order an
        // ordered set would give (DESIGN.md §4.2).
        let mut pending = PendingColumns::new(n);
        let mut lower_kept: Vec<(usize, f64)> = Vec::new();
        let mut upper_kept: Vec<(usize, f64)> = Vec::new();
        let mut pivot_fixes = 0usize;

        for i in 0..n {
            let (cols, vals) = a.row(i);
            let rownorm = {
                let s: f64 = vals.iter().map(|v| v * v).sum();
                (s / cols.len().max(1) as f64).sqrt()
            };
            let tau_i = cfg.drop_tol * rownorm;
            upper_list.clear();
            let mut have_diag = false;
            for (&j, &v) in cols.iter().zip(vals) {
                w[j] = v;
                in_w[j] = true;
                match j.cmp(&i) {
                    std::cmp::Ordering::Less => pending.insert(j),
                    std::cmp::Ordering::Equal => have_diag = true,
                    std::cmp::Ordering::Greater => upper_list.push(j),
                }
            }
            if !have_diag {
                w[i] = 0.0;
                in_w[i] = true;
            }
            lower_kept.clear();
            while let Some(k) = pending.pop() {
                let lik = w[k] / u_diag[k];
                w[k] = 0.0;
                in_w[k] = false;
                if lik.abs() < tau_i {
                    continue; // drop the multiplier, skip the update
                }
                // w -= lik * U_row(k)   (strict upper part of row k)
                // U rows are stored descending; visit them ascending, so new
                // fill joins the work lists in the order it always has.
                for idx in (u_row_ptr[k]..u_row_ptr[k + 1]).rev() {
                    let j = u_cols[idx] as usize;
                    let upd = lik * u_vals[idx];
                    if in_w[j] {
                        w[j] -= upd;
                    } else {
                        w[j] = -upd;
                        in_w[j] = true;
                        match j.cmp(&i) {
                            std::cmp::Ordering::Less => pending.insert(j),
                            std::cmp::Ordering::Equal => {}
                            std::cmp::Ordering::Greater => upper_list.push(j),
                        }
                    }
                }
                lower_kept.push((k, lik));
            }
            // Select the p largest lower entries (multipliers).
            if lower_kept.len() > cfg.fill {
                // total_cmp: a NaN in the accumulator must not panic the
                // sort — the non-finite scan in `assemble` rejects the
                // factor with a structured error instead.
                lower_kept.sort_unstable_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
                lower_kept.truncate(cfg.fill);
            }
            lower_kept.sort_unstable_by_key(|&(j, _)| j);
            for &(j, v) in &lower_kept {
                l_cols.push(ops::narrow_index(j)?);
                l_vals.push(v);
            }
            l_row_ptr.push(l_cols.len());

            // Diagonal with zero-pivot protection.
            let mut dii = w[i];
            w[i] = 0.0;
            in_w[i] = false;
            if dii.abs() < f64::MIN_POSITIVE * 1e4 {
                let fallback = if tau_i > 0.0 { tau_i } else { 1e-8 };
                dii = if dii < 0.0 { -fallback } else { fallback };
                pivot_fixes += 1;
            }
            u_diag.push(dii);

            // Select the p largest upper entries above the drop threshold.
            upper_kept.clear();
            for &j in &upper_list {
                let v = w[j];
                w[j] = 0.0;
                in_w[j] = false;
                if v.abs() >= tau_i {
                    upper_kept.push((j, v));
                }
            }
            if upper_kept.len() > cfg.fill {
                upper_kept.sort_unstable_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
                upper_kept.truncate(cfg.fill);
            }
            upper_kept.sort_unstable_by_key(|&(j, _)| j);
            for &(j, v) in upper_kept.iter().rev() {
                u_cols.push(ops::narrow_index(j)?);
                u_vals.push(v);
            }
            u_row_ptr.push(u_cols.len());
        }

        // L and U are stored as they were built, without growth slack.
        l_cols.shrink_to_fit();
        l_vals.shrink_to_fit();
        u_cols.shrink_to_fit();
        u_vals.shrink_to_fit();
        let fill = l_cols.len() + n + u_cols.len();
        parapre_metrics::count(parapre_metrics::names::FILL_NNZ, fill as u64);
        let sym = LuSymbolic {
            l_ptr: l_row_ptr,
            l_cols,
            u_ptr: u_row_ptr,
            u_cols,
        };
        LuFactors::assemble(Arc::new(sym), l_vals, u_diag, u_vals, pivot_fixes)
    }

    /// [`Ilut::factor`] behind the diagonal-shift retry ladder
    /// ([`factor_with_shifts`]): retries on non-finite factors or rows that
    /// needed pivot fixes, accepting the first healthy rung.
    pub fn factor_shifted(a: &Csr, cfg: &IlutConfig) -> Result<LuFactors> {
        factor_with_shifts(a, |m| Ilut::factor(m, cfg), |f| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_sparse::Coo;

    /// 1-D Laplacian tridiag(-1, 2, -1).
    fn laplacian_1d(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    /// 2-D 5-point Laplacian on an `nx x nx` grid.
    fn laplacian_2d(nx: usize) -> Csr {
        let n = nx * nx;
        let mut coo = Coo::new(n, n);
        for iy in 0..nx {
            for ix in 0..nx {
                let i = iy * nx + ix;
                coo.push(i, i, 4.0);
                if ix > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if ix + 1 < nx {
                    coo.push(i, i + 1, -1.0);
                }
                if iy > 0 {
                    coo.push(i, i - nx, -1.0);
                }
                if iy + 1 < nx {
                    coo.push(i, i + nx, -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn pending_columns_pop_in_ascending_order() {
        // Columns across three summary words, inserted out of order and
        // interleaved with pops, as an ordered set would give them.
        let n = 3 * 4096 + 70;
        let mut set = PendingColumns::new(n);
        let mut want = std::collections::BTreeSet::new();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..2000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let j = (s % n as u64) as usize;
            if round % 3 != 2 && want.insert(j) {
                set.insert(j);
            } else {
                assert_eq!(set.pop(), want.pop_first());
            }
        }
        while let Some(j) = want.pop_first() {
            assert_eq!(set.pop(), Some(j));
        }
        assert_eq!(set.pop(), None);
        set.insert(0);
        set.insert(n - 1);
        assert_eq!(
            (set.pop(), set.pop(), set.pop()),
            (Some(0), Some(n - 1), None)
        );
    }

    #[test]
    fn ilu0_exact_on_tridiagonal() {
        // Tridiagonal matrices have no fill: ILU(0) must equal full LU,
        // so the solve is exact.
        let a = laplacian_1d(50);
        let f = Ilu0::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&x_true);
        let mut x = b;
        f.solve_in_place(&mut x);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn ilu0_pattern_matches_a() {
        let a = laplacian_2d(6);
        let f = Ilu0::factor(&a).unwrap();
        assert_eq!(f.nnz(), a.nnz());
        let m = f.merged();
        assert_eq!(m.row_ptr(), a.row_ptr());
        assert_eq!(m.col_idx(), a.col_idx());
    }

    #[test]
    fn ilu0_missing_diagonal_errors() {
        let a = Csr::from_dense_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(matches!(Ilu0::factor(&a), Err(Error::MissingDiagonal(_))));
    }

    #[test]
    fn ilu0_as_preconditioner_reduces_residual() {
        let a = laplacian_2d(10);
        let f = Ilu0::factor(&a).unwrap();
        let n = a.n_rows();
        let b = vec![1.0; n];
        let mut z = vec![0.0; n];
        f.apply(&b, &mut z);
        // One application of M^{-1} must beat the zero initial guess:
        // ||b - A M^{-1} b|| < ||b - A*0|| = ||b||.
        let mut az = vec![0.0; n];
        a.spmv(&z, &mut az);
        let r: f64 = b
            .iter()
            .zip(&az)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let r0: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(r < 0.75 * r0, "r={r}, r0={r0}");
    }

    #[test]
    fn ilut_with_huge_fill_is_nearly_exact() {
        let a = laplacian_2d(8);
        let f = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 0.0,
                fill: 1000,
            },
        )
        .unwrap();
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.mul_vec(&x_true);
        let mut x = b;
        f.solve_in_place(&mut x);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
        assert_eq!(f.pivot_fixes(), 0);
    }

    #[test]
    fn ilut_respects_fill_cap() {
        let a = laplacian_2d(10);
        let cfg = IlutConfig {
            drop_tol: 0.0,
            fill: 2,
        };
        let f = Ilut::factor(&a, &cfg).unwrap();
        let n = a.n_rows();
        let m = f.merged();
        for i in 0..n {
            let (cols, _) = m.row(i);
            let lower = cols.iter().filter(|&&j| j < i).count();
            let upper = cols.iter().filter(|&&j| j > i).count();
            assert!(lower <= 2, "row {i} lower {lower}");
            assert!(upper <= 2, "row {i} upper {upper}");
        }
    }

    #[test]
    fn ilut_tighter_drop_tol_gives_better_preconditioner() {
        let a = laplacian_2d(12);
        let n = a.n_rows();
        let loose = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 0.5,
                fill: 50,
            },
        )
        .unwrap();
        let tight = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 1e-4,
                fill: 50,
            },
        )
        .unwrap();
        let b = vec![1.0; n];
        let resid = |f: &LuFactors| {
            let mut z = vec![0.0; n];
            f.apply(&b, &mut z);
            let mut az = vec![0.0; n];
            a.spmv(&z, &mut az);
            b.iter()
                .zip(&az)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        assert!(resid(&tight) < resid(&loose));
    }

    #[test]
    fn leading_solve_matches_block_factor() {
        // For a block-diagonal matrix [B 0; 0 C] the leading solve with
        // nb = dim(B) must equal the exact solve with B (tridiagonal ⇒ ILU
        // exact).
        let b = laplacian_1d(6);
        let nb = 6;
        let n = 10;
        let mut coo = Coo::new(n, n);
        for (i, j, v) in b.iter() {
            coo.push(i, j, v);
        }
        for i in nb..n {
            coo.push(i, i, 3.0);
        }
        let a = coo.to_csr();
        let f = Ilu0::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..nb).map(|i| i as f64 - 2.5).collect();
        let rhs_head = b.mul_vec(&x_true);
        let mut x = vec![0.0; n];
        x[..nb].copy_from_slice(&rhs_head);
        x[nb..].fill(7.0);
        f.leading_solve(nb, &mut x);
        for (u, v) in x[..nb].iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
        // Tail untouched.
        assert!(x[nb..].iter().all(|&v| v == 7.0));
    }

    #[test]
    fn trailing_block_solves_schur_of_block_diagonal() {
        // Block diagonal [B 0; 0 C]: Schur complement = C, and the trailing
        // factor must solve with C exactly when C is tridiagonal.
        let c = laplacian_1d(5);
        let nb = 4;
        let n = nb + 5;
        let mut coo = Coo::new(n, n);
        for i in 0..nb {
            coo.push(i, i, 2.0);
        }
        for (i, j, v) in c.iter() {
            coo.push(nb + i, nb + j, v);
        }
        let a = coo.to_csr();
        let f = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 0.0,
                fill: 100,
            },
        )
        .unwrap();
        let fs = f.trailing_block(nb);
        assert_eq!(fs.dim(), 5);
        let y_true: Vec<f64> = (0..5).map(|i| 1.0 + i as f64).collect();
        let g = c.mul_vec(&y_true);
        let mut y = g;
        fs.solve_in_place(&mut y);
        for (u, v) in y.iter().zip(&y_true) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn trailing_block_approximates_true_schur() {
        // Internal-first ordered 2-D Laplacian: the trailing factor applied
        // to a vector should approximate S^{-1} y for the true Schur
        // complement S = C - E B^{-1} F.  We verify the relative error of
        // S * (Ls Us)^{-1} y vs y is well below 1 (preconditioner quality).
        let nx = 6;
        let a = laplacian_2d(nx);
        let n = a.n_rows();
        // Declare the last grid row as "interface".
        let nb = n - nx;
        let f = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 0.0,
                fill: 1000,
            },
        )
        .unwrap();
        let fs = f.trailing_block(nb);
        // Dense true Schur complement.
        let ad = a.to_dense();
        let mut bmat = parapre_sparse::Dense::zeros(nb, nb);
        for i in 0..nb {
            for j in 0..nb {
                bmat[(i, j)] = ad[i][j];
            }
        }
        let blu = parapre_sparse::dense::DenseLu::factor(bmat).unwrap();
        let ns = n - nb;
        let mut s = vec![vec![0.0; ns]; ns];
        for jj in 0..ns {
            // column jj of F
            let fcol: Vec<f64> = (0..nb).map(|i| ad[i][nb + jj]).collect();
            let binv_f = blu.solve(&fcol);
            for ii in 0..ns {
                let e_row: Vec<f64> = (0..nb).map(|k| ad[nb + ii][k]).collect();
                let ebf: f64 = e_row.iter().zip(&binv_f).map(|(a, b)| a * b).sum();
                s[ii][jj] = ad[nb + ii][nb + jj] - ebf;
            }
        }
        let smat = Csr::from_dense_rows(&s);
        let y: Vec<f64> = (0..ns).map(|i| (i as f64).cos()).collect();
        let mut z = y.clone();
        fs.solve_in_place(&mut z);
        let sz = smat.mul_vec(&z);
        let err: f64 = sz
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let ynorm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / ynorm < 0.35, "relative Schur error {}", err / ynorm);
    }

    #[test]
    fn ilut_handles_zero_pivot_row() {
        // A matrix engineered to hit the pivot fallback: row 1 becomes
        // exactly zero on the diagonal after elimination.
        let a = Csr::from_dense_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let f = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 0.0,
                fill: 10,
            },
        )
        .unwrap();
        assert_eq!(f.pivot_fixes(), 1);
        // The solve still produces finite values.
        let mut x = vec![1.0, 2.0];
        f.solve_in_place(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ilut_on_unsymmetric_matrix() {
        // Convection-like unsymmetric band matrix.
        let n = 40;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -2.5);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -0.5);
            }
        }
        let a = coo.to_csr();
        let f = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 0.0,
                fill: 10,
            },
        )
        .unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).exp() % 3.0).collect();
        let b = a.mul_vec(&x_true);
        let mut x = b;
        f.solve_in_place(&mut x);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    /// `a` with every stored value perturbed by a deterministic relative
    /// amount up to `eps` and the diagonal grown on top (stays dominant).
    fn perturbed(a: &Csr, eps: f64) -> Csr {
        let mut b = a.clone();
        for (k, (slot, (i, j, v))) in b.vals_mut().iter_mut().zip(a.iter()).enumerate() {
            let wobble = ((k * 37 + 11) % 101) as f64 / 101.0;
            let grow = if i == j { 1.0 + eps } else { 1.0 };
            *slot = v * (1.0 + eps * (wobble - 0.5)) * grow;
        }
        b
    }

    #[test]
    fn refactor_with_complete_pattern_equals_ilut() {
        // drop_tol = 0 and unbounded fill: the frozen pattern is the full
        // LU pattern, so the numeric refactorization of a same-pattern
        // matrix must reproduce a fresh ILUT of it.
        let cfg = IlutConfig {
            drop_tol: 0.0,
            fill: usize::MAX,
        };
        let a = laplacian_2d(9);
        let donor = Ilut::factor(&a, &cfg).unwrap();
        let a2 = perturbed(&a, 0.1);
        let got = donor.refactor(&a2).unwrap();
        let want = Ilut::factor(&a2, &cfg).unwrap();
        let (got_m, want_m) = (got.merged(), want.merged());
        assert_eq!(got_m.row_ptr(), want_m.row_ptr());
        assert_eq!(got_m.col_idx(), want_m.col_idx());
        for (g, w) in got_m.vals().iter().zip(want_m.vals()) {
            assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0), "{g} vs {w}");
        }
        // The patterns are the donor's own allocation; values and the
        // report are new.
        assert!(got.shares_pattern_with(&donor));
        assert!(!got.shares_pattern_with(&want));
        assert_eq!(got.pivot_fixes(), 0);
        assert!(got.report().healthy());
        assert_eq!(got.report().fill_nnz, donor.report().fill_nnz);
        assert_ne!(got.report().max_pivot, donor.report().max_pivot);
    }

    #[test]
    fn refactor_of_ilu0_is_ilu0() {
        // ILU(0) is numeric-only already: refactoring through the frozen
        // pattern is the same arithmetic in the same order.
        let a = laplacian_2d(8);
        let a2 = perturbed(&a, 0.05);
        let got = Ilu0::factor(&a).unwrap().refactor(&a2).unwrap();
        let want = Ilu0::factor(&a2).unwrap();
        assert_eq!(got.merged(), want.merged());
    }

    #[test]
    fn refactor_drops_entries_outside_the_frozen_pattern() {
        // A tight fill cap freezes a sparse pattern; the refactored factor
        // stays inside it and still preconditions the new matrix.
        let a = laplacian_2d(10);
        let donor = Ilut::factor(
            &a,
            &IlutConfig {
                drop_tol: 1e-2,
                fill: 3,
            },
        )
        .unwrap();
        let a2 = perturbed(&a, 0.1);
        let f = donor.refactor(&a2).unwrap();
        assert_eq!(f.nnz(), donor.nnz());
        let n = a.n_rows();
        let b = vec![1.0; n];
        let mut z = b.clone();
        f.solve_in_place(&mut z);
        let az = a2.mul_vec(&z);
        let r: f64 = b
            .iter()
            .zip(&az)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(r < 0.75 * (n as f64).sqrt(), "residual {r}");
    }

    #[test]
    fn refactor_rejects_other_shapes_with_typed_errors() {
        let donor = Ilu0::factor(&laplacian_2d(4)).unwrap();
        // Another pattern altogether: a different dimension.
        assert!(matches!(
            donor.refactor(&laplacian_2d(5)),
            Err(Error::DimensionMismatch { op: "refactor", .. })
        ));
        // Non-square input with the donor's row count.
        let wide = Csr::zero(16, 17);
        assert!(matches!(
            donor.refactor(&wide),
            Err(Error::DimensionMismatch { op: "refactor", .. })
        ));
    }

    #[test]
    fn refactor_reports_a_zero_pivot_instead_of_patching_it() {
        // Same pattern, but elimination cancels the (1,1) pivot exactly.
        let a = Csr::from_dense_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let donor = Ilu0::factor(&a).unwrap();
        let singular = Csr::from_dense_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(matches!(
            donor.refactor(&singular),
            Err(Error::ZeroPivot(1))
        ));
        // A pivot that is merely negligible next to the largest one is
        // refused the same way (no shift, no fix under a frozen pattern).
        let tiny = Csr::from_dense_rows(&[vec![1.0, 1.0], vec![1.0, 1.0 + 1e-15]]);
        assert!(matches!(donor.refactor(&tiny), Err(Error::ZeroPivot(1))));
        // And the symbolic path would have patched it.
        let cfg = IlutConfig {
            drop_tol: 0.0,
            fill: 10,
        };
        assert_eq!(Ilut::factor(&singular, &cfg).unwrap().pivot_fixes(), 1);
    }
}
