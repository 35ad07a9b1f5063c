//! Input generation: the only file of the gate that touches product code.
//!
//! [`case_matrix`] calls `parapre_core::build_case_sized` and copies the CSR
//! arrays out through `Csr`'s accessors. Everything after that — the
//! products `A·x`, the Matrix Market text, the right-hand-side files — is the
//! benchmark's own code, so it also serves as the independent check of what
//! the server is asked to solve.

use crate::rng::{stream, Rng};
use std::fmt::Write as _;

/// The paper's test cases the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Poisson, 2-D unit square.
    Tc1,
    /// Poisson, 3-D unit cube.
    Tc2,
    /// Poisson, unstructured 2-D grid (`extent` is the target point count).
    Tc3,
    /// Linear elasticity on the quarter ring, two unknowns per node.
    Tc6,
}

impl Case {
    pub fn key(self) -> &'static str {
        match self {
            Case::Tc1 => "tc1",
            Case::Tc2 => "tc2",
            Case::Tc3 => "tc3",
            Case::Tc6 => "tc6",
        }
    }
}

/// A square CSR matrix with its diagonal found and the Matrix Market lines
/// of its off-diagonal entries already rendered: those never change between
/// the value variants of one matrix, and rendering them is most of the cost
/// of producing a variant.
pub struct Matrix {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<usize>,
    pub vals: Vec<f64>,
    diag: Vec<f64>,
    offdiag_text: Vec<u8>,
}

/// Assembles a test case with the product's generator and copies it out.
pub fn case_matrix(case: Case, extent: usize) -> Matrix {
    use parapre_core::CaseId;
    let id = match case {
        Case::Tc1 => CaseId::Tc1,
        Case::Tc2 => CaseId::Tc2,
        Case::Tc3 => CaseId::Tc3,
        Case::Tc6 => CaseId::Tc6,
    };
    let a = parapre_core::build_case_sized(id, extent).sys.a;
    Matrix::new(
        a.n_rows(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.vals().to_vec(),
    )
}

/// The text of one matrix variant, to be sent as `head`, the matrix's
/// unchanging off-diagonal lines, then `tail`.
pub struct MtxVariant {
    pub head: Vec<u8>,
    pub tail: Vec<u8>,
}

/// Largest relative increase a variant applies to a diagonal entry. Small
/// enough that iteration counts stay those of the base matrix, large enough
/// that every variant has its own fingerprint.
const DIAG_PERTURBATION: f64 = 1e-3;

/// Magnitude of a new-pattern coupling relative to the row's diagonal: it
/// changes the sparsity pattern, not the numerics.
const EXTRA_COUPLING: f64 = 1e-6;

impl Matrix {
    pub fn new(n: usize, row_ptr: Vec<usize>, col_idx: Vec<usize>, vals: Vec<f64>) -> Matrix {
        assert_eq!(row_ptr.len(), n + 1, "row_ptr length");
        let mut diag = vec![f64::NAN; n];
        let mut offdiag_text = Vec::with_capacity(vals.len() * 32);
        let mut line = String::new();
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                if col_idx[k] == i {
                    diag[i] = vals[k];
                } else {
                    line.clear();
                    let _ = writeln!(line, "{} {} {:e}", i + 1, col_idx[k] + 1, vals[k]);
                    offdiag_text.extend_from_slice(line.as_bytes());
                }
            }
            assert!(diag[i] > 0.0, "row {i} has no positive stored diagonal");
        }
        Matrix {
            n,
            row_ptr,
            col_idx,
            vals,
            diag,
            offdiag_text,
        }
    }

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The Matrix Market lines shared by every variant.
    pub fn offdiag_text(&self) -> &[u8] {
        &self.offdiag_text
    }

    /// `A·x`, by the benchmark's own loop.
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|i| {
                (self.row_ptr[i]..self.row_ptr[i + 1])
                    .map(|k| self.vals[k] * x[self.col_idx[k]])
                    .sum()
            })
            .collect()
    }

    fn has_entry(&self, i: usize, j: usize) -> bool {
        self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]].contains(&j)
    }

    /// The matrix as uploaded first: values unchanged.
    pub fn base_variant(&self) -> MtxVariant {
        self.render(|_| 1.0, &[])
    }

    /// Same pattern, new values: every diagonal entry grows by a seeded
    /// relative amount, as a time step or a Newton update would change it.
    pub fn perturbed_variant(&self, rng: &mut Rng) -> MtxVariant {
        self.render(|_| 1.0 + DIAG_PERTURBATION * (0.5 + 0.5 * rng.unit()), &[])
    }

    /// New values and a new pattern: `pairs` seeded symmetric couplings
    /// between unknowns the base matrix does not couple.
    pub fn new_pattern_variant(&self, rng: &mut Rng, pairs: usize) -> MtxVariant {
        let mut extra = Vec::with_capacity(pairs);
        while extra.len() < pairs {
            let (i, j) = (rng.below(self.n), rng.below(self.n));
            if i != j
                && !self.has_entry(i, j)
                && !extra.contains(&(i, j))
                && !extra.contains(&(j, i))
            {
                extra.push((i, j));
            }
        }
        self.render(
            |_| 1.0 + DIAG_PERTURBATION * (0.5 + 0.5 * rng.unit()),
            &extra,
        )
    }

    fn render(
        &self,
        mut diag_factor: impl FnMut(usize) -> f64,
        extra: &[(usize, usize)],
    ) -> MtxVariant {
        let mut head = String::new();
        let _ = writeln!(head, "%%MatrixMarket matrix coordinate real general");
        let _ = writeln!(
            head,
            "{} {} {}",
            self.n,
            self.n,
            self.nnz() + 2 * extra.len()
        );
        let mut tail = String::with_capacity(self.n * 32);
        for (i, d) in self.diag.iter().enumerate() {
            let _ = writeln!(tail, "{} {} {:e}", i + 1, i + 1, d * diag_factor(i));
        }
        for &(i, j) in extra {
            let v = -EXTRA_COUPLING * self.diag[i].min(self.diag[j]);
            let _ = writeln!(tail, "{} {} {:e}", i + 1, j + 1, v);
            let _ = writeln!(tail, "{} {} {:e}", j + 1, i + 1, v);
        }
        MtxVariant {
            head: head.into_bytes(),
            tail: tail.into_bytes(),
        }
    }

    /// The `k`-th right-hand side of a run: `b = A·x_true` with `x_true`
    /// seeded, uniform in `[0.5, 1.5)`.
    pub fn rhs(&self, seed: u64, k: usize) -> Vec<f64> {
        let mut rng = Rng::new(seed, &[stream::RHS, k as u64]);
        let x_true: Vec<f64> = (0..self.n).map(|_| 0.5 + rng.unit()).collect();
        self.mul(&x_true)
    }

    /// [`Matrix::rhs`] as the text of a vector file, one number per line.
    pub fn rhs_text(&self, seed: u64, k: usize) -> String {
        let mut text = String::with_capacity(self.n * 24);
        for v in self.rhs(seed, k) {
            let _ = writeln!(text, "{v:e}");
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D Laplacian: tridiagonal `[-1, 2, -1]`.
    fn laplacian(n: usize) -> Matrix {
        let (mut row_ptr, mut col_idx, mut vals) = (vec![0], Vec::new(), Vec::new());
        for i in 0..n {
            for (j, v) in [(i.wrapping_sub(1), -1.0), (i, 2.0), (i + 1, -1.0)] {
                if j < n {
                    col_idx.push(j);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Matrix::new(n, row_ptr, col_idx, vals)
    }

    fn text(m: &Matrix, v: &MtxVariant) -> String {
        let mut all = v.head.clone();
        all.extend_from_slice(m.offdiag_text());
        all.extend_from_slice(&v.tail);
        String::from_utf8(all).unwrap()
    }

    #[test]
    fn own_spmv_and_rendered_text_agree_with_the_arrays() {
        let m = laplacian(5);
        assert_eq!(m.mul(&[1.0; 5]), [1.0, 0.0, 0.0, 0.0, 1.0]);
        let t = text(&m, &m.base_variant());
        let mut lines = t.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("%%MatrixMarket matrix coordinate real"));
        assert_eq!(lines.next(), Some("5 5 13"));
        assert_eq!(lines.clone().count(), 13);
        assert!(lines.any(|l| l == "3 3 2e0"));
    }

    #[test]
    fn variants_change_values_or_pattern_as_named() {
        let m = laplacian(40);
        let base = text(&m, &m.base_variant());
        let pert = text(&m, &m.perturbed_variant(&mut Rng::new(1, &[0])));
        assert_eq!(base.lines().count(), pert.lines().count());
        assert_ne!(base, pert);
        let newpat = text(&m, &m.new_pattern_variant(&mut Rng::new(1, &[0]), 3));
        assert_eq!(newpat.lines().count(), base.lines().count() + 6);
        assert_eq!(newpat.lines().nth(1), Some("40 40 124"));
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let m = laplacian(30);
        assert_eq!(m.rhs_text(7, 0), m.rhs_text(7, 0));
        assert_ne!(m.rhs_text(7, 0), m.rhs_text(7, 1));
        assert_ne!(m.rhs_text(7, 0), m.rhs_text(8, 0));
        let a = m.perturbed_variant(&mut Rng::new(7, &[3, 1]));
        let b = m.perturbed_variant(&mut Rng::new(7, &[3, 1]));
        let c = m.perturbed_variant(&mut Rng::new(8, &[3, 1]));
        assert_eq!(a.tail, b.tail);
        assert_ne!(a.tail, c.tail);
    }
}
