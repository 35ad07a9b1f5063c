//! Permutations and symmetric reordering of sparse matrices.
//!
//! Reordering is central to the paper's preconditioners: subdomain matrices
//! are permuted *internal-points-first* so that the trailing block of an ILU
//! factorization approximates the local Schur complement, and ARMS permutes
//! group-independent-set unknowns first at every level.

use crate::{Csr, Error, Result};

/// A permutation of `0..n`.
///
/// `perm[new] = old`: entry `new` of the permuted object comes from position
/// `old` of the original (gather convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        let perm: Vec<usize> = (0..n).collect();
        Permutation {
            inv: perm.clone(),
            perm,
        }
    }

    /// Builds from a gather vector `perm[new] = old`; validates bijectivity.
    pub fn from_vec(perm: Vec<usize>) -> Result<Self> {
        let n = perm.len();
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n {
                return Err(Error::IndexOutOfBounds {
                    index: old,
                    bound: n,
                });
            }
            if inv[old] != usize::MAX {
                return Err(Error::InvalidStructure("permutation not injective".into()));
            }
            inv[old] = new;
        }
        Ok(Permutation { perm, inv })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Gather vector: `perm()[new] = old`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Scatter vector: `inv()[old] = new`.
    pub fn inv(&self) -> &[usize] {
        &self.inv
    }

    /// Original index at new position `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// Applies to a vector: `out[new] = x[old]`.
    pub fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        self.perm.iter().map(|&old| x[old]).collect()
    }

    /// Applies the inverse to a vector: `out[old] = x[new]`.
    pub fn apply_inv_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        self.inv.iter().map(|&new| x[new]).collect()
    }

    /// Symmetric permutation of a square matrix: `B = P A P^T`, i.e.
    /// `B[new_i, new_j] = A[old_i, old_j]`.
    pub fn apply_sym(&self, a: &Csr) -> Csr {
        assert_eq!(a.n_rows(), self.len());
        assert_eq!(a.n_cols(), self.len());
        let n = self.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for new_i in 0..n {
            let old_i = self.perm[new_i];
            let (cols, vs) = a.row(old_i);
            scratch.clear();
            scratch.extend(cols.iter().zip(vs).map(|(&old_j, &v)| (self.inv[old_j], v)));
            scratch.sort_unstable_by_key(|&(j, _)| j);
            for &(j, v) in &scratch {
                col_idx.push(j);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts_unchecked(n, n, row_ptr, col_idx, vals)
    }

    /// Composition: `self.then(other)` first applies `self`, then `other`.
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        let perm: Vec<usize> = other.perm.iter().map(|&mid| self.perm[mid]).collect();
        Permutation::from_vec(perm).expect("composition of valid permutations is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates() {
        assert!(Permutation::from_vec(vec![0, 1, 2]).is_ok());
        assert!(Permutation::from_vec(vec![0, 0, 2]).is_err());
        assert!(Permutation::from_vec(vec![0, 5]).is_err());
    }

    #[test]
    fn vec_roundtrip() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let x = [10.0, 20.0, 30.0];
        let y = p.apply_vec(&x);
        assert_eq!(y, vec![30.0, 10.0, 20.0]);
        assert_eq!(p.apply_inv_vec(&y), x.to_vec());
    }

    #[test]
    fn sym_permutation_preserves_spectral_action() {
        // (P A P^T)(P x) = P (A x)
        let a = Csr::from_dense_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 2.0],
            vec![0.0, 2.0, 5.0],
        ]);
        let p = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let b = p.apply_sym(&a);
        b.validate().unwrap();
        let x = [1.0, -1.0, 0.5];
        let ax = a.mul_vec(&x);
        let px = p.apply_vec(&x);
        let bpx = b.mul_vec(&px);
        let pax = p.apply_vec(&ax);
        for (u, v) in bpx.iter().zip(&pax) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn composition_matches_sequential_application() {
        let p = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_vec(vec![2, 1, 0]).unwrap();
        let pq = p.then(&q);
        let x = [1.0, 2.0, 3.0];
        let seq = q.apply_vec(&p.apply_vec(&x));
        assert_eq!(pq.apply_vec(&x), seq);
    }

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(p.apply_vec(&x), x.to_vec());
    }
}
