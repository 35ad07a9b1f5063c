//! Boundary-condition application.
//!
//! Dirichlet conditions are imposed by row elimination: the matrix row of a
//! constrained node is replaced by the identity row and the right-hand side
//! by the boundary value. The CSR *structure* is preserved (off-diagonal
//! entries are zeroed, not removed), which keeps assembly and ILU patterns
//! stable. Homogeneous Neumann conditions are natural for the P1 weak forms
//! used here and require no action.

use crate::LinearSystem;

/// Imposes `x[i] = value` for every `(i, value)` pair.
///
/// The affected rows become identity rows; to preserve symmetry-of-action
/// the known values are *also* eliminated from the other rows' right-hand
/// sides (column sweep), so an SPD operator stays SPD on the free unknowns.
pub fn apply_dirichlet(sys: &mut LinearSystem, nodes: &[(usize, f64)]) {
    let n = sys.b.len();
    assert_eq!(sys.a.n_rows(), n);
    let mut is_fixed = vec![false; n];
    let mut value = vec![0.0; n];
    for &(i, v) in nodes {
        assert!(i < n, "dirichlet node {i} out of range");
        is_fixed[i] = true;
        value[i] = v;
    }
    // Column elimination: b_j -= a_ji * g_i for free rows j.
    // Done row-wise over the CSR (each row subtracts its fixed-column terms).
    let row_ptr = sys.a.row_ptr().to_vec();
    let col_idx = sys.a.col_idx().to_vec();
    {
        let vals = sys.a.vals_mut();
        for i in 0..n {
            if is_fixed[i] {
                // Identity row.
                for k in row_ptr[i]..row_ptr[i + 1] {
                    vals[k] = if col_idx[k] == i { 1.0 } else { 0.0 };
                }
                sys.b[i] = value[i];
            } else {
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let j = col_idx[k];
                    if is_fixed[j] {
                        sys.b[i] -= vals[k] * value[j];
                        vals[k] = 0.0;
                    }
                }
            }
        }
    }
}

/// Convenience: collects `(node, g(coords))` pairs from a predicate over
/// node coordinates.
pub fn dirichlet_where<const D: usize>(
    coords: &[[f64; D]],
    select: impl Fn([f64; D]) -> bool,
    g: impl Fn([f64; D]) -> f64,
) -> Vec<(usize, f64)> {
    coords
        .iter()
        .enumerate()
        .filter(|(_, &p)| select(p))
        .map(|(i, &p)| (i, g(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_sparse::Csr;

    #[test]
    fn dirichlet_rows_become_identity() {
        let a = Csr::from_dense_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ]);
        let mut sys = LinearSystem {
            a,
            b: vec![1.0, 1.0, 1.0],
        };
        apply_dirichlet(&mut sys, &[(0, 5.0)]);
        assert_eq!(sys.a.get(0, 0), 1.0);
        assert_eq!(sys.a.get(0, 1), 0.0);
        assert_eq!(sys.b[0], 5.0);
        // Column elimination moved the known value to row 1's rhs.
        assert_eq!(sys.a.get(1, 0), 0.0);
        assert_eq!(sys.b[1], 1.0 + 5.0);
        // Symmetry preserved.
        assert!(sys.a.is_symmetric(0.0));
    }

    #[test]
    fn solution_attains_boundary_values() {
        // 1-D Laplace with u(0)=1, u(4)=3: solution is linear.
        let n = 5;
        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            rows[i][i] = 2.0;
            if i > 0 {
                rows[i][i - 1] = -1.0;
            }
            if i + 1 < n {
                rows[i][i + 1] = -1.0;
            }
        }
        let mut sys = LinearSystem {
            a: Csr::from_dense_rows(&rows),
            b: vec![0.0; n],
        };
        apply_dirichlet(&mut sys, &[(0, 1.0), (4, 3.0)]);
        // Solve densely.
        let mut d = parapre_sparse::Dense::zeros(n, n);
        for (i, j, v) in sys.a.iter() {
            d[(i, j)] = v;
        }
        let lu = parapre_sparse::dense::DenseLu::factor(d).unwrap();
        let x = lu.solve(&sys.b);
        for (i, &xi) in x.iter().enumerate() {
            let exact = 1.0 + 0.5 * i as f64;
            assert!((xi - exact).abs() < 1e-12, "x[{i}] = {xi}");
        }
    }

    #[test]
    fn dirichlet_where_selects_by_coordinate() {
        let coords = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]];
        let set = dirichlet_where(&coords, |p| p[0] < 0.25, |p| p[0] + 10.0);
        assert_eq!(set, vec![(0, 10.0)]);
    }
}
