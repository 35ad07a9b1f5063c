//! Poisson equation `−∇²u = f` (paper Test Cases 1–3).
//!
//! The paper's manufactured data: TC1/TC3 use `u = x·e^y` on the boundary,
//! TC2 uses `u = x·e^{yz}`; the right-hand sides are chosen compatibly
//! (the paper writes the PDE as `∇²u = f`; we use the `−∇²u = f` sign
//! convention — the assembled matrix is identical, see DESIGN.md §5).

use crate::elements::{TetGeom, TriGeom};
use parapre_grid::{Mesh2d, Mesh3d};
use parapre_sparse::{Coo, Csr};

/// Assembles stiffness matrix and load vector on a 2-D triangular mesh:
/// `∫∇u·∇v = ∫ f v` (no boundary conditions applied yet).
pub fn assemble_2d(mesh: &Mesh2d, f: impl Fn(f64, f64) -> f64) -> (Csr, Vec<f64>) {
    let n = mesh.n_nodes();
    let mut coo = Coo::with_capacity(n, n, 9 * mesh.n_elems());
    let mut b = vec![0.0; n];
    for tri in &mesh.triangles {
        let g = TriGeom::new([
            mesh.coords[tri[0]],
            mesh.coords[tri[1]],
            mesh.coords[tri[2]],
        ]);
        let ke = g.stiffness();
        let fe = g.load(f(g.centroid[0], g.centroid[1]));
        for i in 0..3 {
            for j in 0..3 {
                coo.push(tri[i], tri[j], ke[i][j]);
            }
            b[tri[i]] += fe[i];
        }
    }
    (coo.to_csr(), b)
}

/// Assembles stiffness matrix and load vector on a 3-D tetrahedral mesh.
pub fn assemble_3d(mesh: &Mesh3d, f: impl Fn(f64, f64, f64) -> f64) -> (Csr, Vec<f64>) {
    let n = mesh.n_nodes();
    let mut coo = Coo::with_capacity(n, n, 16 * mesh.n_elems());
    let mut b = vec![0.0; n];
    for tet in &mesh.tets {
        let g = TetGeom::new([
            mesh.coords[tet[0]],
            mesh.coords[tet[1]],
            mesh.coords[tet[2]],
            mesh.coords[tet[3]],
        ]);
        let ke = g.stiffness();
        let fe = g.load(f(g.centroid[0], g.centroid[1], g.centroid[2]));
        for i in 0..4 {
            for j in 0..4 {
                coo.push(tet[i], tet[j], ke[i][j]);
            }
            b[tet[i]] += fe[i];
        }
    }
    (coo.to_csr(), b)
}

/// The TC1/TC3 exact solution `u(x, y) = x·e^y`.
pub fn exact_tc1(x: f64, y: f64) -> f64 {
    x * y.exp()
}

/// Right-hand side compatible with [`exact_tc1`] under `−∇²u = f`.
pub fn rhs_tc1(x: f64, y: f64) -> f64 {
    -x * y.exp()
}

/// The TC2 exact solution `u(x, y, z) = x·e^{yz}`.
pub fn exact_tc2(x: f64, y: f64, z: f64) -> f64 {
    x * (y * z).exp()
}

/// Right-hand side compatible with [`exact_tc2`] under `−∇²u = f`.
pub fn rhs_tc2(x: f64, y: f64, z: f64) -> f64 {
    -x * (y * y + z * z) * (y * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc;
    use parapre_grid::structured::{unit_cube, unit_square};
    use parapre_sparse::dense::{Dense, DenseLu};

    fn l2_error_2d(nx: usize) -> f64 {
        let mesh = unit_square(nx, nx);
        let (a, b) = assemble_2d(&mesh, rhs_tc1);
        let mut sys = crate::LinearSystem { a, b };
        let boundary = mesh.boundary_nodes();
        let dirichlet: Vec<(usize, f64)> = boundary
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .map(|(i, _)| (i, exact_tc1(mesh.coords[i][0], mesh.coords[i][1])))
            .collect();
        bc::apply_dirichlet(&mut sys, &dirichlet);
        let n = sys.b.len();
        let x = DenseLu::factor(Dense::from_rows(&sys.a.to_dense()))
            .expect("a regular matrix")
            .solve(&sys.b);
        let mut err2 = 0.0;
        for (i, p) in mesh.coords.iter().enumerate() {
            let e = x[i] - exact_tc1(p[0], p[1]);
            err2 += e * e;
        }
        (err2 / n as f64).sqrt()
    }

    #[test]
    fn poisson_2d_converges_quadratically() {
        let e1 = l2_error_2d(6);
        let e2 = l2_error_2d(12);
        // P1 elements: O(h²) in L2; halving h divides the error by ~4.
        assert!(e2 < e1 / 2.8, "e1 = {e1}, e2 = {e2}");
        assert!(e1 < 1e-2);
    }

    #[test]
    fn stiffness_2d_symmetric_and_singular_before_bc() {
        let mesh = unit_square(6, 6);
        let (a, _) = assemble_2d(&mesh, |_, _| 1.0);
        assert!(a.is_symmetric(1e-12));
        // Constant vector in the null space.
        let ones = vec![1.0; a.n_rows()];
        let az = a.mul_vec(&ones);
        assert!(az.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn poisson_3d_manufactured_solution() {
        let mesh = unit_cube(7, 7, 7);
        let (a, b) = assemble_3d(&mesh, rhs_tc2);
        let mut sys = crate::LinearSystem { a, b };
        let boundary = mesh.boundary_nodes();
        let dirichlet: Vec<(usize, f64)> = boundary
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .map(|(i, _)| {
                let p = mesh.coords[i];
                (i, exact_tc2(p[0], p[1], p[2]))
            })
            .collect();
        bc::apply_dirichlet(&mut sys, &dirichlet);
        let x = DenseLu::factor(Dense::from_rows(&sys.a.to_dense()))
            .expect("a regular matrix")
            .solve(&sys.b);
        let max_err = mesh
            .coords
            .iter()
            .enumerate()
            .map(|(i, p)| (x[i] - exact_tc2(p[0], p[1], p[2])).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 5e-3, "max error {max_err}");
    }

    #[test]
    fn stiffness_3d_rows_sum_to_zero() {
        let mesh = unit_cube(4, 4, 4);
        let (a, _) = assemble_3d(&mesh, |_, _, _| 0.0);
        let ones = vec![1.0; a.n_rows()];
        let az = a.mul_vec(&ones);
        assert!(az.iter().all(|v| v.abs() < 1e-12));
    }
}
