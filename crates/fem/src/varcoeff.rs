//! Variable-coefficient diffusion `−∇·(k(x)∇u) = f`.
//!
//! The paper's Poisson cases use constant diffusivity; heterogeneous
//! coefficients (layered media, jumps) are the canonical stress test for
//! algebraic preconditioners — ILU quality degrades across strong jumps —
//! and a library release would be incomplete without them. Coefficients are
//! sampled at element centroids (piecewise-constant `k`), which preserves
//! the P1 convergence order for smooth `k` and represents jumps aligned
//! with element boundaries exactly.

use crate::elements::{TetGeom, TriGeom};
use parapre_grid::{Mesh2d, Mesh3d};
use parapre_sparse::{Coo, Csr};

/// Assembles `∫ k ∇u·∇v = ∫ f v` on a triangular mesh.
pub fn assemble_2d(
    mesh: &Mesh2d,
    k: impl Fn(f64, f64) -> f64,
    f: impl Fn(f64, f64) -> f64,
) -> (Csr, Vec<f64>) {
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
        let kc = k(g.centroid[0], g.centroid[1]);
        assert!(kc > 0.0, "diffusivity must be positive");
        let fe = g.load(f(g.centroid[0], g.centroid[1]));
        for i in 0..3 {
            for j in 0..3 {
                coo.push(tri[i], tri[j], kc * ke[i][j]);
            }
            b[tri[i]] += fe[i];
        }
    }
    (coo.to_csr(), b)
}

/// Assembles `∫ k ∇u·∇v = ∫ f v` on a tetrahedral mesh.
pub fn assemble_3d(
    mesh: &Mesh3d,
    k: impl Fn(f64, f64, f64) -> f64,
    f: impl Fn(f64, f64, f64) -> f64,
) -> (Csr, Vec<f64>) {
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
        let kc = k(g.centroid[0], g.centroid[1], g.centroid[2]);
        assert!(kc > 0.0, "diffusivity must be positive");
        let fe = g.load(f(g.centroid[0], g.centroid[1], g.centroid[2]));
        for i in 0..4 {
            for j in 0..4 {
                coo.push(tet[i], tet[j], kc * ke[i][j]);
            }
            b[tet[i]] += fe[i];
        }
    }
    (coo.to_csr(), b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc;
    use parapre_grid::structured::unit_square;
    use parapre_sparse::dense::{Dense, DenseLu};

    #[test]
    fn constant_coefficient_matches_plain_poisson() {
        let mesh = unit_square(8, 8);
        let (a1, b1) = assemble_2d(&mesh, |_, _| 1.0, |x, y| x + y);
        let (a2, b2) = crate::poisson::assemble_2d(&mesh, |x, y| x + y);
        assert_eq!(a1, a2);
        for (u, v) in b1.iter().zip(&b2) {
            assert!((u - v).abs() < 1e-15);
        }
    }

    #[test]
    fn layered_medium_flux_continuity() {
        // 1-D-like problem on the square: k = 1 for x < 1/2, k = 10 after.
        // With u(0)=0, u(1)=1 and no source, the exact solution is piecewise
        // linear with slope ratio 10:1 (flux continuity).
        let nx = 33;
        let mesh = unit_square(nx, nx);
        let (a, b) = assemble_2d(&mesh, |x, _| if x < 0.5 { 1.0 } else { 10.0 }, |_, _| 0.0);
        let mut sys = crate::LinearSystem { a, b };
        // Dirichlet on left/right; homogeneous Neumann top/bottom.
        let fixed = bc::dirichlet_where(
            &mesh.coords,
            |p| p[0] < 1e-12 || p[0] > 1.0 - 1e-12,
            |p| if p[0] < 0.5 { 0.0 } else { 1.0 },
        );
        bc::apply_dirichlet(&mut sys, &fixed);
        let u = DenseLu::factor(Dense::from_rows(&sys.a.to_dense()))
            .expect("a regular matrix")
            .solve(&sys.b);
        // Exact: u = (20/11) x for x<1/2; u = (2/11)(x-1/2) + 10/11 after.
        let mid_row = (nx / 2) * nx;
        for i in 0..nx {
            let x = mesh.coords[mid_row + i][0];
            let exact = if x <= 0.5 {
                20.0 / 11.0 * x
            } else {
                2.0 / 11.0 * (x - 0.5) + 10.0 / 11.0
            };
            assert!(
                (u[mid_row + i] - exact).abs() < 5e-3,
                "x = {x}: {} vs {exact}",
                u[mid_row + i]
            );
        }
    }

    #[test]
    fn jump_coefficient_worsens_conditioning_signal() {
        // The largest absolute row sum (the Gershgorin upper bound of these
        // positive-diagonal matrices) grows with the contrast — a cheap
        // verification that the coefficient actually enters the operator.
        let mesh = unit_square(8, 8);
        let (a1, _) = assemble_2d(&mesh, |_, _| 1.0, |_, _| 0.0);
        let (ak, _) = assemble_2d(&mesh, |x, _| if x < 0.5 { 1.0 } else { 1000.0 }, |_, _| 0.0);
        assert!(ak.inf_norm() > 100.0 * a1.inf_norm());
    }
}
