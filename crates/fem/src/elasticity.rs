//! Plane linear elasticity (paper Test Case 6, Fig. 5).
//!
//! The paper's vector PDE: `−µ∇²u − (µ+λ)∇(∇·u) = f` on the quarter ring,
//! with `u₁ = 0` on `Γ₁` (the θ = 0 edge) and `u₂ = 0` on `Γ₂`
//! (the θ = π/2 edge); the stress vector is prescribed on the remaining
//! boundary (natural conditions in the weak form).
//!
//! Two displacement dofs per node, **interleaved**: node `i` owns dofs
//! `2i` (u₁) and `2i+1` (u₂). Interleaving keeps both dofs of a node in the
//! same subdomain under any node-based partition — exactly how the paper's
//! "each grid point is associated with two unknowns" setup behaves.

use crate::elements::TriGeom;
use parapre_grid::Mesh2d;
use parapre_sparse::{Coo, Csr};

/// Default first Lamé-type constant µ (shear modulus).
pub const MU: f64 = 1.0;
/// Default second constant λ.
pub const LAMBDA: f64 = 1.0;

/// Assembles the elasticity operator
/// `∫ µ ∇u₁·∇w₁ + µ ∇u₂·∇w₂ + (µ+λ)(∇·u)(∇·w) = ∫ f·w`.
///
/// `f` maps coordinates to the volume-load vector.
pub fn assemble_2d(
    mesh: &Mesh2d,
    mu: f64,
    lambda: f64,
    f: impl Fn(f64, f64) -> [f64; 2],
) -> (Csr, Vec<f64>) {
    let n_dofs = 2 * mesh.n_nodes();
    let mut coo = Coo::with_capacity(n_dofs, n_dofs, 36 * mesh.n_elems());
    let mut b = vec![0.0; n_dofs];
    for tri in &mesh.triangles {
        let g = TriGeom::new([
            mesh.coords[tri[0]],
            mesh.coords[tri[1]],
            mesh.coords[tri[2]],
        ]);
        let fe = f(g.centroid[0], g.centroid[1]);
        for i in 0..3 {
            for j in 0..3 {
                let lap = g.area * (g.grad[i][0] * g.grad[j][0] + g.grad[i][1] * g.grad[j][1]);
                for a in 0..2 {
                    for c in 0..2 {
                        // µ-Laplacian contributes only to matching components.
                        let mut v = if a == c { mu * lap } else { 0.0 };
                        // Grad-div term: (µ+λ) ∫ ∂w_a/∂x_a · ∂u_c/∂x_c.
                        v += (mu + lambda) * g.area * g.grad[i][a] * g.grad[j][c];
                        if v != 0.0 {
                            coo.push(2 * tri[i] + a, 2 * tri[j] + c, v);
                        }
                    }
                }
            }
            // Load with centroid quadrature.
            b[2 * tri[i]] += fe[0] * g.area / 3.0;
            b[2 * tri[i] + 1] += fe[1] * g.area / 3.0;
        }
    }
    (coo.to_csr(), b)
}

/// Collects the TC6 Dirichlet constraints on a quarter-ring mesh:
/// `u₁ = 0` on Γ₁ (y = 0) and `u₂ = 0` on Γ₂ (x = 0).
pub fn dirichlet_tc6(coords: &[[f64; 2]]) -> Vec<(usize, f64)> {
    let mut set = Vec::new();
    for (i, &p) in coords.iter().enumerate() {
        if parapre_grid::ring::on_gamma1(p) {
            set.push((2 * i, 0.0));
        }
        if parapre_grid::ring::on_gamma2(p) {
            set.push((2 * i + 1, 0.0));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc;
    use parapre_grid::ring::quarter_ring;
    use parapre_sparse::dense::{Dense, DenseLu};

    #[test]
    fn operator_is_symmetric() {
        let mesh = quarter_ring(6, 6);
        let (a, _) = assemble_2d(&mesh, MU, LAMBDA, |_, _| [0.0, 0.0]);
        assert!(a.is_symmetric(1e-11));
        assert_eq!(a.n_rows(), 2 * mesh.n_nodes());
    }

    #[test]
    fn rigid_translation_in_null_space() {
        // Without BCs, a constant displacement produces zero force.
        let mesh = quarter_ring(5, 7);
        let (a, _) = assemble_2d(&mesh, MU, LAMBDA, |_, _| [0.0, 0.0]);
        let n = a.n_rows();
        let mut t = vec![0.0; n];
        for i in (0..n).step_by(2) {
            t[i] = 1.0; // uniform u1 translation
        }
        let at = a.mul_vec(&t);
        assert!(at.iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn constrained_ring_solves_and_respects_bcs() {
        let mesh = quarter_ring(8, 8);
        // Outward unit volume load.
        let (a, b) = assemble_2d(&mesh, MU, LAMBDA, |x, y| {
            let r = (x * x + y * y).sqrt();
            [x / r, y / r]
        });
        let mut sys = crate::LinearSystem { a, b };
        let fixed = dirichlet_tc6(&mesh.coords);
        assert!(!fixed.is_empty());
        bc::apply_dirichlet(&mut sys, &fixed);
        let x = DenseLu::factor(Dense::from_rows(&sys.a.to_dense()))
            .expect("a regular matrix")
            .solve(&sys.b);
        for (i, &p) in mesh.coords.iter().enumerate() {
            if parapre_grid::ring::on_gamma1(p) {
                assert!(x[2 * i].abs() < 1e-9);
            }
            if parapre_grid::ring::on_gamma2(p) {
                assert!(x[2 * i + 1].abs() < 1e-9);
            }
        }
        // Load pushes outward: radial displacement is positive somewhere.
        let mid = mesh.n_nodes() / 2;
        let p = mesh.coords[mid];
        let ur = x[2 * mid] * p[0] + x[2 * mid + 1] * p[1];
        assert!(ur > 0.0, "radial displacement {ur}");
    }

    #[test]
    fn dirichlet_set_pins_one_component_per_edge() {
        let mesh = quarter_ring(5, 9);
        let set = dirichlet_tc6(&mesh.coords);
        // 5 nodes on each straight edge, one dof each.
        assert_eq!(set.len(), 10);
        // Γ1 pins even dofs, Γ2 odd dofs.
        for &(d, v) in &set {
            assert_eq!(v, 0.0);
            let node = d / 2;
            let p = mesh.coords[node];
            if d % 2 == 0 {
                assert!(parapre_grid::ring::on_gamma1(p));
            } else {
                assert!(parapre_grid::ring::on_gamma2(p));
            }
        }
    }
}
