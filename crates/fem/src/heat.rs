//! One implicit-Euler step of the heat equation (paper Test Case 4).
//!
//! `u_t = k∇²u` discretized as `(M + Δt·K) uˡ = M uˡ⁻¹` (paper eq. 12–13,
//! `k = 1`). The paper runs a single step from
//! `u⁰(x, y) = sin(πx)·sin(πy)` with `Δt = 0.05`, `u = 0` on the face
//! `x = 1` and homogeneous Neumann elsewhere; the *initial guess* of the
//! Krylov solve is the initial condition (paper §4.3).

use crate::elements::TetGeom;
use parapre_grid::Mesh3d;
use parapre_sparse::{Coo, Csr};

/// The paper's time step.
pub const DT: f64 = 0.05;

/// The paper's initial condition `u⁰(x, y, z) = sin(πx)·sin(πy)`.
pub fn initial_condition(x: f64, y: f64, _z: f64) -> f64 {
    (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin()
}

/// Assembles the mass and stiffness matrices on a tetrahedral mesh.
pub fn assemble_mass_stiffness(mesh: &Mesh3d) -> (Csr, Csr) {
    let n = mesh.n_nodes();
    let mut mc = Coo::with_capacity(n, n, 16 * mesh.n_elems());
    let mut kc = Coo::with_capacity(n, n, 16 * mesh.n_elems());
    for tet in &mesh.tets {
        let g = TetGeom::new([
            mesh.coords[tet[0]],
            mesh.coords[tet[1]],
            mesh.coords[tet[2]],
            mesh.coords[tet[3]],
        ]);
        let ke = g.stiffness();
        let me = g.mass();
        for i in 0..4 {
            for j in 0..4 {
                kc.push(tet[i], tet[j], ke[i][j]);
                mc.push(tet[i], tet[j], me[i][j]);
            }
        }
    }
    (mc.to_csr(), kc.to_csr())
}

/// Builds the Test Case 4 system `(M + Δt·K) uˡ = M uˡ⁻¹` for one step from
/// the nodal values `u_prev`.
pub fn assemble_step(mesh: &Mesh3d, dt: f64, u_prev: &[f64]) -> crate::LinearSystem {
    assert_eq!(u_prev.len(), mesh.n_nodes());
    let (m, k) = assemble_mass_stiffness(mesh);
    let a = m.add(dt, &k).expect("shapes match");
    let b = m.mul_vec(u_prev);
    crate::LinearSystem { a, b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc;
    use parapre_grid::structured::unit_cube;
    use parapre_sparse::dense::{Dense, DenseLu};

    #[test]
    fn mass_matrix_integrates_volume() {
        let mesh = unit_cube(4, 4, 4);
        let (m, _) = assemble_mass_stiffness(&mesh);
        let ones = vec![1.0; m.n_rows()];
        let m1 = m.mul_vec(&ones);
        let total: f64 = m1.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "∫1 over cube = {total}");
    }

    #[test]
    fn system_matrix_is_spd_shifted_stiffness() {
        let mesh = unit_cube(4, 4, 4);
        let sys = assemble_step(&mesh, DT, &vec![0.0; mesh.n_nodes()]);
        assert!(sys.a.is_symmetric(1e-12));
        // Row sums equal the mass row sums (stiffness rows sum to zero).
        let ones = vec![1.0; sys.a.n_rows()];
        let row_sums = sys.a.mul_vec(&ones);
        assert!(row_sums.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn one_step_decays_the_mode() {
        // With u = 0 at x = 1 and Neumann elsewhere, one implicit step of
        // the sin(πx)sin(πy) mode must shrink it (diffusion decays modes)
        // and keep values bounded by the maximum principle (up to FEM slop).
        let mesh = unit_cube(6, 6, 6);
        let u0: Vec<f64> = mesh
            .coords
            .iter()
            .map(|p| initial_condition(p[0], p[1], p[2]))
            .collect();
        let mut sys = assemble_step(&mesh, DT, &u0);
        let fixed = bc::dirichlet_where(&mesh.coords, |p| (p[0] - 1.0).abs() < 1e-12, |_| 0.0);
        bc::apply_dirichlet(&mut sys, &fixed);
        let u1 = DenseLu::factor(Dense::from_rows(&sys.a.to_dense()))
            .expect("a regular matrix")
            .solve(&sys.b);
        let amp0 = u0.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let amp1 = u1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(amp1 < amp0, "mode must decay: {amp1} vs {amp0}");
        assert!(amp1 > 0.2 * amp0, "should not vanish in one step: {amp1}");
        // Dirichlet face honoured.
        for (i, p) in mesh.coords.iter().enumerate() {
            if (p[0] - 1.0).abs() < 1e-12 {
                assert!(u1[i].abs() < 1e-9);
            }
        }
    }
}
