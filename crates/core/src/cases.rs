//! The paper's six PDE test cases (§3), assembled and ready to distribute.

use parapre_fem::{bc, convection, elasticity, heat, poisson, LinearSystem};
use parapre_grid::delaunay::square_with_hole;
use parapre_grid::ring::quarter_ring;
use parapre_grid::structured::{unit_cube, unit_square};
use parapre_grid::Adjacency;
use parapre_sparse::{Coo, Csr};

/// Which test case to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseId {
    /// TC1: Poisson, 2-D unit square (paper grid 1001²).
    Tc1,
    /// TC2: Poisson, 3-D unit cube (paper grid 101³).
    Tc2,
    /// TC3: Poisson, unstructured 2-D domain (paper: 521,185 points).
    Tc3,
    /// TC4: heat equation, one implicit step, 3-D cube (101³).
    Tc4,
    /// TC5: convection–diffusion, 2-D square, convection dominated (1001²).
    Tc5,
    /// TC6: linear elasticity on the quarter ring (241² points, 2 dofs/pt).
    Tc6,
}

impl CaseId {
    /// All six cases.
    pub const ALL: [CaseId; 6] = [
        CaseId::Tc1,
        CaseId::Tc2,
        CaseId::Tc3,
        CaseId::Tc4,
        CaseId::Tc5,
        CaseId::Tc6,
    ];

    /// Paper-style name.
    pub fn name(self) -> &'static str {
        match self {
            CaseId::Tc1 => "Test Case 1 (Poisson 2D)",
            CaseId::Tc2 => "Test Case 2 (Poisson 3D)",
            CaseId::Tc3 => "Test Case 3 (Poisson, unstructured)",
            CaseId::Tc4 => "Test Case 4 (heat, M + dt*K)",
            CaseId::Tc5 => "Test Case 5 (convection-diffusion)",
            CaseId::Tc6 => "Test Case 6 (linear elasticity)",
        }
    }

    /// Stable machine-readable key (`tc1`…`tc6`) for CLIs and job streams.
    pub fn key(self) -> &'static str {
        match self {
            CaseId::Tc1 => "tc1",
            CaseId::Tc2 => "tc2",
            CaseId::Tc3 => "tc3",
            CaseId::Tc4 => "tc4",
            CaseId::Tc5 => "tc5",
            CaseId::Tc6 => "tc6",
        }
    }

    /// Inverse of [`CaseId::key`] (case-insensitive).
    pub fn parse(s: &str) -> Option<CaseId> {
        CaseId::ALL
            .into_iter()
            .find(|c| c.key().eq_ignore_ascii_case(s))
    }
}

/// Grid-resolution presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseSize {
    /// Tiny grids for unit tests.
    Tiny,
    /// Bench defaults (tens of thousands of unknowns).
    Default,
    /// The paper's sizes (≈ a million unknowns; minutes of runtime).
    Full,
}

impl CaseSize {
    /// All three presets, smallest first.
    pub const ALL: [Self; 3] = [Self::Tiny, Self::Default, Self::Full];

    /// Stable machine-readable key (`tiny` / `default` / `full`).
    pub fn key(self) -> &'static str {
        match self {
            CaseSize::Tiny => "tiny",
            CaseSize::Default => "default",
            CaseSize::Full => "full",
        }
    }

    /// Inverse of [`CaseSize::key`] (case-insensitive).
    pub fn parse(s: &str) -> Option<CaseSize> {
        CaseSize::ALL
            .into_iter()
            .find(|c| c.key().eq_ignore_ascii_case(s))
    }
}

/// An assembled, BC-applied test case.
pub struct AssembledCase {
    /// Which case this is.
    pub id: CaseId,
    /// The linear system (BCs applied).
    pub sys: LinearSystem,
    /// The **node** adjacency graph handed to the partitioner.
    pub node_adjacency: Adjacency,
    /// Node coordinates flattened to 3-D (z = 0 in 2-D) for RCB and
    /// diagnostics.
    pub node_coords: Vec<[f64; 3]>,
    /// Unknowns per node (2 for elasticity, 1 otherwise).
    pub dofs_per_node: usize,
    /// Initial guess of the Krylov solve (paper §4.3: zero except Dirichlet
    /// values; TC4 starts from the PDE initial condition).
    pub x0: Vec<f64>,
    /// Human-readable grid description.
    pub grid_desc: String,
    /// Node extents `[nx, ny, nz]` when the grid is structured in index
    /// space (enables the paper's "simple box partitioning", §5.1);
    /// `None` for the unstructured case.
    pub structured_dims: Option<[usize; 3]>,
}

impl AssembledCase {
    /// Number of unknowns.
    pub fn n_unknowns(&self) -> usize {
        self.sys.b.len()
    }

    /// Number of grid nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_adjacency.n()
    }

    /// Expands a node partition to a dof-ownership vector (interleaved
    /// dofs inherit their node's owner).
    pub fn dof_owner(&self, node_owner: &[u32]) -> Vec<u32> {
        assert_eq!(node_owner.len(), self.n_nodes());
        if self.dofs_per_node == 1 {
            return node_owner.to_vec();
        }
        let mut out = Vec::with_capacity(self.n_unknowns());
        for &o in node_owner {
            for _ in 0..self.dofs_per_node {
                out.push(o);
            }
        }
        out
    }
}

/// Per-case grid extents for a preset.
fn extent(id: CaseId, size: CaseSize) -> usize {
    match (id, size) {
        (CaseId::Tc1 | CaseId::Tc5, CaseSize::Tiny) => 17,
        (CaseId::Tc1 | CaseId::Tc5, CaseSize::Default) => 201,
        (CaseId::Tc1 | CaseId::Tc5, CaseSize::Full) => 1001,
        (CaseId::Tc2 | CaseId::Tc4, CaseSize::Tiny) => 7,
        (CaseId::Tc2 | CaseId::Tc4, CaseSize::Default) => 33,
        (CaseId::Tc2 | CaseId::Tc4, CaseSize::Full) => 101,
        (CaseId::Tc3, CaseSize::Tiny) => 400,
        (CaseId::Tc3, CaseSize::Default) => 30_000,
        (CaseId::Tc3, CaseSize::Full) => 521_185,
        (CaseId::Tc6, CaseSize::Tiny) => 13,
        (CaseId::Tc6, CaseSize::Default) => 81,
        (CaseId::Tc6, CaseSize::Full) => 241,
    }
}

/// Grid extents [`build_case_sized`] accepts for a case: from the smallest
/// its mesh generator can build (2 nodes per direction; the square with a
/// hole needs 32 target nodes to resolve the hole) to its paper-scale
/// [`CaseSize::Full`] preset.
pub fn extent_range(id: CaseId) -> std::ops::RangeInclusive<usize> {
    let floor = if id == CaseId::Tc3 { 32 } else { 2 };
    floor..=extent(id, CaseSize::Full)
}

fn to3d(p: [f64; 2]) -> [f64; 3] {
    [p[0], p[1], 0.0]
}

/// Builds a test case at the given size preset.
pub fn build_case(id: CaseId, size: CaseSize) -> AssembledCase {
    build_case_sized(id, extent(id, size))
}

/// Builds a test case at an explicit grid extent (nodes per direction for
/// the structured cases; target node count for TC3).
pub fn build_case_sized(id: CaseId, n: usize) -> AssembledCase {
    match id {
        CaseId::Tc1 => {
            let mesh = unit_square(n, n);
            let (a, b) = poisson::assemble_2d(&mesh, poisson::rhs_tc1);
            let mut sys = LinearSystem { a, b };
            let fixed: Vec<(usize, f64)> = mesh
                .boundary_nodes()
                .iter()
                .enumerate()
                .filter(|&(_, &on)| on)
                .map(|(i, _)| (i, poisson::exact_tc1(mesh.coords[i][0], mesh.coords[i][1])))
                .collect();
            bc::apply_dirichlet(&mut sys, &fixed);
            let mut x0 = vec![0.0; sys.b.len()];
            for &(i, v) in &fixed {
                x0[i] = v;
            }
            AssembledCase {
                id,
                node_adjacency: mesh.adjacency(),
                node_coords: mesh.coords.iter().map(|&p| to3d(p)).collect(),
                dofs_per_node: 1,
                x0,
                grid_desc: format!("{n} x {n} uniform grid ({} points)", n * n),
                structured_dims: Some([n, n, 1]),
                sys,
            }
        }
        CaseId::Tc2 => {
            let mesh = unit_cube(n, n, n);
            let (a, b) = poisson::assemble_3d(&mesh, poisson::rhs_tc2);
            let mut sys = LinearSystem { a, b };
            let fixed: Vec<(usize, f64)> = mesh
                .boundary_nodes()
                .iter()
                .enumerate()
                .filter(|&(_, &on)| on)
                .map(|(i, _)| {
                    let p = mesh.coords[i];
                    (i, poisson::exact_tc2(p[0], p[1], p[2]))
                })
                .collect();
            bc::apply_dirichlet(&mut sys, &fixed);
            let mut x0 = vec![0.0; sys.b.len()];
            for &(i, v) in &fixed {
                x0[i] = v;
            }
            AssembledCase {
                id,
                node_adjacency: mesh.adjacency(),
                node_coords: mesh.coords.clone(),
                dofs_per_node: 1,
                x0,
                grid_desc: format!("{n}^3 uniform grid ({} points)", n * n * n),
                structured_dims: Some([n, n, n]),
                sys,
            }
        }
        CaseId::Tc3 => {
            let mesh = square_with_hole(n, 0xD31A);
            let (a, b) = poisson::assemble_2d(&mesh, poisson::rhs_tc1);
            let mut sys = LinearSystem { a, b };
            let fixed: Vec<(usize, f64)> = mesh
                .boundary_nodes()
                .iter()
                .enumerate()
                .filter(|&(_, &on)| on)
                .map(|(i, _)| (i, poisson::exact_tc1(mesh.coords[i][0], mesh.coords[i][1])))
                .collect();
            bc::apply_dirichlet(&mut sys, &fixed);
            let mut x0 = vec![0.0; sys.b.len()];
            for &(i, v) in &fixed {
                x0[i] = v;
            }
            AssembledCase {
                id,
                node_adjacency: mesh.adjacency(),
                node_coords: mesh.coords.iter().map(|&p| to3d(p)).collect(),
                dofs_per_node: 1,
                x0,
                grid_desc: format!(
                    "unstructured square-with-hole grid ({} points, {} triangles)",
                    mesh.n_nodes(),
                    mesh.n_elems()
                ),
                structured_dims: None,
                sys,
            }
        }
        CaseId::Tc4 => {
            let mesh = unit_cube(n, n, n);
            let u0: Vec<f64> = mesh
                .coords
                .iter()
                .map(|p| heat::initial_condition(p[0], p[1], p[2]))
                .collect();
            let mut sys = heat::assemble_step(&mesh, heat::DT, &u0);
            // u = 0 on x = 1, Neumann elsewhere.
            let fixed = bc::dirichlet_where(&mesh.coords, |p| (p[0] - 1.0).abs() < 1e-12, |_| 0.0);
            bc::apply_dirichlet(&mut sys, &fixed);
            // Initial guess = the initial condition (paper §4.3).
            let mut x0 = u0;
            for &(i, v) in &fixed {
                x0[i] = v;
            }
            AssembledCase {
                id,
                node_adjacency: mesh.adjacency(),
                node_coords: mesh.coords.clone(),
                dofs_per_node: 1,
                x0,
                grid_desc: format!("{n}^3 uniform grid, dt = {}", heat::DT),
                structured_dims: Some([n, n, n]),
                sys,
            }
        }
        CaseId::Tc5 => {
            let mesh = unit_square(n, n);
            let (a, b) = convection::assemble_2d(
                &mesh,
                convection::V_MAG * convection::THETA.cos(),
                convection::V_MAG * convection::THETA.sin(),
            );
            let mut sys = LinearSystem { a, b };
            let fixed = convection::dirichlet_tc5(&mesh.coords);
            bc::apply_dirichlet(&mut sys, &fixed);
            let mut x0 = vec![0.0; sys.b.len()];
            for &(i, v) in &fixed {
                x0[i] = v;
            }
            AssembledCase {
                id,
                node_adjacency: mesh.adjacency(),
                node_coords: mesh.coords.iter().map(|&p| to3d(p)).collect(),
                dofs_per_node: 1,
                x0,
                grid_desc: format!("{n} x {n} grid, |v| = 1000, theta = pi/4"),
                structured_dims: Some([n, n, 1]),
                sys,
            }
        }
        CaseId::Tc6 => {
            let mesh = quarter_ring(n, n);
            let (a, b) = elasticity::assemble_2d(
                &mesh,
                elasticity::MU,
                elasticity::LAMBDA,
                // Outward surface-like volume load standing in for the
                // paper's prescribed stress vector.
                |x, y| {
                    let r = (x * x + y * y).sqrt();
                    [x / r, y / r]
                },
            );
            let mut sys = LinearSystem { a, b };
            let fixed = elasticity::dirichlet_tc6(&mesh.coords);
            bc::apply_dirichlet(&mut sys, &fixed);
            let mut x0 = vec![0.0; sys.b.len()];
            for &(i, v) in &fixed {
                x0[i] = v;
            }
            AssembledCase {
                id,
                node_adjacency: mesh.adjacency(),
                node_coords: mesh.coords.iter().map(|&p| to3d(p)).collect(),
                dofs_per_node: 2,
                x0,
                grid_desc: format!("{n} x {n} curvilinear ring grid, 2 dofs/point"),
                structured_dims: Some([n, n, 1]),
                sys,
            }
        }
    }
}

/// Structurally symmetric chain matrix with a hostile diagonal (exact
/// zeros, near-zeros and sign flips, controlled by `seed`): the matrix
/// family of the robustness tests and the ledger's `hostile` lines. Plain
/// ILU(0) cannot factor it; the safety net (pivot shifts, the ladder) must.
pub fn hostile(n: usize, seed: u64) -> Csr {
    let mut state = seed | 1;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut coo = Coo::new(n, n);
    for i in 0..n - 1 {
        coo.push(i, i + 1, -1.0 + 0.1 * rnd());
        coo.push(i + 1, i, -1.0 + 0.1 * rnd());
    }
    for i in 0..n {
        let d = match i % 5 {
            0 => 0.0,
            1 => 1e-14 * rnd(),
            2 => -(2.0 + rnd().abs()),
            _ => 4.0 + rnd().abs(),
        };
        coo.push(i, i, d);
    }
    coo.to_csr()
}

/// One cell of the hostile suite: [`hostile`] of 96 rows at seed
/// `s · 0x9E3779B97F4A7C15 | 1`, the block owner map over
/// [`HostileCell::RANKS`] ranks and `b = 1`, solved from a zero guess with
/// at most [`HostileCell::MAX_ITERS`] GMRES iterations on each of the four
/// paper rungs. The ledger's `hostile` lines and the tier-1
/// `tests/hostile_suite.rs` both run [`hostile_suite`].
pub struct HostileCell {
    /// The seed's index `s`, in `0..12`.
    pub s: u64,
    /// The matrix.
    pub a: Csr,
    /// The block owner map.
    pub owner: Vec<u32>,
    /// The right-hand side, all ones.
    pub b: Vec<f64>,
}

impl HostileCell {
    /// Ranks of every cell.
    pub const RANKS: usize = 4;
    /// GMRES iteration budget of every cell.
    pub const MAX_ITERS: usize = 120;
}

/// The twelve cells of the hostile suite, `s = 0, 1, …, 11`.
pub fn hostile_suite() -> impl Iterator<Item = HostileCell> {
    let n = 96;
    (0..12u64).map(move |s| HostileCell {
        s,
        a: hostile(n, s.wrapping_mul(0x9E3779B97F4A7C15) | 1),
        owner: block_owner(n, HostileCell::RANKS),
        b: vec![1.0; n],
    })
}

/// Contiguous block owner map of `n` rows over `p` ranks (every rank gets
/// at least one row when `p <= n`).
pub fn block_owner(n: usize, p: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * p) / n) as u32).collect()
}

/// `a` with the same pattern and every value moved by a few percent (the
/// diagonal grows by 2–3 %): the new matrix of a numeric-only refactor.
pub fn perturbed(a: &Csr) -> Csr {
    let mut a2 = a.clone();
    for (slot, (i, j, v)) in a2.vals_mut().iter_mut().zip(a.iter()) {
        *slot = if i == j {
            v * (1.02 + 0.01 * (i as f64 * 0.3).sin().abs())
        } else {
            v * (1.0 + 0.03 * (i as f64 * 0.37).sin() * (j as f64 * 0.11).cos())
        };
    }
    a2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_build_at_tiny_size() {
        for id in CaseId::ALL {
            let case = build_case(id, CaseSize::Tiny);
            assert_eq!(case.sys.a.n_rows(), case.n_unknowns());
            assert_eq!(case.n_unknowns(), case.n_nodes() * case.dofs_per_node);
            assert_eq!(case.x0.len(), case.n_unknowns());
            case.sys.a.validate().unwrap();
            assert!(case.sys.a.diagonal().is_ok(), "{:?} missing diagonal", id);
        }
    }

    #[test]
    fn tc5_is_unsymmetric_others_symmetric_spd_like() {
        let tc1 = build_case(CaseId::Tc1, CaseSize::Tiny);
        assert!(tc1.sys.a.is_symmetric(1e-9));
        let tc5 = build_case(CaseId::Tc5, CaseSize::Tiny);
        assert!(!tc5.sys.a.is_symmetric(1e-9));
        let tc6 = build_case(CaseId::Tc6, CaseSize::Tiny);
        assert!(tc6.sys.a.is_symmetric(1e-9));
    }

    #[test]
    fn tc4_initial_guess_is_initial_condition() {
        let tc4 = build_case(CaseId::Tc4, CaseSize::Tiny);
        // Interior max of sin(pi x) sin(pi y) is close to 1.
        let max = tc4.x0.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max > 0.8, "x0 max {max}");
        // TC1's initial guess is zero except Dirichlet nodes.
        let tc1 = build_case(CaseId::Tc1, CaseSize::Tiny);
        assert!(tc1.x0.iter().any(|&v| v != 0.0)); // boundary values present
    }

    #[test]
    fn dof_owner_expansion_for_elasticity() {
        let tc6 = build_case(CaseId::Tc6, CaseSize::Tiny);
        let node_owner: Vec<u32> = (0..tc6.n_nodes()).map(|i| (i % 3) as u32).collect();
        let dofs = tc6.dof_owner(&node_owner);
        assert_eq!(dofs.len(), 2 * node_owner.len());
        for (i, &o) in node_owner.iter().enumerate() {
            assert_eq!(dofs[2 * i], o);
            assert_eq!(dofs[2 * i + 1], o);
        }
    }
}
