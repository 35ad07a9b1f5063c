//! Fixtures shared by this crate's unit tests.

use parapre_fem::{bc, poisson, LinearSystem};
use parapre_grid::structured::unit_square;
use parapre_partition::partition_graph;
use parapre_sparse::Csr;

/// Test Case 1 on an `nx × nx` grid with its exact Dirichlet values, and
/// the owner map of a general `p`-way partition: `(A, b, owner)`.
pub(crate) fn tc1(nx: usize, p: usize, seed: u64) -> (Csr, Vec<f64>, Vec<u32>) {
    let mesh = unit_square(nx, nx);
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
    let part = partition_graph(&mesh.adjacency(), p, seed);
    (sys.a, sys.b, part.owner)
}
