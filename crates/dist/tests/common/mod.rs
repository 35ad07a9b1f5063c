//! The fixture the integration tests share.

use parapre_fem::{bc, poisson, LinearSystem};
use parapre_grid::structured::unit_square;
use parapre_partition::partition_graph;
use parapre_sparse::Csr;

/// TC1 (Poisson, Dirichlet) on an `nx × nx` grid, partitioned for `p` ranks:
/// matrix, right-hand side, owner map.
pub fn poisson_system(nx: usize, p: usize) -> (Csr, Vec<f64>, Vec<u32>) {
    let mesh = unit_square(nx, nx);
    let (a, b) = poisson::assemble_2d(&mesh, poisson::rhs_tc1);
    let mut sys = LinearSystem { a, b };
    let on_boundary = mesh.boundary_nodes();
    let fixed: Vec<(usize, f64)> = (0..mesh.coords.len())
        .filter(|&i| on_boundary[i])
        .map(|i| (i, poisson::exact_tc1(mesh.coords[i][0], mesh.coords[i][1])))
        .collect();
    bc::apply_dirichlet(&mut sys, &fixed);
    let owner = partition_graph(&mesh.adjacency(), p, 7).owner;
    (sys.a, sys.b, owner)
}
