//! FEM verification: manufactured-solution convergence study for the
//! Poisson test cases, using the L²/H¹ error norms of `parapre-fem`.
//!
//! Confirms O(h²)/O(h) convergence of the P1 discretization that underlies
//! every experiment in the study — the "is the discretization right?"
//! check a reproduction should ship with.
//!
//! ```text
//! cargo run --release -p parapre --example convergence_study
//! ```

use parapre::core::{build_case_sized, CaseId, PrecondKind, SchurPrecond};
use parapre::dist::{gather_vector, scatter_vector, DistGmres, DistMatrix, GmresConfig};
use parapre::fem::norms::error_norms_2d;
use parapre::fem::poisson;
use parapre::mpisim::Universe;
use parapre::partition::partition_graph;

fn solve_tc1(n: usize) -> (f64, f64) {
    let case = build_case_sized(CaseId::Tc1, n);
    let p = 4;
    let part = partition_graph(&case.node_adjacency, p, 1);
    let owner = case.dof_owner(&part.owner);
    let (a, b, x0) = (&case.sys.a, &case.sys.b, &case.x0);
    let owner_ref = &owner;
    let gathered = Universe::run(p, move |comm| {
        let dm = DistMatrix::from_global(a, owner_ref, comm.rank(), p);
        let m = SchurPrecond::build(PrecondKind::Schur1, &dm, comm, &Default::default()).unwrap();
        let b_loc = scatter_vector(&dm.layout, b);
        let mut x = scatter_vector(&dm.layout, x0);
        let rep = DistGmres::new(GmresConfig {
            rel_tol: 1e-10,
            ..GmresConfig::distributed()
        })
        .solve(comm, &dm, &m, &b_loc, &mut x);
        assert!(rep.converged);
        gather_vector(comm, &dm.layout, &x, b.len())
    });
    let u = gathered[0].as_ref().unwrap().clone();
    // Rebuild the mesh to evaluate the norms (same generator, same n).
    let mesh = parapre::grid::structured::unit_square(n, n);
    let e = error_norms_2d(&mesh, &u, poisson::exact_tc1, |x, y| [y.exp(), x * y.exp()]);
    (e.l2, e.h1_semi)
}

fn main() {
    println!("P1 convergence study, Test Case 1 (u = x e^y), distributed Schur 1 solves\n");
    println!(
        "{:>6} {:>12} {:>8} {:>12} {:>8}",
        "n", "L2 error", "rate", "H1 error", "rate"
    );
    let mut prev: Option<(f64, f64)> = None;
    for n in [9usize, 17, 33, 65] {
        let (l2, h1) = solve_tc1(n);
        let (r2, r1) = match prev {
            Some((pl2, ph1)) => ((pl2 / l2).log2(), (ph1 / h1).log2()),
            None => (f64::NAN, f64::NAN),
        };
        println!(
            "{:>6} {:>12.3e} {:>8.2} {:>12.3e} {:>8.2}",
            n, l2, r2, h1, r1
        );
        prev = Some((l2, h1));
    }
    println!("\nexpected asymptotic rates: L2 → 2.0, H1 → 1.0");
}
