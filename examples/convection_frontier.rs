//! Test Case 5 walkthrough: the convection-dominated transport problem
//! whose discontinuous inlet profile is carried along θ = π/4 (paper
//! Fig. 4). Solves the system in parallel with each preconditioner,
//! verifies the front, and renders an ASCII contour of the solution.
//!
//! ```text
//! cargo run --release --example convection_frontier
//! ```

use parapre::core::{build_case, CaseId, CaseSize, PrecondKind, SchurPrecond};
use parapre::dist::{gather_vector, scatter_vector, DistGmres, DistMatrix, GmresConfig};
use parapre::engine::{run_case, SessionConfig};
use parapre::mpisim::Universe;
use parapre::partition::partition_graph;

fn main() {
    let case = build_case(CaseId::Tc5, CaseSize::Tiny);
    println!("== {} ==", case.id.name());
    println!("grid: {}\n", case.grid_desc);

    // Paper finding for this case: "the Schur 1 preconditioner is a clear
    // winner in the overall computational efficiency".
    println!("{:>10} {:>6} {:>10}", "precond", "#itr", "wall(s)");
    for kind in PrecondKind::ALL {
        let res = run_case(&case, &SessionConfig::paper(kind, 4));
        println!(
            "{:>10} {:>6} {:>10.3}",
            kind.label(),
            if res.converged {
                res.iterations.to_string()
            } else {
                "n.c.".into()
            },
            res.wall_seconds
        );
    }

    // Solve once more, gathering the solution for visualization.
    let p = 4;
    let part = partition_graph(&case.node_adjacency, p, 1);
    let owner = case.dof_owner(&part.owner);
    let (a, b, x0) = (&case.sys.a, &case.sys.b, &case.x0);
    let owner_ref = &owner;
    let gathered = Universe::run(p, move |comm| {
        let dm = DistMatrix::from_global(a, owner_ref, comm.rank(), p);
        let m = SchurPrecond::build(PrecondKind::Schur1, &dm, comm, &Default::default())
            .expect("schur1 setup");
        let b_loc = scatter_vector(&dm.layout, b);
        let mut x = scatter_vector(&dm.layout, x0);
        let rep = DistGmres::new(GmresConfig::distributed()).solve(comm, &dm, &m, &b_loc, &mut x);
        assert!(rep.converged);
        gather_vector(comm, &dm.layout, &x, b.len())
    });
    let u = gathered[0].as_ref().expect("rank 0 gathers").clone();

    // ASCII contour: the sharp front starts at (0, 0.25) and runs at 45°.
    let nx = case.structured_dims.unwrap()[0];
    println!("\nsolution contour (#: u > 0.5, .: u <= 0.5); inlet on the left:");
    let step = (nx / 33).max(1);
    for j in (0..nx).rev().step_by(step) {
        let row: String = (0..nx)
            .step_by(step)
            .map(|i| if u[j * nx + i] > 0.5 { '#' } else { '.' })
            .collect();
        println!("  {row}");
    }
    // Sanity: upper-left carries the inlet value 1, lower-right stays 0.
    let at = |i: usize, j: usize| u[j * nx + i];
    assert!(at(1, nx - 2) > 0.7, "upper-left should be ~1");
    assert!(at(nx - 2, 1).abs() < 0.3, "lower-right should be ~0");
    println!(
        "\nfront verified: upper-left u = {:.3}, lower-right u = {:.3}",
        at(1, nx - 2),
        at(nx - 2, 1)
    );
}
