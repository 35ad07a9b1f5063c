//! Test Case 6 walkthrough: linear elasticity on the quarter ring (paper
//! Fig. 5) — "clearly the toughest [case] for the parallel algebraic
//! preconditioners". Shows the Schur-enhanced preconditioners converging
//! where the simple block preconditioners struggle, and reports the
//! computed displacement field.
//!
//! ```text
//! cargo run --release --example elasticity_ring
//! ```

use parapre::core::{build_case, CaseId, CaseSize, PrecondKind, SchurPrecond};
use parapre::dist::{gather_vector, scatter_vector, DistGmres, DistMatrix, GmresConfig};
use parapre::engine::{run_case, SessionConfig};
use parapre::mpisim::Universe;
use parapre::partition::partition_graph;

fn main() {
    let case = build_case(CaseId::Tc6, CaseSize::Tiny);
    println!("== {} ==", case.id.name());
    println!(
        "grid: {} ({} unknowns)\n",
        case.grid_desc,
        case.n_unknowns()
    );

    // Give the block preconditioners a *tight* budget, as in the paper's
    // narrative: they have "trouble producing satisfactory convergence".
    println!("{:>10} {:>8} {:>12}", "precond", "#itr", "status");
    let mut iters = std::collections::HashMap::new();
    for kind in PrecondKind::ALL {
        let mut cfg = SessionConfig::paper(kind, 4);
        cfg.gmres.max_iters = 400;
        let res = run_case(&case, &cfg);
        iters.insert(kind.label(), (res.iterations, res.converged));
        println!(
            "{:>10} {:>8} {:>12}",
            kind.label(),
            res.iterations,
            if res.converged {
                "converged"
            } else {
                "NOT conv."
            }
        );
    }
    let (s1, _) = iters["Schur 1"];
    let (b1, b1_conv) = iters["Block 1"];
    if !b1_conv || b1 > 2 * s1 {
        println!("\n(as in the paper, the Schur-enhanced preconditioners show a clear advantage)");
    }

    // Solve with Schur 1 and inspect the displacement field.
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
            max_iters: 600,
            ..GmresConfig::distributed()
        })
        .solve(comm, &dm, &m, &b_loc, &mut x);
        assert!(rep.converged, "Schur 1 must converge on TC6");
        gather_vector(comm, &dm.layout, &x, b.len())
    });
    let u = gathered[0].as_ref().unwrap();

    // Displacement statistics: outward load ⇒ positive radial displacement,
    // u1 = 0 on Γ1 (y = 0), u2 = 0 on Γ2 (x = 0).
    let mut max_radial = 0.0f64;
    for (node, p3) in case.node_coords.iter().enumerate() {
        let (x, y) = (p3[0], p3[1]);
        let r = (x * x + y * y).sqrt();
        let ur = (u[2 * node] * x + u[2 * node + 1] * y) / r;
        max_radial = max_radial.max(ur);
        if y.abs() < 1e-9 {
            assert!(u[2 * node].abs() < 1e-8, "u1 must vanish on Gamma1");
        }
        if x.abs() < 1e-9 {
            assert!(u[2 * node + 1].abs() < 1e-8, "u2 must vanish on Gamma2");
        }
    }
    println!("\nmax radial displacement under unit outward load: {max_radial:.4}");
    println!("boundary constraints on Gamma1/Gamma2 verified.");
}
