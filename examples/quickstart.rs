//! Quickstart: solve paper Test Case 1 with all four parallel algebraic
//! preconditioners and print a paper-style comparison, plus the subdomain
//! point census of the paper's Figure 1.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre::dist::DistMatrix;
use parapre::engine::{run_case, SessionConfig};
use parapre::mpisim::{MachineModel, Universe};
use parapre::partition::partition_graph;

fn main() {
    // A modest grid so the example runs in seconds; use CaseSize::Default
    // or Full for paper-scale runs.
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    println!("== {} ==", case.id.name());
    println!(
        "grid: {} ({} unknowns)\n",
        case.grid_desc,
        case.n_unknowns()
    );

    // --- Figure 1: internal / interdomain-interface / external-interface
    //     census of each subdomain under a 4-way general partition.
    let p = 4;
    let part = partition_graph(&case.node_adjacency, p, 1);
    println!("Figure-1 census under a {p}-way general partition:");
    println!(
        "{:>5} {:>10} {:>22} {:>20}",
        "rank", "internal", "interdomain interface", "external interface"
    );
    let owner = case.dof_owner(&part.owner);
    let a = &case.sys.a;
    let owner_ref = &owner;
    let census = Universe::run(p, move |comm| {
        let dm = DistMatrix::from_global(a, owner_ref, comm.rank(), p);
        (
            dm.layout.n_internal,
            dm.layout.n_interface,
            dm.layout.n_ghost,
        )
    });
    for (r, (ni, nf, ng)) in census.iter().enumerate() {
        println!("{r:>5} {ni:>10} {nf:>22} {ng:>20}");
    }

    // --- The four preconditioners of the study.
    println!("\nFGMRES(20), ||r||/||r0|| <= 1e-6, P = {p}:");
    println!(
        "{:>10} {:>6} {:>10} {:>12}",
        "precond", "#itr", "wall(s)", "modeled(s)"
    );
    for kind in PrecondKind::ALL {
        let res = run_case(&case, &SessionConfig::paper(kind, p));
        println!(
            "{:>10} {:>6} {:>10.3} {:>12.3}",
            kind.label(),
            if res.converged {
                res.iterations.to_string()
            } else {
                "n.c.".into()
            },
            res.wall_seconds,
            res.modeled_seconds(&MachineModel::linux_cluster()),
        );
    }
    println!("\nSee `report` and `table <id>` in parapre-bench for the full paper tables.");
}
