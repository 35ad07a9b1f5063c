//! Test Case 2 walkthrough (3-D Poisson): scalability across P under the
//! two machine profiles, reproducing the paper's observation that the
//! *simple block* preconditioners win on this well-conditioned 3-D problem
//! while the Schur variants have the most stable iteration counts.
//!
//! ```text
//! cargo run --release --example poisson_cluster
//! ```

use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre::engine::{run_case, SessionConfig};
use parapre::mpisim::MachineModel;

fn main() {
    let case = build_case(CaseId::Tc2, CaseSize::Tiny);
    println!("== {} ==", case.id.name());
    println!(
        "grid: {} ({} unknowns)\n",
        case.grid_desc,
        case.n_unknowns()
    );

    for machine in [MachineModel::linux_cluster(), MachineModel::origin_3800()] {
        println!(
            "machine: {} (alpha = {:.0} us, bw = {:.0} MB/s, load x{})",
            machine.name,
            machine.latency * 1e6,
            1.0 / machine.seconds_per_byte / 1e6,
            machine.load_factor
        );
        println!(
            "{:>4} {:>10} {:>6} {:>12} {:>12}",
            "P", "precond", "#itr", "wall(s)", "model(s)"
        );
        let mut per_kind: std::collections::HashMap<&str, Vec<usize>> = Default::default();
        for p in [2usize, 4, 8] {
            for kind in PrecondKind::ALL {
                let mut cfg = SessionConfig::paper(kind, p);
                cfg.partition_seed = machine.partition_seed;
                let res = run_case(&case, &cfg);
                per_kind
                    .entry(kind.label())
                    .or_default()
                    .push(res.iterations);
                println!(
                    "{:>4} {:>10} {:>6} {:>12.3} {:>12.3}",
                    p,
                    kind.label(),
                    if res.converged {
                        res.iterations.to_string()
                    } else {
                        "n.c.".into()
                    },
                    res.wall_seconds,
                    res.modeled_seconds(&machine)
                );
            }
        }
        // Paper: Schur iteration counts are very stable on this case.
        let spread = |v: &[usize]| v.iter().max().unwrap() - v.iter().min().unwrap();
        println!(
            "iteration spread across P: Schur1 = {}, Schur2 = {}, Block1 = {}, Block2 = {}\n",
            spread(&per_kind["Schur 1"]),
            spread(&per_kind["Schur 2"]),
            spread(&per_kind["Block 1"]),
            spread(&per_kind["Block 2"]),
        );
    }
}
