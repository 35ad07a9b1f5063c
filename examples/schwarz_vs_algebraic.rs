//! Paper §5.2 in miniature: the additive-Schwarz preconditioner (overlap
//! ≈ 5 %, FFT-preconditioned CG subdomain solves) against the four
//! algebraic preconditioners on Test Case 1 — without coarse-grid
//! corrections the Schwarz iteration count grows "dangerously" with P;
//! with CGCs it beats everything.
//!
//! ```text
//! cargo run --release --example schwarz_vs_algebraic
//! ```

use parapre::core::{build_case, AssembledCase, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre::engine::{run_case, SessionConfig};

/// Iterations of Schwarz (± CGC) on `p` box subdomains, `None` if it did
/// not converge.
fn schwarz_iters(case: &AssembledCase, coarse: bool, p: usize) -> Option<usize> {
    let mut cfg = SessionConfig::paper(PrecondKind::Schwarz { coarse }, p);
    cfg.scheme = PartitionScheme::Boxes;
    let res = run_case(case, &cfg);
    res.converged.then_some(res.iterations)
}

fn main() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    println!("== additive Schwarz vs algebraic preconditioners ==");
    println!("{} on {}\n", case.id.name(), case.grid_desc);

    println!(
        "{:>4} {:>16} {:>16}",
        "P", "Schwarz no-CGC", "Schwarz + CGC"
    );
    let mut growth = Vec::new();
    for p in [2usize, 4, 8, 16] {
        let no = schwarz_iters(&case, false, p);
        let yes = schwarz_iters(&case, true, p);
        growth.push(no.unwrap_or(usize::MAX));
        println!(
            "{:>4} {:>16} {:>16}",
            p,
            no.map_or("n.c.".into(), |i| i.to_string()),
            yes.map_or("n.c.".into(), |i| i.to_string())
        );
    }
    assert!(
        growth.last().unwrap() > growth.first().unwrap(),
        "no-CGC iteration count should grow with P"
    );

    println!("\nalgebraic preconditioners at P = 16 (same tolerance):");
    for kind in PrecondKind::ALL {
        let res = run_case(&case, &SessionConfig::paper(kind, 16));
        println!(
            "{:>10}: {}",
            kind.label(),
            if res.converged {
                format!("{} iterations", res.iterations)
            } else {
                "n.c.".into()
            }
        );
    }
    println!("\npaper: with CGCs additive Schwarz converges faster than all four;");
    println!("without CGCs its growth with P is the worst of the lot.");
}
