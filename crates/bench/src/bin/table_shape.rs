//! E7 — paper §5.1 "Effect of the subdomain shape".
//!
//! Test Case 2 at a fixed P: the general graph partitioning versus the
//! simple box partitioning, all four preconditioners. The paper finds the
//! iteration change "hardly noticeable" and the box scheme slightly faster
//! (better balance, lower communication).

use parapre_bench::{load_case, print_table, Cli};
use parapre_core::{CaseId, PartitionScheme, PrecondKind};

fn main() {
    let mut cli = Cli::parse(&[16]);
    let case = load_case(CaseId::Tc2, &cli);
    println!("== general grid partitioning ==");
    cli.scheme = PartitionScheme::General;
    print_table(&case, &cli, &PrecondKind::ALL);
    println!("== simple (box) grid partitioning ==");
    cli.scheme = PartitionScheme::Boxes;
    print_table(&case, &cli, &PrecondKind::ALL);
}
