//! E8 — paper §5.2 "Comparison with additive Schwarz".
//!
//! Test Case 1 on box partitions with the overlapping additive Schwarz
//! preconditioner (~5 % overlap, FFT-preconditioned 1-iteration CG
//! subdomain solves), with and without the fixed 5 x 17 coarse grid.

use parapre_bench::{load_case, print_table, Cli};
use parapre_core::{CaseId, PartitionScheme, PrecondKind};

fn main() {
    let mut cli = Cli::parse(&[4, 8, 16, 32]);
    let case = load_case(CaseId::Tc1, &cli);
    cli.scheme = PartitionScheme::Boxes;
    print_table(
        &case,
        &cli,
        &[
            PrecondKind::Schwarz { coarse: false },
            PrecondKind::Schwarz { coarse: true },
        ],
    );
}
