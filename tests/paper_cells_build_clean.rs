//! Every distributed preconditioner is built through the diagonal-shift
//! ladder and the voted fallback ladder. That is invisible to the paper's
//! tables only because every paper cell builds *clean* — the plain
//! factorization wins the first rung on every rank — and a cell that does
//! not is refused loudly instead of being printed under the wrong column
//! header. Both halves are pinned here, and so is the identity of a table
//! cell with its line in the committed answer ledger (`LEDGER.txt`).

use parapre::core::{build_case, AssembledCase, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre::engine::{run_case, SessionConfig};
use std::time::{Duration, Instant};

/// Runs the cell of `case` under `cfg` — `run_case` panics on a ladder
/// descent or a pivot shift — and checks it against its ledger line,
/// column for column.
fn matches_its_ledger_line(case: &AssembledCase, cfg: &SessionConfig) {
    let res = run_case(case, cfg);
    let (kind, p) = (cfg.precond, cfg.n_ranks);
    let head = format!("{} tiny {} P={p} ", case.id.key(), kind.key());
    let line = include_str!("../LEDGER.txt")
        .lines()
        .find(|l| l.starts_with(&head))
        .unwrap_or_else(|| panic!("no ledger line for {head:?}"));
    let cell = format!(
        "{head}it={} conv={} rung={} fallbacks=0 shifts=0 msgs={} ",
        res.iterations,
        res.converged,
        kind.key(),
        res.total_msgs
    );
    assert!(line.starts_with(&cell), "ledger {line:?}\n  table {cell:?}");
}

#[test]
fn every_paper_cell_builds_on_the_requested_rung_without_shifts() {
    let kinds = [
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::Block1,
        PrecondKind::Block2,
        PrecondKind::BlockOverlap,
        PrecondKind::schurml_default(),
        PrecondKind::Jacobi,
    ];
    for id in CaseId::ALL {
        let case = build_case(id, CaseSize::Tiny);
        for kind in kinds {
            for p in [2, 4] {
                matches_its_ledger_line(&case, &SessionConfig::paper(kind, p));
            }
        }
    }
    // The §5.2 Schwarz cells, on the box partitions they are defined on.
    let tc1 = build_case(CaseId::Tc1, CaseSize::Tiny);
    for coarse in [false, true] {
        for p in [2, 4] {
            let mut cfg = SessionConfig::paper(PrecondKind::Schwarz { coarse }, p);
            cfg.scheme = PartitionScheme::Boxes;
            matches_its_ledger_line(&tc1, &cfg);
        }
    }
}

/// TC1 with every third diagonal entry zeroed: ILU(0) of any subdomain hits
/// a zero pivot and must climb the shift ladder.
fn hostile_tc1() -> parapre::core::AssembledCase {
    let mut case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let a = &mut case.sys.a;
    for i in (0..a.n_rows()).step_by(3) {
        let start = a.row_ptr()[i];
        let k = a.row(i).0.binary_search(&i).expect("stored diagonal");
        a.vals_mut()[start + k] = 0.0;
    }
    case
}

#[test]
fn a_cell_that_needs_the_safety_net_panics_on_the_launcher_naming_itself() {
    let case = hostile_tc1();
    let t0 = Instant::now();
    let panic =
        std::panic::catch_unwind(|| run_case(&case, &SessionConfig::paper(PrecondKind::Block1, 4)))
            .expect_err("a shifted build must not print as Block 1");
    // A panic inside one rank would strand its peers until the 60 s receive
    // timeout and surface as a deadlock report instead of this message.
    assert!(t0.elapsed() < Duration::from_secs(30), "the run hung");
    let msg = panic
        .downcast_ref::<String>()
        .expect("formatted panic message");
    for needle in [CaseId::Tc1.name(), "Block 1", "P=4", "safety net"] {
        assert!(msg.contains(needle), "{needle:?} missing from {msg:?}");
    }
}
