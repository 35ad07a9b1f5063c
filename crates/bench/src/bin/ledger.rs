//! Answer ledger — one line per cell, every column independent of the host.
//!
//! ```text
//! ledger                      print the ledger
//! ledger --check LEDGER.txt   diff against a committed ledger; exit 1 and
//!                             print the differing lines if any
//! ```
//!
//! Cells, in file order:
//! - TC1–TC6 at the tiny preset × all seven [`PrecondKind`]s ×
//!   `P ∈ {1, 2, 4, 8}`, then the benchmark's three warm cells at `P = 2`
//!   (TC1 201² · Block 2, TC6 61 · Schur 2, TC3 2 500 · SchurML). Head
//!   `<case> <size> <kind> P=<p>`.
//! - The hostile suite: the twelve cells of [`hostile_suite`] × the four
//!   paper rungs, `b = 1` from a zero guess. Head `hostile s<s> <kind> P=4`.
//! - SchurML against Schur 2: TC1 and TC2 at the default preset ×
//!   `P ∈ {4, 8}`, the first rows of the `schurml` sweep. Head
//!   `<case> default <kind> P=<p>`.
//! - Refactored sessions: TC1–TC6 tiny × seven kinds × `P ∈ {2, 4}`, a
//!   cold build refactored onto [`perturbed`] values with
//!   `SolverSession::refactor`, then the case's solve. Head
//!   `refactor <case> <kind> P=<p>`, then `age=1`, or `refused=<key>`
//!   and nothing else when the refactor is refused.
//! - Additive Schwarz (paper §5.2): TC1 tiny on box partitions × without
//!   and with the coarse grid × `P ∈ {1, 2, 4, 8}`. Head
//!   `tc1 tiny <kind> P=<p>`.
//!
//! Except where it says otherwise, a cell is a cold session build and one
//! solve of the case's right-hand side from its initial guess. Columns:
//! outer iterations, `converged`, the rung the build ended on, ladder
//! fallbacks, pivot shifts, messages sent over all ranks during the solve,
//! and FNV-1a of the gathered solution's bits.
//!
//! A change that claims "same answers" regenerates the ledger and shows an
//! empty diff; one that changes rounding or traffic shows exactly which
//! cells moved and in which column.

use parapre_core::cases::{hostile_suite, perturbed, HostileCell};
use parapre_core::{
    build_case, build_case_sized, AssembledCase, CaseId, CaseSize, PartitionScheme, PrecondKind,
};
use parapre_engine::{EngineError, SessionConfig, SolveRequest, SolverSession};

const KINDS: [PrecondKind; 7] = [
    PrecondKind::Schur1,
    PrecondKind::Schur2,
    PrecondKind::schurml_default(),
    PrecondKind::Block1,
    PrecondKind::Block2,
    PrecondKind::BlockOverlap,
    PrecondKind::Jacobi,
];

/// The benchmark's warm cells: case, grid extent, preconditioner.
const WARM_CELLS: [(CaseId, usize, PrecondKind); 3] = [
    (CaseId::Tc1, 201, PrecondKind::Block2),
    (CaseId::Tc6, 61, PrecondKind::Schur2),
    (CaseId::Tc3, 2_500, PrecondKind::schurml_default()),
];

/// 64-bit FNV-1a over the little-endian bytes of every entry.
fn fnv1a(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `head`'s line: `solve` of the built session, or the error that stopped
/// the build.
fn built(
    head: &str,
    build: Result<SolverSession, EngineError>,
    solve: impl FnOnce(SolverSession) -> String,
) -> String {
    match build {
        Ok(session) => solve(session),
        Err(e) => format!("{head} error={e}"),
    }
}

/// One line: `head`, then the columns of one solve of `b` from `x0` on
/// `session` (or the error that stopped the solve).
fn line(head: &str, session: &SolverSession, b: &[f64], x0: Option<&[f64]>) -> String {
    let rep = match session.run(SolveRequest {
        x0,
        ..SolveRequest::new(b)
    }) {
        Ok(out) => out.single(),
        Err(failures) => return format!("{head} error={}", EngineError::from(failures)),
    };
    let msgs: u64 = rep.load.ranks.iter().map(|r| r.msgs_sent).sum();
    format!(
        "{head} it={} conv={} rung={} fallbacks={} shifts={} msgs={msgs} x={:016x}",
        rep.iterations,
        rep.converged,
        session.active_precond().key(),
        session.build_fallbacks(),
        session.pivot_shifts(),
        fnv1a(&rep.x),
    )
}

fn ledger() -> Vec<String> {
    let mut lines = Vec::new();
    let cases: Vec<_> = CaseId::ALL
        .into_iter()
        .map(|id| build_case(id, CaseSize::Tiny))
        .collect();
    // A cold session's solve of the case's right-hand side from its guess.
    let cold_on = |head: &str, case: &AssembledCase, cfg: &SessionConfig| {
        let build = SolverSession::from_case(case, cfg);
        built(head, build, |s| line(head, &s, &case.sys.b, Some(&case.x0)))
    };
    let cold = |head: &str, case: &AssembledCase, kind, p| {
        cold_on(head, case, &SessionConfig::paper(kind, p))
    };
    for case in &cases {
        for kind in KINDS {
            for p in [1, 2, 4, 8] {
                let head = format!("{} tiny {} P={p}", case.id.key(), kind.key());
                lines.push(cold(&head, case, kind, p));
            }
        }
    }
    for (id, n, kind) in WARM_CELLS {
        let case = build_case_sized(id, n);
        let head = format!("{} {n} {} P=2", id.key(), kind.key());
        lines.push(cold(&head, &case, kind, 2));
    }
    for cell in hostile_suite() {
        for kind in PrecondKind::ALL {
            let p = HostileCell::RANKS;
            let mut cfg = SessionConfig::paper(kind, p);
            cfg.gmres.max_iters = HostileCell::MAX_ITERS;
            let head = format!("hostile s{} {} P={p}", cell.s, kind.key());
            let build = SolverSession::build(&cell.a, &cell.owner, &cfg);
            lines.push(built(&head, build, |s| line(&head, &s, &cell.b, None)));
        }
    }
    for id in [CaseId::Tc1, CaseId::Tc2] {
        let case = build_case(id, CaseSize::Default);
        for kind in [PrecondKind::schurml_default(), PrecondKind::Schur2] {
            for p in [4, 8] {
                let head = format!("{} default {} P={p}", id.key(), kind.key());
                lines.push(cold(&head, &case, kind, p));
            }
        }
    }
    for case in &cases {
        let a_new = perturbed(&case.sys.a);
        for kind in KINDS {
            for p in [2, 4] {
                let head = format!("refactor {} {} P={p}", case.id.key(), kind.key());
                let build = SolverSession::from_case(case, &SessionConfig::paper(kind, p));
                lines.push(built(&head, build, |donor| {
                    match SolverSession::refactor(&donor, &a_new) {
                        Ok(s) => {
                            let head = format!("{head} age={}", s.pattern_age());
                            line(&head, &s, &case.sys.b, Some(&case.x0))
                        }
                        Err(refusal) => format!("{head} refused={}", refusal.key()),
                    }
                }));
            }
        }
    }
    for coarse in [false, true] {
        let kind = PrecondKind::Schwarz { coarse };
        for p in [1, 2, 4, 8] {
            let mut cfg = SessionConfig::paper(kind, p);
            cfg.scheme = PartitionScheme::Boxes;
            let head = format!("tc1 tiny {} P={p}", kind.key());
            lines.push(cold_on(&head, &cases[0], &cfg));
        }
    }
    lines
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lines = ledger();
    match args.as_slice() {
        [] => lines.iter().for_each(|l| println!("{l}")),
        [flag, path] if flag == "--check" => {
            let committed =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let committed: Vec<&str> = committed.lines().collect();
            let mut differing = 0;
            for i in 0..committed.len().max(lines.len()) {
                let old = committed.get(i).copied();
                let new = lines.get(i).map(String::as_str);
                if old != new {
                    differing += 1;
                    println!("- {}", old.unwrap_or("(no line)"));
                    println!("+ {}", new.unwrap_or("(no line)"));
                }
            }
            if differing > 0 {
                eprintln!(
                    "ledger: {differing} of {} lines differ from {path}",
                    lines.len()
                );
                std::process::exit(1);
            }
            eprintln!("ledger: {} lines match {path}", lines.len());
        }
        _ => panic!("usage: ledger [--check LEDGER.txt]"),
    }
}
