//! Answer ledger — one line per cell, every column independent of the host.
//!
//! ```text
//! ledger                      print the ledger
//! ledger --check LEDGER.txt   diff against a committed ledger; exit 1 and
//!                             print the differing lines if any
//! ```
//!
//! Cells: TC1–TC6 at the tiny preset × all seven [`PrecondKind`]s ×
//! `P ∈ {1, 2, 4, 8}`, plus the benchmark's three warm cells at `P = 2`
//! (TC1 201² · Block 2, TC6 61 · Schur 2, TC3 2 500 · SchurML). Each is a
//! cold session build and one solve of the case's right-hand side from its
//! initial guess. Columns: outer iterations, `converged`, the rung the
//! build ended on, ladder fallbacks, pivot shifts, messages sent over all
//! ranks during the solve, and FNV-1a of the gathered solution's bits.
//!
//! A change that claims "same answers" regenerates the ledger and shows an
//! empty diff; one that changes rounding or traffic shows exactly which
//! cells moved and in which column.

use parapre_core::{build_case, build_case_sized, AssembledCase, CaseId, CaseSize, PrecondKind};
use parapre_engine::{SessionConfig, SolveRequest, SolverSession};

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

fn cell(case: &AssembledCase, size: &str, kind: PrecondKind, p: usize) -> String {
    let head = format!("{} {size} {} P={p}", case.id.key(), kind.key());
    let session = match SolverSession::from_case(case, &SessionConfig::paper(kind, p)) {
        Ok(s) => s,
        Err(e) => return format!("{head} error={e}"),
    };
    let solved = session.run(SolveRequest {
        x0: Some(&case.x0),
        ..SolveRequest::new(&case.sys.b)
    });
    let rep = match solved {
        Ok(out) => out.single(),
        Err(failures) => {
            return format!(
                "{head} error={}",
                parapre_engine::EngineError::from(failures)
            )
        }
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
    for id in CaseId::ALL {
        let case = build_case(id, CaseSize::Tiny);
        for kind in KINDS {
            for p in [1, 2, 4, 8] {
                lines.push(cell(&case, "tiny", kind, p));
            }
        }
    }
    for (id, n, kind) in WARM_CELLS {
        lines.push(cell(&build_case_sized(id, n), &n.to_string(), kind, 2));
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
