//! E1–E6 — paper §5 "Results for test case N", one table per `--case N`.
//!
//! ```text
//! table --case 1..6 [--machine origin] [--dump-grid] [--all] [common flags]
//! ```
//!
//! Cluster run: the case's columns, P sweep. `--machine origin`: the
//! paper's Origin-3800 companion table (its column subset, a different
//! partition seed, the loaded-machine model; TC1's sweeps larger P). TC5's
//! companion run checks the paper's footnote, a Schur 2 failure at P = 16
//! from an unfortunate partition, at the Origin profile's partition seed: a
//! cell that does not converge prints `n.c.`. At the committed seed it
//! converges, and no failure was found over 60 seeds at Default size
//! (ROADMAP item 14). For TC6
//! the paper reports only Schur 1 / Schur 2 (the block preconditioners
//! "have trouble producing satisfactory convergence"); pass `--all` to
//! sweep all four and observe exactly that. `--dump-grid` prints the mesh
//! statistics standing in for Figs. 3 (TC3) and 5 (TC6).

use parapre_bench::{dump_grid, load_case, print_table, Cli};
use parapre_core::{CaseId, PrecondKind};

const ALL: &[PrecondKind] = &PrecondKind::ALL;
const S1: PrecondKind = PrecondKind::Schur1;
const S2: PrecondKind = PrecondKind::Schur2;
const B2: PrecondKind = PrecondKind::Block2;
const DEFAULT_RANKS: [usize; 4] = [2, 4, 8, 16];

/// What the six tables differ in: the case, the columns of its cluster
/// table, the columns of its Origin-3800 companion table, and that table's
/// default P sweep.
type Table = (
    CaseId,
    &'static [PrecondKind],
    &'static [PrecondKind],
    &'static [usize],
);

const TABLES: [Table; 6] = [
    (CaseId::Tc1, ALL, &[S1, B2], &[8, 16, 32]),
    (CaseId::Tc2, ALL, &[S2, B2], &DEFAULT_RANKS),
    (CaseId::Tc3, ALL, ALL, &DEFAULT_RANKS),
    (CaseId::Tc4, ALL, ALL, &DEFAULT_RANKS),
    (CaseId::Tc5, ALL, &[S1, S2, B2], &DEFAULT_RANKS),
    (CaseId::Tc6, &[S1, S2], &[S1, S2], &DEFAULT_RANKS),
];

fn main() {
    let mut cli = Cli::parse(&DEFAULT_RANKS);
    let n: usize = cli
        .extra
        .iter()
        .position(|f| f == "--case")
        .and_then(|i| cli.extra.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|n| (1..=TABLES.len()).contains(n))
        .expect("usage: table --case 1..6");
    let (id, cluster, origin, origin_ranks) = TABLES[n - 1];
    let case = load_case(id, &cli);
    if cli.has_flag("--dump-grid") {
        dump_grid(&case);
        return;
    }
    let on_origin = cli.machine.name == "Origin3800";
    if on_origin && cli.ranks == DEFAULT_RANKS {
        cli.ranks = origin_ranks.to_vec();
    }
    let kinds = if cli.has_flag("--all") {
        ALL
    } else if on_origin {
        origin
    } else {
        cluster
    };
    print_table(&case, &cli, kinds);
}
