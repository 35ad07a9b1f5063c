//! # parapre-bench
//!
//! The paper's §5 tables, defined once in [`TABLES`] and printed by two
//! binaries: `report` prints every row (the body of EXPERIMENTS.md), and
//! `table <id>…` the rows of the named tables. Also the answer ledger
//! (`ledger`), the kernel timings (`kernels`), the SchurML sweep
//! (`schurml`) and the trace post-mortem (`inspect`). See DESIGN.md §6 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured records.
//!
//! `report` and `table` accept:
//!
//! ```text
//! --size tiny|default|full     grid preset (default: default)
//! --ranks 2,4,8,16             replaces the P sweep of every printed table
//! --trace <dir>                record per-rank JSONL traces into <dir>
//!                              and print per-phase summaries
//! --dump-grid                  (`table` only) print the mesh statistics of
//!                              the named tables' cases instead
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parapre_core::{build_case, AssembledCase, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre_engine::{run_case_traced, RunResult, SessionConfig};
use parapre_mpisim::MachineModel;
use std::path::PathBuf;
use CaseId::{Tc1, Tc2, Tc3, Tc4, Tc5, Tc6};
use PartitionScheme::{Boxes, General};
use PrecondKind::{Block2 as B2, Schur1 as S1, Schur2 as S2};

pub mod inspect;

/// One table of the paper's §5: the case, the machine profile, the
/// partition scheme, the P sweep and the preconditioner columns.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// What `table <id>` selects; the rows of one paper table share it.
    pub id: &'static str,
    /// The Markdown heading printed above the table (empty: none).
    pub heading: &'static str,
    /// The test case.
    pub case: CaseId,
    /// The α–β machine profile; it also fixes the partition seed.
    pub machine: fn() -> MachineModel,
    /// How the grid is split among the ranks.
    pub scheme: PartitionScheme,
    /// The P sweep, one table row per P.
    pub ranks: &'static [usize],
    /// The preconditioner columns.
    pub kinds: &'static [PrecondKind],
}

const fn row(
    id: &'static str,
    case: CaseId,
    machine: fn() -> MachineModel,
    scheme: PartitionScheme,
    ranks: &'static [usize],
    kinds: &'static [PrecondKind],
    heading: &'static str,
) -> Table {
    Table {
        id,
        heading,
        case,
        machine,
        scheme,
        ranks,
        kinds,
    }
}

const ALL: &[PrecondKind] = &PrecondKind::ALL;
const SCHWARZ: &[PrecondKind] = &[
    PrecondKind::Schwarz { coarse: false },
    PrecondKind::Schwarz { coarse: true },
];
const CLUSTER: fn() -> MachineModel = MachineModel::linux_cluster;
const ORIGIN: fn() -> MachineModel = MachineModel::origin_3800;
const CLUSTER_P: &[usize] = &[2, 4, 8, 16];
const ORIGIN_P: &[usize] = &[8, 16, 32];

/// Every table of the paper's §5, in `report`'s order.
///
/// The Origin-3800 companions (E1b, E2b, E5b) run the column subset the
/// paper reports on that machine, at larger P, under its partition seed and
/// loaded-machine model. E5b checks the paper's footnote, a Schur 2 failure
/// at P = 16 from an unfortunate partition: a cell that does not converge
/// prints `n.c.`. At the committed seed it converges, and no failure was
/// found over 60 seeds at Default size (ROADMAP item 14). For E6 the paper
/// reports only Schur 1 / Schur 2 (the block preconditioners "have trouble
/// producing satisfactory convergence"); all four columns show exactly that.
/// E7 runs TC2 at P = 16 under both partition schemes (§5.1), E8 additive
/// Schwarz ± CGC on box partitions of TC1 (§5.2) against Schur 1 at P = 16.
#[rustfmt::skip]
pub const TABLES: [Table; 13] = [
    row("e1",  Tc1, CLUSTER, General, CLUSTER_P,       ALL,           "## E1 — Test case 1 (Poisson 2D), Linux cluster"),
    row("e1b", Tc1, ORIGIN,  General, ORIGIN_P,        &[S1, B2],     "## E1b — Test case 1, Origin 3800 profile"),
    row("e2",  Tc2, CLUSTER, General, CLUSTER_P,       ALL,           "## E2 — Test case 2 (Poisson 3D), Linux cluster"),
    row("e2b", Tc2, ORIGIN,  General, ORIGIN_P,        &[S2, B2],     "## E2b — Test case 2, Origin 3800 profile"),
    row("e3",  Tc3, CLUSTER, General, CLUSTER_P,       ALL,           "## E3 — Test case 3 (Poisson, unstructured)"),
    row("e4",  Tc4, CLUSTER, General, CLUSTER_P,       ALL,           "## E4 — Test case 4 (heat, M + dt K)"),
    row("e5",  Tc5, CLUSTER, General, CLUSTER_P,       ALL,           "## E5 — Test case 5 (convection-diffusion)"),
    row("e5b", Tc5, ORIGIN,  General, ORIGIN_P,        &[S1, S2, B2], "## E5b — Test case 5, Origin 3800 profile"),
    row("e6",  Tc6, CLUSTER, General, CLUSTER_P,       ALL,           "## E6 — Test case 6 (linear elasticity)"),
    row("e7",  Tc2, CLUSTER, General, &[16],           ALL,           "## E7 — §5.1 effect of the subdomain shape (TC2, P = 16)\n\n### general partitioning"),
    row("e7",  Tc2, CLUSTER, Boxes,   &[16],           ALL,           "### box partitioning"),
    row("e8",  Tc1, CLUSTER, Boxes,   &[4, 8, 16, 32], SCHWARZ,       "## E8 — §5.2 additive Schwarz on TC1 (overlap ≈ 5%, FFT+CG subdomain solves)"),
    row("e8",  Tc1, CLUSTER, General, &[16],           &[S1],         ""),
];

/// Which binary reads the command line: `report` prints every table,
/// `table` the ones named on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    /// `report [flags]`.
    Report,
    /// `table <id>… [flags] [--dump-grid]`.
    Table,
}

impl Bin {
    /// The usage text printed with a command-line error.
    pub fn usage(self) -> String {
        let flags = "[--size tiny|default|full] [--ranks P,P,…] [--trace <dir>]";
        match self {
            Bin::Report => format!("usage: report {flags}"),
            Bin::Table => {
                let mut ids: Vec<&str> = TABLES.iter().map(|t| t.id).collect();
                ids.dedup();
                format!(
                    "usage: table <id>… {flags} [--dump-grid]\nids: {}",
                    ids.join(" ")
                )
            }
        }
    }
}

/// Parsed command line of `report` and `table`.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Grid preset.
    pub size: CaseSize,
    /// When set, replaces the P sweep of every selected table.
    pub ranks: Option<Vec<usize>>,
    /// When set, write one JSONL trace per (cell, rank) into this directory
    /// and print per-phase summaries alongside the tables.
    pub trace_dir: Option<PathBuf>,
    /// The tables to print: every row of [`TABLES`] for `report`, the rows
    /// of the named ids, in the order named, for `table`.
    pub tables: Vec<&'static Table>,
    /// `table --dump-grid`: print the mesh statistics of the selected
    /// tables' cases instead of the tables.
    pub dump_grid: bool,
}

impl Cli {
    /// Parses the arguments after the program name; an error names the
    /// argument at fault.
    pub fn parse(bin: Bin, args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            size: CaseSize::Default,
            ranks: None,
            trace_dir: None,
            tables: Vec::new(),
            dump_grid: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--size" => {
                    let v = value()?;
                    cli.size = CaseSize::parse(&v).ok_or(format!("unknown --size {v}"))?;
                }
                "--ranks" => {
                    let v = value()?;
                    let counts = v.split(',').map(|s| s.parse().ok().filter(|&p| p > 0));
                    let counts = counts.collect::<Option<_>>();
                    cli.ranks = Some(counts.ok_or(format!("--ranks {v}: not positive counts"))?);
                }
                "--trace" => cli.trace_dir = Some(PathBuf::from(value()?)),
                "--dump-grid" if bin == Bin::Table => cli.dump_grid = true,
                id if bin == Bin::Table && TABLES.iter().any(|t| t.id == id) => {
                    cli.tables.extend(TABLES.iter().filter(|t| t.id == id));
                }
                id if bin == Bin::Table && !id.starts_with('-') => {
                    return Err(format!("unknown table {id}"))
                }
                _ => return Err(format!("unknown argument {arg}")),
            }
        }
        match bin {
            Bin::Report => cli.tables = TABLES.iter().collect(),
            Bin::Table if cli.tables.is_empty() => return Err("no table named".to_string()),
            Bin::Table => {}
        }
        Ok(cli)
    }

    /// Parses `std::env::args`; on an error prints it with the usage and
    /// exits with status 2.
    pub fn from_env(bin: Bin) -> Cli {
        Cli::parse(bin, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\n{}", bin.usage());
            std::process::exit(2)
        })
    }

    /// Prints every selected table under its heading, assembling each case
    /// once.
    pub fn print_tables(&self) {
        let mut cases: Vec<AssembledCase> = Vec::new();
        for table in &self.tables {
            let i = cases
                .iter()
                .position(|c| c.id == table.case)
                .unwrap_or_else(|| {
                    cases.push(load_case(table.case, self.size));
                    cases.len() - 1
                });
            if !table.heading.is_empty() {
                println!("\n{}", table.heading);
            }
            print_table(&cases[i], table, self);
        }
    }
}

/// Builds the [`SessionConfig`] of one table cell (the machine profile
/// contributes its partition seed).
fn cell_config(table: &Table, kind: PrecondKind, p: usize) -> SessionConfig {
    let mut cfg = SessionConfig::paper(kind, p);
    cfg.partition_seed = (table.machine)().partition_seed;
    cfg.scheme = table.scheme;
    cfg
}

/// Runs the cell of `table` in column `kind` at `p` ranks, honoring
/// `--trace`: when a trace directory is set the run is recorded and each
/// rank's trace lands in
/// `<dir>/<id>_<scheme>_<case>_<precond>_p<P>_rank<r>.jsonl` (the two E7
/// rows share their id and differ in the scheme).
pub fn run_cell(
    case: &AssembledCase,
    cli: &Cli,
    table: &Table,
    kind: PrecondKind,
    p: usize,
) -> RunResult {
    let cfg = &cell_config(table, kind, p);
    let Some(dir) = &cli.trace_dir else {
        return run_case_traced(case, cfg, false).0;
    };
    let (res, traces) = run_case_traced(case, cfg, true);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[trace] cannot create {}: {e}", dir.display());
        return res;
    }
    let sanitize = |s: &str| {
        s.to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect::<String>()
            .split('_')
            .filter(|p| !p.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    };
    let label = sanitize(cfg.precond.label());
    for tr in &traces {
        let path = dir.join(format!(
            "{}_{}_{}_{}_p{}_rank{}.jsonl",
            table.id,
            table.scheme.key(),
            sanitize(case.id.name()),
            label,
            cfg.n_ranks,
            tr.rank
        ));
        if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
            eprintln!("[trace] write {} failed: {e}", path.display());
        }
    }
    res
}

/// One bench bin's wall-clock-bar arming decision, recorded uniformly in
/// every `BENCH_*.json` as `{"available_cores": …, "armed": …,
/// "reason": "…"}`.
///
/// CI machines come in every width; a bar that compares wall clocks is
/// only meaningful when the cells it compares each had real cores to run
/// on. Bench bins decide once through [`ScalingArm::decide`] and embed
/// [`ScalingArm::to_json`], so every report spells the decision the same
/// way instead of each bin keeping its own copy of the rule.
#[derive(Debug, Clone)]
pub struct ScalingArm {
    /// Hardware parallelism visible to this process.
    pub available_cores: usize,
    /// Cores the widest compared cell needs.
    pub needed_cores: usize,
    /// Human label of that cell (e.g. `"P=2"`).
    pub cell: String,
    /// Whether the wall-clock bar is enforced on this machine.
    pub armed: bool,
    /// The decision, spelled out.
    pub reason: String,
}

impl ScalingArm {
    /// Decides whether a wall-clock bar whose widest cell is `cell`
    /// (needing `needed_cores` real cores) may be enforced here.
    pub fn decide(cell: &str, needed_cores: usize) -> ScalingArm {
        let available_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let armed = available_cores >= needed_cores;
        let cmp = if armed { ">=" } else { "<" };
        ScalingArm {
            available_cores,
            needed_cores,
            cell: cell.to_string(),
            armed,
            reason: format!("{available_cores} cores {cmp} {needed_cores} needed for {cell}"),
        }
    }

    /// The uniform JSON fragment (an object, no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_cores\": {}, \"needed_cores\": {}, \"cell\": \"{}\", \
             \"armed\": {}, \"reason\": \"{}\"}}",
            self.available_cores, self.needed_cores, self.cell, self.armed, self.reason
        )
    }
}

/// The phase columns of the summary tables: label + canonical phase name.
pub const PHASE_COLUMNS: [(&str, &str); 5] = [
    ("setup", parapre_metrics::names::SETUP),
    ("spmv", parapre_metrics::names::SPMV),
    ("halo", parapre_metrics::names::HALO),
    ("precond", parapre_metrics::names::PRECOND_APPLY),
    ("orth", parapre_metrics::names::ORTH),
];

/// Renders the per-phase breakdown of a traced run as one table line
/// (seconds per phase, max across ranks); `None` for untraced runs.
pub fn phase_line(res: &RunResult) -> Option<String> {
    let s = res.phases.as_ref()?;
    let mut line = String::new();
    for (label, phase) in PHASE_COLUMNS {
        if !line.is_empty() {
            line.push_str("  ");
        }
        line.push_str(&format!("{label} {:.3}s", s.phase_seconds(phase)));
    }
    Some(line)
}

/// Prints one table as Markdown: a header line (case, grid, unknowns,
/// machine, partition scheme), then one row per P of the table's sweep (or
/// of `--ranks`) with `#itr`, messages sent over all ranks, host wall and
/// α–β modeled seconds per preconditioner column, then the phase breakdown
/// of a traced run.
fn print_table(case: &AssembledCase, table: &Table, cli: &Cli) {
    let machine = (table.machine)();
    println!(
        "\n*{}* — *grid:* {}; *unknowns:* {}; *machine:* {}; *partition:* {}\n",
        case.id.name(),
        case.grid_desc,
        case.n_unknowns(),
        machine.name,
        table.scheme.key(),
    );
    print!("| P |");
    for k in table.kinds {
        print!(" {} #itr | msgs | wall(s) | model(s) |", k.label());
    }
    println!();
    print!("|---|");
    for _ in table.kinds {
        print!("---|---|---|---|");
    }
    println!();
    let mut phase_rows: Vec<(usize, PrecondKind, String)> = Vec::new();
    for &p in cli.ranks.as_deref().unwrap_or(table.ranks) {
        print!("| {p} |");
        for &kind in table.kinds {
            let res = run_cell(case, cli, table, kind, p);
            if res.converged {
                print!(
                    " {} | {} | {:.3} | {:.3} |",
                    res.iterations,
                    res.total_msgs,
                    res.wall_seconds,
                    res.modeled_seconds(&machine)
                );
            } else {
                print!(" n.c. | - | - | - |");
            }
            if let Some(line) = phase_line(&res) {
                phase_rows.push((p, kind, line));
            }
        }
        println!();
    }
    if !phase_rows.is_empty() {
        println!("\n*Phase breakdown (seconds, max over ranks):*\n");
        println!("| P | preconditioner | phases |");
        println!("|---|---|---|");
        for (p, kind, line) in phase_rows {
            println!("| {p} | {} | {line} |", kind.label());
        }
    }
}

/// Assembles a case, saying so on stderr.
pub fn load_case(id: CaseId, size: CaseSize) -> AssembledCase {
    eprintln!("[parapre] assembling {} at {size:?} size ...", id.name());
    let case = build_case(id, size);
    eprintln!("[parapre] {} unknowns", case.n_unknowns());
    case
}

/// Dumps mesh statistics for the `--dump-grid` figure substitutes (paper
/// Figs. 3 and 5 are grid illustrations).
pub fn dump_grid(case: &AssembledCase) {
    println!("# grid dump: {}", case.grid_desc);
    println!("# nodes: {}", case.n_nodes());
    let adj = &case.node_adjacency;
    let degrees: Vec<usize> = (0..adj.n()).map(|v| adj.neighbors(v).len()).collect();
    let min = degrees.iter().min().copied().unwrap_or(0);
    let max = degrees.iter().max().copied().unwrap_or(0);
    let mean = degrees.iter().sum::<usize>() as f64 / degrees.len().max(1) as f64;
    println!("# vertex degree: min {min}, mean {mean:.2}, max {max}");
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for p in &case.node_coords {
        xmin = xmin.min(p[0]);
        xmax = xmax.max(p[0]);
        ymin = ymin.min(p[1]);
        ymax = ymax.max(p[1]);
    }
    println!("# bounding box: [{xmin:.3}, {xmax:.3}] x [{ymin:.3}, {ymax:.3}]");
}
