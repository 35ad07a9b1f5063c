//! # parapre-bench
//!
//! Harness library shared by the `table_*` binaries (one per table of the
//! paper's §5) and the criterion benches. See DESIGN.md §6 for the full
//! experiment index and EXPERIMENTS.md for paper-vs-measured records.
//!
//! Every binary accepts:
//!
//! ```text
//! --size tiny|default|full     grid preset (default: default)
//! --machine cluster|origin     α–β machine profile (default: cluster)
//! --ranks 2,4,8,16             P sweep (default per table)
//! --scheme general|boxes|rcb   partitioning scheme (default: general)
//! --trace <dir>                record per-rank JSONL traces into <dir>
//!                              and print per-phase summaries
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parapre_core::{build_case, AssembledCase, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre_engine::{run_case_traced, RunResult, SessionConfig};
use parapre_mpisim::MachineModel;
use std::path::PathBuf;

pub mod inspect;

/// Parsed command-line options for a table binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Grid preset.
    pub size: CaseSize,
    /// Machine profile.
    pub machine: MachineModel,
    /// Processor counts to sweep.
    pub ranks: Vec<usize>,
    /// Partitioning scheme.
    pub scheme: PartitionScheme,
    /// When set, write one JSONL trace per (cell, rank) into this directory
    /// and print per-phase summaries alongside the tables.
    pub trace_dir: Option<PathBuf>,
    /// Leftover flags (table-specific).
    pub extra: Vec<String>,
}

impl Cli {
    /// Parses `std::env::args`, with a table-specific default rank sweep.
    pub fn parse(default_ranks: &[usize]) -> Cli {
        let mut cli = Cli {
            size: CaseSize::Default,
            machine: MachineModel::linux_cluster(),
            ranks: default_ranks.to_vec(),
            scheme: PartitionScheme::General,
            trace_dir: None,
            extra: Vec::new(),
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--size" => {
                    i += 1;
                    cli.size = CaseSize::parse(&args[i])
                        .unwrap_or_else(|| panic!("unknown --size {}", args[i]));
                }
                "--machine" => {
                    i += 1;
                    cli.machine = match args[i].as_str() {
                        "cluster" => MachineModel::linux_cluster(),
                        "origin" => MachineModel::origin_3800(),
                        other => panic!("unknown --machine {other}"),
                    };
                }
                "--ranks" => {
                    i += 1;
                    cli.ranks = args[i]
                        .split(',')
                        .map(|s| s.parse().expect("rank count"))
                        .collect();
                }
                "--scheme" => {
                    i += 1;
                    cli.scheme = PartitionScheme::parse(&args[i])
                        .unwrap_or_else(|| panic!("unknown --scheme {}", args[i]));
                }
                "--trace" => {
                    i += 1;
                    cli.trace_dir = Some(PathBuf::from(&args[i]));
                }
                other => cli.extra.push(other.to_string()),
            }
            i += 1;
        }
        cli
    }

    /// True when the given extra flag was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.extra.iter().any(|f| f == flag)
    }
}

/// Builds the [`SessionConfig`] of one table cell under these CLI options
/// (the machine profile contributes its partition seed).
pub fn cell_config(cli: &Cli, kind: PrecondKind, p: usize) -> SessionConfig {
    let mut cfg = SessionConfig::paper(kind, p);
    cfg.partition_seed = cli.machine.partition_seed;
    cfg.scheme = cli.scheme;
    cfg
}

/// Runs one table cell, honoring `--trace`: when a trace directory is set
/// the run is recorded and each rank's trace lands in
/// `<dir>/<case>_<precond>_p<P>_rank<r>.jsonl`.
pub fn run_cell(case: &AssembledCase, cli: &Cli, cfg: &SessionConfig) -> RunResult {
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
            "{}_{}_p{}_rank{}.jsonl",
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

/// Prints the paper-format table for a case as Markdown: a header line
/// (case, grid, unknowns, machine, partition scheme), then one row per P of
/// `cli.ranks` with `#itr`, messages sent over all ranks, host wall and
/// α–β modeled seconds per preconditioner column, then the phase breakdown
/// of a traced run.
pub fn print_table(case: &AssembledCase, cli: &Cli, kinds: &[PrecondKind]) {
    println!(
        "\n*{}* — *grid:* {}; *unknowns:* {}; *machine:* {}; *partition:* {}\n",
        case.id.name(),
        case.grid_desc,
        case.n_unknowns(),
        cli.machine.name,
        cli.scheme.key(),
    );
    print!("| P |");
    for k in kinds {
        print!(" {} #itr | msgs | wall(s) | model(s) |", k.label());
    }
    println!();
    print!("|---|");
    for _ in kinds {
        print!("---|---|---|---|");
    }
    println!();
    let mut phase_rows: Vec<(usize, PrecondKind, String)> = Vec::new();
    for &p in &cli.ranks {
        print!("| {p} |");
        for &kind in kinds {
            let cfg = cell_config(cli, kind, p);
            let res = run_cell(case, cli, &cfg);
            if res.converged {
                print!(
                    " {} | {} | {:.3} | {:.3} |",
                    res.iterations,
                    res.total_msgs,
                    res.wall_seconds,
                    res.modeled_seconds(&cli.machine)
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

/// Convenience: builds the case for a table binary and prints a header.
pub fn load_case(id: CaseId, cli: &Cli) -> AssembledCase {
    eprintln!(
        "[parapre] assembling {} at {:?} size ...",
        id.name(),
        cli.size
    );
    let case = build_case(id, cli.size);
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
