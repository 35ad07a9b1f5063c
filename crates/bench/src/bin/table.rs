//! The named tables of the paper's §5, as `report` prints them.
//!
//! ```text
//! table <id>… [--size tiny|default|full] [--ranks P,P,…] [--trace <dir>] [--dump-grid]
//! ```
//!
//! The ids are those of `parapre_bench::TABLES` (`e1`, `e1b`, … `e8`); an
//! id shared by several rows (`e7`, `e8`) prints them all. `--dump-grid`
//! prints the mesh statistics of the named tables' cases instead, standing
//! in for Figs. 3 (`e3`) and 5 (`e6`).

use parapre_bench::{dump_grid, load_case, Bin, Cli};

fn main() {
    let cli = Cli::from_env(Bin::Table);
    if !cli.dump_grid {
        cli.print_tables();
        return;
    }
    let mut cases: Vec<_> = cli.tables.iter().map(|t| t.case).collect();
    cases.dedup();
    for id in cases {
        dump_grid(&load_case(id, cli.size));
    }
}
