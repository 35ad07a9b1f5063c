//! E15 — SchurML vs Schur 2 iteration growth with `P`.
//!
//! The multilevel rung exists to keep iteration counts flat(ter) as the
//! processor count grows: each level's low-rank correction recovers the
//! coupling the block-diagonal Schur approximation discards, which is
//! exactly the part that grows with the number of interface blocks. This
//! bench sweeps TC1–TC6 over `P ∈ {4, 8, 16, 32}` with both rungs and
//! reports the per-case iteration growth `it(P_max) − it(P_min)`.
//!
//! ```text
//! cargo run --release -p parapre-bench --bin schurml -- \
//!     [--size tiny|default|full] [--ranks 4,8,16,32] \
//!     [--levels 2] [--rank 8] [--out BENCH_schurml.json]
//! ```
//!
//! The sweep enforces the regression bar: SchurML's growth must be
//! strictly smaller than Schur 2's on at least 4 of the 6 cases. Its
//! TC1–TC2 rows at `P ∈ {4, 8}` and the default size are `LEDGER.txt`
//! lines (`tc1 default schurml P=4`, …), checked by `ledger --check`.

use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_engine::{run_case, RunResult, SessionConfig};

const LEVELS: usize = PrecondKind::SCHURML_DEFAULT_LEVELS;
const RANK: usize = PrecondKind::SCHURML_DEFAULT_RANK;

struct Row {
    ranks: usize,
    schurml: RunResult,
    schur2: RunResult,
}

struct CaseOut {
    name: &'static str,
    unknowns: usize,
    rows: Vec<Row>,
}

impl CaseOut {
    /// Iteration growth `it(P_max) − it(P_min)` of one rung over the sweep,
    /// `None` unless every cell of that rung converged.
    fn growth(&self, pick: impl Fn(&Row) -> &RunResult) -> Option<i64> {
        if self.rows.iter().any(|r| !pick(r).converged) {
            return None;
        }
        let first = pick(self.rows.first()?).iterations as i64;
        let last = pick(self.rows.last()?).iterations as i64;
        Some(last - first)
    }

    /// Strictly-flatter verdict; `None` when either rung failed a cell.
    fn schurml_flatter(&self) -> Option<bool> {
        Some(self.growth(|r| &r.schurml)? < self.growth(|r| &r.schur2)?)
    }
}

fn fmt_growth(g: Option<i64>) -> String {
    g.map_or("null".into(), |v| v.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut size = CaseSize::Default;
    let mut ranks: Option<Vec<usize>> = None;
    let mut out_path = "BENCH_schurml.json".to_string();
    let mut levels = LEVELS;
    let mut rank = RANK;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--levels" => {
                i += 1;
                levels = args[i].parse().expect("level count");
            }
            "--rank" => {
                i += 1;
                rank = args[i].parse().expect("correction rank");
            }
            "--size" => {
                i += 1;
                size = CaseSize::parse(&args[i]).expect("size preset");
            }
            "--ranks" => {
                i += 1;
                ranks = Some(
                    args[i]
                        .split(',')
                        .map(|s| s.parse().expect("rank count"))
                        .collect(),
                );
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let ranks = ranks.unwrap_or(vec![4, 8, 16, 32]);
    let schurml = PrecondKind::SchurML { levels, rank };
    assert!(
        rank <= parapre_krylov::MAX_CORRECTION_RANK,
        "correction rank exceeds the cap"
    );
    eprintln!(
        "schurml bench: {} cases, P = {ranks:?}, size {size:?}, levels {levels}, rank {rank}",
        CaseId::ALL.len(),
    );

    let mut outs: Vec<CaseOut> = Vec::new();
    for id in CaseId::ALL {
        let case = build_case(id, size);
        let mut rows = Vec::new();
        for &p in &ranks {
            let ml = run_case(&case, &SessionConfig::paper(schurml, p));
            let s2 = run_case(&case, &SessionConfig::paper(PrecondKind::Schur2, p));
            eprintln!(
                "{} P={p}: SchurML {} it ({}), Schur2 {} it ({})",
                id.name(),
                ml.iterations,
                if ml.converged { "conv" } else { "n.c." },
                s2.iterations,
                if s2.converged { "conv" } else { "n.c." },
            );
            rows.push(Row {
                ranks: p,
                schurml: ml,
                schur2: s2,
            });
        }
        outs.push(CaseOut {
            name: id.name(),
            unknowns: case.n_unknowns(),
            rows,
        });
    }

    let flatter = outs
        .iter()
        .filter(|c| c.schurml_flatter() == Some(true))
        .count();
    for c in &outs {
        eprintln!(
            "{}: SchurML growth {}, Schur2 growth {}, flatter: {:?}",
            c.name,
            fmt_growth(c.growth(|r| &r.schurml)),
            fmt_growth(c.growth(|r| &r.schur2)),
            c.schurml_flatter(),
        );
    }
    eprintln!("SchurML flatter on {flatter}/{} cases", outs.len());

    let case_json: String = outs
        .iter()
        .map(|c| {
            let rows: String = c
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "      {{\"ranks\": {}, \"schurml_iters\": {}, \"schurml_converged\": {}, \
                         \"schurml_setup_secs\": {:.6}, \"schur2_iters\": {}, \
                         \"schur2_converged\": {}, \"schur2_setup_secs\": {:.6}}}",
                        r.ranks,
                        r.schurml.iterations,
                        r.schurml.converged,
                        r.schurml.setup_seconds,
                        r.schur2.iterations,
                        r.schur2.converged,
                        r.schur2.setup_seconds,
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "    {{\"case\": \"{}\", \"unknowns\": {}, \"schurml_growth\": {}, \
                 \"schur2_growth\": {}, \"schurml_flatter\": {}, \"rows\": [\n{rows}\n    ]}}",
                c.name,
                c.unknowns,
                fmt_growth(c.growth(|r| &r.schurml)),
                fmt_growth(c.growth(|r| &r.schur2)),
                c.schurml_flatter().map_or("null".into(), |b| b.to_string()),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"config\": {{\"size\": \"{size:?}\", \"ranks\": {ranks:?}, ",
            "\"levels\": {levels}, \"rank\": {rank}}},\n",
            "  \"cases\": [\n{cases}\n  ],\n",
            "  \"schurml_flatter_cases\": {flatter},\n",
            "  \"total_cases\": {total}\n",
            "}}\n"
        ),
        size = size,
        ranks = ranks,
        levels = levels,
        rank = rank,
        cases = case_json,
        flatter = flatter,
        total = outs.len(),
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    // Regression bar: the multilevel rung must actually buy flatness —
    // strictly smaller iteration growth on ≥ 4 of 6 cases.
    let needed = 4;
    if flatter < needed {
        eprintln!(
            "FAIL: SchurML flatter on only {flatter}/{} cases (need {needed})",
            outs.len()
        );
        std::process::exit(2);
    }
}
