//! Committed counts agree with each other, without a solve. The ledger's
//! SchurML-against-Schur 2 lines (TC1 and TC2 at the default preset,
//! `P ∈ {4, 8}`) are the first rows of the committed `schurml` sweep: their
//! `it=` and `conv=` must equal the `BENCH_schurml.json` rows of the same
//! case and `P`. `ledger --check LEDGER.txt` keeps the lines equal to the
//! code; this keeps the sweep's committed rows equal to the lines.

/// `it=` and `conv=` of the committed ledger line starting with `head`.
fn ledger_counts(head: &str) -> (u64, bool) {
    let line = include_str!("../LEDGER.txt")
        .lines()
        .find(|l| l.starts_with(head))
        .unwrap_or_else(|| panic!("no ledger line for {head:?}"));
    (
        field(line, " it=").parse().unwrap(),
        field(line, " conv=").parse().unwrap(),
    )
}

/// The value after `key` in `text`, up to the next space, comma or brace.
fn field<'a>(text: &'a str, key: &str) -> &'a str {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("no {key:?} in {text}"))
        + key.len();
    let rest = &text[at..];
    &rest[..rest.find([' ', ',', '}']).unwrap_or(rest.len())]
}

#[test]
fn schurml_ledger_lines_are_the_committed_sweep_rows() {
    let bench = include_str!("../BENCH_schurml.json");
    let mut compared = Vec::new();
    for (case, name) in [("tc1", "Test Case 1 "), ("tc2", "Test Case 2 ")] {
        let at = bench
            .find(&format!("\"case\": \"{name}"))
            .unwrap_or_else(|| panic!("no {name:?} in BENCH_schurml.json"));
        let rows = &bench[at..at + bench[at..].find(']').expect("rows end")];
        for p in [4, 8] {
            let row = rows
                .lines()
                .find(|l| l.contains(&format!("{{\"ranks\": {p},")))
                .unwrap_or_else(|| panic!("no {case} P={p} row"));
            for kind in ["schurml", "schur2"] {
                let committed: (u64, bool) = (
                    field(row, &format!("\"{kind}_iters\": ")).parse().unwrap(),
                    field(row, &format!("\"{kind}_converged\": "))
                        .parse()
                        .unwrap(),
                );
                let head = format!("{case} default {kind} P={p} ");
                assert_eq!(ledger_counts(&head), committed, "{head}");
                compared.push(committed);
            }
        }
    }
    // SchurML / Schur 2 per cell: 8/23, 9/25, 4/9, 4/9.
    let its: Vec<u64> = compared.iter().map(|&(it, _)| it).collect();
    assert_eq!(its, [8, 23, 9, 25, 4, 9, 4, 9]);
    assert!(compared.iter().all(|&(_, conv)| conv));
}
