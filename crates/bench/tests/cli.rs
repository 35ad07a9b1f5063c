//! The command line of `report` and `table`: a bad or missing value, an
//! unknown flag and an unknown table id are errors naming the argument, not
//! panics; an id selects every row of `TABLES` that carries it.

use parapre_bench::{Bin, Cli, TABLES};

fn parse(bin: Bin, line: &str) -> Result<Cli, String> {
    Cli::parse(bin, line.split_whitespace().map(String::from))
}

#[test]
fn a_flag_without_its_value_is_refused() {
    let err = parse(Bin::Table, "e1 --size tiny --ranks").unwrap_err();
    assert_eq!(err, "--ranks needs a value");
    assert_eq!(
        parse(Bin::Report, "--trace").unwrap_err(),
        "--trace needs a value"
    );
}

#[test]
fn a_bad_rank_count_is_refused() {
    for ranks in ["2,x", "0", "2,,4"] {
        let err = parse(Bin::Report, &format!("--ranks {ranks}")).unwrap_err();
        assert_eq!(err, format!("--ranks {ranks}: not positive counts"));
    }
    let cli = parse(Bin::Report, "--ranks 2,4").unwrap();
    assert_eq!(cli.ranks, Some(vec![2, 4]));
}

#[test]
fn an_unknown_table_is_refused() {
    assert_eq!(parse(Bin::Table, "e1 e9").unwrap_err(), "unknown table e9");
    assert_eq!(
        parse(Bin::Table, "--size tiny").unwrap_err(),
        "no table named"
    );
    assert_eq!(parse(Bin::Report, "e1").unwrap_err(), "unknown argument e1");
    assert_eq!(
        parse(Bin::Report, "--dump-grid").unwrap_err(),
        "unknown argument --dump-grid"
    );
}

#[test]
fn an_id_selects_all_its_rows_in_the_order_named() {
    let cli = parse(Bin::Table, "e8 e2b --dump-grid").unwrap();
    let ids: Vec<&str> = cli.tables.iter().map(|t| t.id).collect();
    assert_eq!(ids, ["e8", "e8", "e2b"]);
    assert!(cli.dump_grid);
    assert_eq!(parse(Bin::Report, "").unwrap().tables.len(), TABLES.len());
}
