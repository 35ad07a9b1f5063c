//! `parse_matrix_market` and `read_vector` against the line-by-line parsers
//! they replaced, which are kept below verbatim as the reference.
//!
//! For every input both must give the same `Result` shape: `Ok` with equal
//! shape, `row_ptr`, `col_idx`, value bits and `fingerprints()`, or `Err`
//! on both. Three differences are intended, and [`check_matrix`] /
//! [`check_vector`] state them:
//!
//! 1. a matrix value that is not finite — as written, or as the sum of
//!    duplicates — is an error, where the reference stored it (vectors are
//!    unchanged: the engine rejects a non-finite right-hand side itself);
//! 2. tokens are separated by ASCII whitespace only, where the reference
//!    also trimmed other Unicode whitespace (`\x0b`, U+0085, U+00A0, …) off
//!    the ends of a line. A body holding such a character is parsed (it
//!    must not panic) but not compared;
//! 3. a banner is read word by word: exactly `%%MatrixMarket matrix
//!    coordinate real general|symmetric` for a matrix and `%%MatrixMarket
//!    matrix array real general` for a vector (in any case), where the
//!    reference looked for substrings — so it read `skew-symmetric` as
//!    `symmetric`, and a `vector` banner passed its `matrix` check. Any
//!    other banner is an error naming the word.
//!
//! Inputs: the tiny TC1–TC6 matrices as `write_matrix_market` renders them
//! and as the benchmark renders its `put` bodies (`{:e}`); a hand corpus;
//! random small matrices and vectors with random separators and number
//! formats; and single-byte insertions, deletions and bit flips of those.
//!
//! A body longer than `SPLIT_BYTES` is read in one chunk per core. The
//! four matrices the benchmark uploads, and bodies built so that a cut
//! falls on a comment, a blank line, a CRLF line or between two halves of
//! a duplicate, must parse bit for bit alike — or fail alike — whatever
//! the number of chunks.

use parapre::core::{build_case, build_case_sized, CaseId, CaseSize};
use parapre::sparse::io::{
    parse_matrix_market, parse_matrix_market_chunks, read_matrix_market, read_vector,
    write_matrix_market, SPLIT_BYTES,
};
use parapre::sparse::{Csr, Error};
use proptest::prelude::*;

/// The parsers as they stood before the byte cursor.
mod reference {
    use parapre::sparse::{Coo, Csr, Error, Result};
    use std::io::BufRead;

    /// Parses a Matrix Market stream into CSR.
    ///
    /// The size line is a claim the body has to back: nothing is sized from it
    /// before the body is read. Storage grows with the entries actually read,
    /// an entry count other than the one declared is an error (the format
    /// requires them to agree), and so is a row or column count above the
    /// stored entries — such a matrix has an empty row or column, and a 95-byte
    /// body could otherwise ask for terabytes.
    pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr> {
        let mut lines = reader.lines();
        let header = lines
            .next()
            .ok_or(Error::InvalidStructure("empty MatrixMarket stream".into()))?
            .map_err(|_| Error::InvalidStructure("unreadable header".into()))?;
        let h = header.to_ascii_lowercase();
        if !h.starts_with("%%matrixmarket") {
            return Err(Error::InvalidStructure(
                "missing %%MatrixMarket header".into(),
            ));
        }
        if !h.contains("matrix") || !h.contains("coordinate") || !h.contains("real") {
            return Err(Error::InvalidStructure(
                "only `matrix coordinate real` supported".into(),
            ));
        }
        let symmetric = h.contains("symmetric");
        if !symmetric && !h.contains("general") {
            return Err(Error::InvalidStructure(
                "only general/symmetric qualifiers supported".into(),
            ));
        }

        let mut declared: Option<(usize, usize, usize)> = None;
        let mut coo: Option<Coo> = None;
        let mut entries = 0usize;
        for line in lines {
            let line = line.map_err(|_| Error::InvalidStructure("unreadable line".into()))?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_ascii_whitespace();
            if declared.is_none() {
                let m: usize = parse(it.next())?;
                let n: usize = parse(it.next())?;
                let nnz: usize = parse(it.next())?;
                declared = Some((m, n, nnz));
                coo = Some(Coo::new(m, n));
                continue;
            }
            let coo = coo.as_mut().expect("size line parsed first");
            let i: usize = parse(it.next())?;
            let j: usize = parse(it.next())?;
            let v: f64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(Error::InvalidStructure("bad value field".into()))?;
            if i == 0 || j == 0 {
                return Err(Error::InvalidStructure(
                    "MatrixMarket indices are 1-based".into(),
                ));
            }
            coo.try_push(i - 1, j - 1, v)?;
            if symmetric && i != j {
                coo.try_push(j - 1, i - 1, v)?;
            }
            entries += 1;
        }
        let (Some((m, n, nnz)), Some(coo)) = (declared, coo) else {
            return Err(Error::InvalidStructure("missing size line".into()));
        };
        if entries != nnz {
            return Err(Error::InvalidStructure(
                format!("the size line declares {nnz} entries, the body has {entries}").into(),
            ));
        }
        let stored = coo.n_triplets();
        if m.max(n) > stored {
            return Err(Error::InvalidStructure(
                format!(
                    "a {m} x {n} matrix with {stored} stored entries has an empty row or column"
                )
                .into(),
            ));
        }
        Ok(coo.to_csr())
    }

    fn parse<T: std::str::FromStr>(tok: Option<&str>) -> Result<T> {
        tok.and_then(|s| s.parse().ok())
            .ok_or(Error::InvalidStructure(
                "malformed MatrixMarket line".into(),
            ))
    }

    /// Parses a dense vector: either a Matrix Market `array real` stream (one
    /// column) or a plain text stream with one number per line (`%`/`#`
    /// comments and blank lines skipped) — the two formats right-hand sides
    /// ship in alongside `.mtx` matrices.
    pub fn read_vector<R: BufRead>(reader: R) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        let mut mm_rows: Option<usize> = None;
        let mut first_content = true;
        for (k, line) in reader.lines().enumerate() {
            let line = line.map_err(|_| Error::InvalidStructure("unreadable line".into()))?;
            let t = line.trim();
            if k == 0 && t.to_ascii_lowercase().starts_with("%%matrixmarket") {
                let h = t.to_ascii_lowercase();
                if !h.contains("array") || !h.contains("real") {
                    return Err(Error::InvalidStructure(
                        "only `matrix array real` vectors supported".into(),
                    ));
                }
                mm_rows = Some(0); // dims line still to come
                continue;
            }
            if t.is_empty() || t.starts_with('%') || t.starts_with('#') {
                continue;
            }
            if mm_rows == Some(0) && first_content {
                // MatrixMarket dims line: "m n" with n == 1.
                let mut it = t.split_ascii_whitespace();
                let m: usize = parse(it.next())?;
                let n: usize = parse(it.next())?;
                if n != 1 {
                    return Err(Error::InvalidStructure(
                        "vector file must have one column".into(),
                    ));
                }
                mm_rows = Some(m);
                first_content = false;
                continue;
            }
            first_content = false;
            for tok in t.split_ascii_whitespace() {
                let v: f64 = tok
                    .parse()
                    .map_err(|_| Error::InvalidStructure("bad vector value".into()))?;
                out.push(v);
            }
        }
        if let Some(m) = mm_rows {
            if out.len() != m {
                return Err(Error::InvalidStructure(
                    "vector length != declared size".into(),
                ));
            }
        }
        if out.is_empty() {
            return Err(Error::InvalidStructure("empty vector stream".into()));
        }
        Ok(out)
    }
}

/// Whether `body` holds whitespace the two parsers treat differently by
/// design (difference 2).
fn unicode_separated(body: &[u8]) -> bool {
    std::str::from_utf8(body).is_ok_and(|s| {
        s.chars()
            .any(|c| c.is_whitespace() && !c.is_ascii_whitespace())
    })
}

/// Whether the first line of `body` is, word by word and in any case,
/// `%%MatrixMarket matrix <kind> real <last>` for one of `lasts` — the one
/// banner shape the parser reads (difference 3). Leading whitespace is
/// allowed here; the matrix parser rejects it on its own, as the reference
/// did.
fn banner_read(body: &[u8], kind: &str, lasts: &[&str]) -> bool {
    let first = body.split(|&b| b == b'\n').next().unwrap_or_default();
    let words: Vec<String> = String::from_utf8_lossy(first)
        .to_ascii_lowercase()
        .split_ascii_whitespace()
        .map(String::from)
        .collect();
    words.len() == 5
        && words[..4] == ["%%matrixmarket", "matrix", kind, "real"]
        && lasts.contains(&words[4].as_str())
}

fn shown(body: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(body))
}

/// Difference 3: a body whose banner the parser does not read is an error,
/// and one the reference accepted (`reference_ok`) names the banner.
fn banner_rejected<T: std::fmt::Debug>(body: &[u8], result: &Result<T, Error>, reference_ok: bool) {
    match result {
        Err(Error::InvalidStructure(msg))
            if !reference_ok || msg.starts_with("MatrixMarket banner ") => {}
        other => panic!("{}: an unread banner came back {other:?}", shown(body)),
    }
}

/// Equal results: shape, pattern and value bits (`==` on `f64` equates
/// `0.0` with `-0.0`), or the same error.
fn same(a: &Result<Csr, Error>, b: &Result<Csr, Error>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            (a.n_rows(), a.n_cols(), a.row_ptr(), a.col_idx())
                == (b.n_rows(), b.n_cols(), b.row_ptr(), b.col_idx())
                && a.vals()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(b.vals().iter().map(|v| v.to_bits()))
        }
        (a, b) => a == b,
    }
}

/// Compares the parsers on one matrix body; returns whether the new one
/// accepted it.
fn check_matrix(body: &[u8]) -> bool {
    let new = parse_matrix_market(body);
    assert_eq!(new, read_matrix_market(body), "{}", shown(body));
    for chunks in [1, 2, 3, 5] {
        let got = parse_matrix_market_chunks(body, chunks);
        assert!(same(&got, &new), "{} in {chunks} chunks", shown(body));
    }
    if unicode_separated(body) {
        return new.is_ok();
    }
    // Difference 3.
    if !banner_read(body, "coordinate", &["general", "symmetric"]) {
        banner_rejected(body, &new, reference::read_matrix_market(body).is_ok());
        return false;
    }
    match (reference::read_matrix_market(body), &new) {
        // Difference 1.
        (Ok(want), _) if want.vals().iter().any(|v| !v.is_finite()) => match &new {
            Err(Error::InvalidStructure(msg))
                if msg.contains("is not finite") || msg.contains("sum to") => {}
            other => panic!("{}: non-finite {want:?} came back {other:?}", shown(body)),
        },
        (Ok(want), Ok(got)) => {
            let same = (want.n_rows(), want.n_cols(), want.row_ptr(), want.col_idx())
                == (got.n_rows(), got.n_cols(), got.row_ptr(), got.col_idx())
                && want
                    .vals()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(got.vals().iter().map(|v| v.to_bits()))
                && want.fingerprints() == got.fingerprints();
            assert!(same, "{}: reference {want:?}, parser {got:?}", shown(body));
        }
        (Err(_), Err(_)) => {}
        (want, got) => panic!("{}: reference {want:?}, parser {got:?}", shown(body)),
    }
    new.is_ok()
}

/// Compares the parsers on one vector body.
fn check_vector(body: &[u8]) {
    let new = read_vector(body);
    if unicode_separated(body) {
        return;
    }
    // Difference 3, for a body whose first line opens a banner.
    let first = body.split(|&b| b == b'\n').next().unwrap_or_default();
    let opens = String::from_utf8_lossy(first)
        .trim_start()
        .to_ascii_lowercase()
        .starts_with("%%matrixmarket");
    if opens && !banner_read(body, "array", &["general"]) {
        banner_rejected(body, &new, reference::read_vector(body).is_ok());
        return;
    }
    match (reference::read_vector(body), new) {
        (Ok(want), Ok(got)) => assert!(
            want.iter()
                .map(|v| v.to_bits())
                .eq(got.iter().map(|v| v.to_bits())),
            "{}: reference {want:?}, parser {got:?}",
            shown(body)
        ),
        (Err(_), Err(_)) => {}
        (want, got) => panic!("{}: reference {want:?}, parser {got:?}", shown(body)),
    }
}

const HEAD: &str = "%%MatrixMarket matrix coordinate real general\n";
const SYM: &str = "%%MatrixMarket matrix coordinate real symmetric\n";

fn tiny_matrices() -> Vec<Csr> {
    CaseId::ALL
        .into_iter()
        .map(|id| build_case(id, CaseSize::Tiny).sys.a)
        .collect()
}

/// `a` as the benchmark sends it: off-diagonal entries row by row, then the
/// diagonal, every value `{:e}`.
fn benchmark_body(a: &Csr) -> Vec<u8> {
    let mut text = format!("{HEAD}{} {} {}\n", a.n_rows(), a.n_cols(), a.nnz());
    let mut diag = String::new();
    for (i, j, v) in a.iter() {
        let line = format!("{} {} {v:e}\n", i + 1, j + 1);
        if i == j {
            diag.push_str(&line);
        } else {
            text.push_str(&line);
        }
    }
    text.push_str(&diag);
    text.into_bytes()
}

#[test]
fn the_case_matrices_parse_bit_for_bit() {
    for a in tiny_matrices() {
        let mut written = Vec::new();
        write_matrix_market(&a, &mut written).unwrap();
        for body in [written, benchmark_body(&a)] {
            assert!(check_matrix(&body), "{}", shown(&body[..80]));
            let got = parse_matrix_market(&body).unwrap();
            assert_eq!(got.fingerprints(), a.fingerprints());
        }
        let rhs: String = a
            .mul_vec(&vec![1.0; a.n_rows()])
            .iter()
            .map(|v| format!("{v:e}\n"))
            .collect();
        check_vector(rhs.as_bytes());
    }
}

/// The four matrices the benchmark uploads — TC1 201², TC2 25³, TC3 15,000
/// points, TC6 61² — as it renders them.
#[test]
fn the_benchmark_bodies_parse_alike_in_any_number_of_chunks() {
    for (id, extent) in [
        (CaseId::Tc1, 201),
        (CaseId::Tc2, 25),
        (CaseId::Tc3, 15_000),
        (CaseId::Tc6, 61),
    ] {
        let a = &build_case_sized(id, extent).sys.a;
        let body = benchmark_body(a);
        assert!(body.len() > SPLIT_BYTES, "{} bytes", body.len());
        let one = parse_matrix_market_chunks(&body, 1);
        assert_eq!(one.as_ref().map(Csr::fingerprints), Ok(a.fingerprints()));
        assert_eq!(one.as_ref().map(Csr::fingerprint), Ok(a.fingerprint()));
        assert!(same(&parse_matrix_market(&body), &one));
        for chunks in [2, 3] {
            assert!(
                same(&parse_matrix_market_chunks(&body, chunks), &one),
                "{chunks}"
            );
        }
    }
}

/// A body longer than `SPLIT_BYTES` whose cut in two chunks falls between
/// `before` and `after` (`cut`, lines of equal length holding `entries`
/// entry lines): `banner`, the size line of an `n x n` matrix, `lines`
/// (entry lines only) repeated until they pass half the split size,
/// `before`, `after`, and the repeated lines again. The cut is the first
/// line start at or after half the bytes after the size line, which by
/// the symmetry is where `after` starts.
fn cut_between(banner: &str, n: usize, lines: &str, cut: [&str; 2], entries: usize) -> String {
    let [before, after] = cut;
    assert_eq!(before.len(), after.len());
    let copies = SPLIT_BYTES / 2 / lines.len() + 1;
    let side = lines.repeat(copies);
    let nnz = 2 * copies * lines.lines().count() + entries;
    format!("{banner}{n} {n} {nnz}\n{side}{before}{after}{side}")
}

/// TC2 tiny's order and entry lines as the benchmark renders them, and
/// the lines of its lower triangle (for a `symmetric` banner).
fn tc2_tiny_lines() -> (usize, String, String) {
    let a = build_case(CaseId::Tc2, CaseSize::Tiny).sys.a;
    let all = String::from_utf8(benchmark_body(&a)).unwrap();
    let general = all.lines().skip(2).map(|l| format!("{l}\n")).collect();
    let lower = a
        .iter()
        .filter(|&(i, j, _)| i >= j)
        .map(|(i, j, v)| format!("{} {} {v:e}\n", i + 1, j + 1))
        .collect();
    (a.n_rows(), general, lower)
}

#[test]
fn a_cut_on_a_comment_a_blank_a_crlf_or_a_duplicate_changes_nothing() {
    let (n, general, lower) = tc2_tiny_lines();
    let bodies = [
        cut_between(
            HEAD,
            n,
            &general,
            ["% before the cut\n", "% after the cut.\n"],
            0,
        ),
        cut_between(HEAD, n, &general, ["\n", "\n"], 0),
        cut_between(HEAD, n, &general, [" \t \n", "\n\n\n\n"], 0),
        cut_between(HEAD, n, &general, ["1 1 0.5\r\n", "2 2 0.5\r\n"], 2),
        // One entry on both sides of the cut, whose sum depends on the
        // order its summands meet in: `check_matrix` compares it with the
        // reference, which pushes every line in body order into one buffer.
        cut_between(HEAD, n, &general, ["7 7 1e16\n", "7 7 0.3\n\n"], 2),
        cut_between(SYM, n, &lower, ["9 3 -0.7\n", "% mirror\n"], 1),
    ];
    // `check_matrix` parses each in 1, 2, 3 and 5 chunks and compares them
    // with each other and with the reference.
    for body in &bodies {
        assert!(body.len() > SPLIT_BYTES);
        assert!(
            check_matrix(body.as_bytes()),
            "{}",
            shown(&body.as_bytes()[..80])
        );
    }
}

#[test]
fn an_error_in_a_later_chunk_is_the_one_chunk_error() {
    let (n, general, _) = tc2_tiny_lines();
    let body = cut_between(HEAD, n, &general, ["", ""], 0);
    let lines: Vec<&str> = body.lines().collect();
    let last = lines.len() - 1;
    let (quarter, three_quarters) = (last / 4, 3 * last / 4);
    // Each body is `lines` with some replaced (0-based index, new line),
    // and the error that names the first bad line in body order.
    let not_finite = |k: usize, i: usize, j: usize| {
        Error::InvalidStructure(
            format!("line {}: entry ({i}, {j}) is not finite (NaN)", k + 1).into(),
        )
    };
    let malformed = Error::InvalidStructure("malformed MatrixMarket line".into());
    let bad_value = Error::InvalidStructure("bad value field".into());
    let nan_last = format!("{n} {n} NaN");
    let nan_late = format!("{n} 1 NaN");
    let past = format!("{n} {} 1.0", n + 1);
    let cases: Vec<(Vec<(usize, &str)>, Error)> = vec![
        (vec![(last, &nan_last)], not_finite(last, n, n)),
        (vec![(last, "1 1 x")], bad_value.clone()),
        (vec![(quarter, "1 x 1"), (last, &nan_last)], malformed),
        (
            vec![(three_quarters, &nan_late), (last, "1 1 x")],
            not_finite(three_quarters, n, 1),
        ),
        (
            vec![(last, &past)],
            Error::IndexOutOfBounds { index: n, bound: n },
        ),
        (
            vec![(three_quarters, "% a comment"), (last, "1 1")],
            bad_value,
        ),
    ];
    for (edits, want) in cases {
        let mut edited = lines.clone();
        for &(k, line) in &edits {
            edited[k] = line;
        }
        let bad = edited.join("\n") + "\n";
        assert!(bad.len() > SPLIT_BYTES);
        let one = parse_matrix_market_chunks(bad.as_bytes(), 1);
        assert_eq!(one, Err(want), "{edits:?}");
        for chunks in [2, 3, 4, 8] {
            let got = parse_matrix_market_chunks(bad.as_bytes(), chunks);
            assert_eq!(got, one, "{edits:?} in {chunks} chunks");
        }
        assert_eq!(parse_matrix_market(bad.as_bytes()), one, "{edits:?}");
    }
}

#[test]
fn the_hand_corpus_agrees() {
    // Each body, and whether the new parser accepts it.
    let matrices: Vec<(String, bool)> = vec![
        (String::new(), false),
        ("\n".into(), false),
        (HEAD.into(), false),
        (HEAD.trim_end().into(), false),
        (format!("{HEAD}% only comments\n\n%\n"), false),
        (format!("{HEAD}% c\n\n2 2 2\n% c\n1 1 1\n\n2 2 2\n"), true),
        (format!("{HEAD}2 2 2\r\n1 1 1.5\r\n2 2 2.5\r\n"), true),
        (format!("{HEAD}2 2 2\r1 1 1.5\r2 2 2.5\r"), false),
        (
            format!("{HEAD}\t2\x0c2\t2\n\x0c1\t1\t1.5\x0c\n  2  2  2.5  \n"),
            true,
        ),
        (format!("{HEAD}+2 +2 +2\n+1 +1 +1.5\n2 2 +2.5e+0\n"), true),
        (
            format!("{HEAD}2 2 2 7 x\n1 1 1.5 junk 9\n2 2 2.5 %\n"),
            true,
        ),
        (format!("{HEAD}002 02 2\n01 001 1.5\n2 2 2.5"), true),
        (format!("{SYM}3 3 4\n1 1 2\n2 1 -1\n2 2 2\n3 3 1\n"), true),
        (format!("{SYM}3 3 4\n1 1 2\n1 3 -1\n3 3 1\n2 2 1\n"), true),
        (
            "%%MatrixMarket Matrix Coordinate Real General\n1 1 1\n1 1 3\n".into(),
            true,
        ),
        (format!("{HEAD}2 2 4\n1 1 1\n1 1 2\n2 2 1\n1 1 -3\n"), true),
        (format!("{HEAD}2 2 2\n0 1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 0 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n3 1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 3 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 3\n1 1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 1\n1 1 1\n2 2 1\n"), false),
        (
            format!("{HEAD}2 2 100000000000000\n1 1 1.0\n2 2 1.0\n"),
            false,
        ),
        (
            format!("{HEAD}100000000000000 100000000000000 2\n1 1 1.0\n2 2 1.0\n"),
            false,
        ),
        (
            format!("{HEAD}4000000000 4000000000 2\n1 1 1.0\n2 2 1.0\n"),
            false,
        ),
        (
            format!("{HEAD}99999999999999999999 2 2\n1 1 1\n2 2 1\n"),
            false,
        ),
        (
            format!("{HEAD}2 2 2\n18446744073709551616 1 1\n2 2 1\n"),
            false,
        ),
        (
            format!("{HEAD}2 2 2\n18446744073709551617 1 1\n2 2 1\n"),
            false,
        ),
        (
            format!("{HEAD}18446744073709551618 2 2\n1 1 1\n2 2 1\n"),
            false,
        ),
        (format!("{HEAD}-2 2 2\n1 1 1\n2 2 1\n"), false),
        (format!("{HEAD}0 0 0\n"), true),
        (format!("{HEAD}2 2\n1 1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1 x\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1.0 1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1 NaN\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1 inf\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1 -Infinity\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1 1e999\n2 2 1\n"), false),
        (format!("{HEAD}2 2 3\n1 1 1e308\n1 1 1e308\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1 -0.0\n2 2 0\n"), true),
        (
            " %%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n".into(),
            false,
        ),
        (
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n".into(),
            false,
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n".into(),
            false,
        ),
        (
            "%%MatrixMarket matrix array real general\n1 1\n1\n".into(),
            false,
        ),
        (
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n".into(),
            false,
        ),
        // Difference 3: the reference accepts all five, the first with the
        // wrong sign on its mirrored entry.
        (
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n".into(),
            false,
        ),
        (
            "%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1\n".into(),
            false,
        ),
        (
            "%%MatrixMarket matrix coordinate real general symmetric\n1 1 1\n1 1 1\n".into(),
            false,
        ),
        (
            "%%MatrixMarketmatrix coordinate real general\n1 1 1\n1 1 1\n".into(),
            false,
        ),
        (
            "%%MatrixMarket matrix coordinate realgeneral\n1 1 1\n1 1 1\n".into(),
            false,
        ),
        (
            "%%MatrixMarket matrix coordinate real general\r\n1 1 1\n1 1 1\n".into(),
            true,
        ),
        // Difference 2: the reference accepts the first four.
        (format!("{HEAD}2 2 2\n1 1 1\x0b\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n\x0b\n1 1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1 1 1\u{a0}\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n\u{85}% c\n1 1 1\n2 2 1\n"), false),
        (format!("{HEAD}2 2 2\n1\u{a0}1 1\n2 2 1\n"), false),
    ];
    for (body, accepted) in &matrices {
        assert_eq!(check_matrix(body.as_bytes()), *accepted, "{body:?}");
    }
    // Difference 1 names the line and the entry, or the summed duplicates.
    for (body, names) in [
        (
            format!("{HEAD}2 2 2\n1 1 NaN\n2 2 1\n"),
            "line 3: entry (1, 1) is not finite (NaN)",
        ),
        (
            format!("{HEAD}% c\n2 2 2\n2 2 1\n1 2 -inf\n"),
            "line 5: entry (1, 2) is not finite (-inf)",
        ),
        (
            format!("{HEAD}2 2 3\n1 1 1e308\n1 1 1e308\n2 2 1\n"),
            "the duplicates of entry (1, 1) sum to inf",
        ),
    ] {
        let want = Err(Error::InvalidStructure(names.into()));
        assert_eq!(parse_matrix_market(body.as_bytes()), want);
    }
    for body in [
        &b"%%MatrixMarket\xff matrix coordinate real general\n1 1 1\n1 1 1\n"[..],
        b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n",
        b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n% \xc3\n",
    ] {
        assert!(!check_matrix(body));
    }

    for body in [
        "",
        "\n\n",
        "# rhs\n1.5\n-2.0\n\n3.25\n",
        "% rhs\n1 2\n3\t4 \r\n+5e0\n",
        "1.5\r\n2.5\r\n",
        "  %%MatrixMarket matrix array real general\n% c\n2 1\n1\n2\n",
        "%%MatrixMarket matrix array real general\n% rhs\n3 1\n1.0\n2.0\n3.0\n",
        "%%MatrixMarket matrix array real general\n3 1\n1.0\n",
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
        "%%MatrixMarket matrix array real general\n0 1\n",
        "%%MatrixMarket matrix array real general\n2\n1\n2\n",
        "%%MatrixMarket matrix array real general\n2 1 9\n1\n2\n",
        "%%MatrixMarket matrix array complex general\n1 1\n1\n",
        "%%MatrixMarket matrix array real\n1 1\n1\n",
        "%%MatrixMarket vector array real general\n1 1\n1\n",
        "%%MatrixMarket matrix array real symmetric\n1 1\n1\n",
        "%%MatrixMarketx matrix array real general\n1 1\n1\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n",
        "1\n%%MatrixMarket matrix array real general\n2\n",
        "1\nx\n",
        "nan\ninf\n-0.0\n",
        "1\x0b\n2\n",
    ] {
        check_vector(body.as_bytes());
    }
    check_vector(b"1\n\xff\n");
}

/// A small deterministic generator for the random bodies.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// A value in one of the notations a file may use.
    fn value(&mut self) -> String {
        let v = (self.next() % 20_001) as f64 / 16.0 - 625.0;
        let v = if self.below(8) == 0 { v * 1e-7 } else { v };
        match self.below(9) {
            0 => format!("{v}"),
            1 => format!("{v:e}"),
            2 => format!("{v:.17e}"),
            3 => format!("{v:?}"),
            4 => format!("{v:+}"),
            5 => format!("{v:E}"),
            6 => format!("{}", v.round() as i64),
            7 => "-0.0".into(),
            _ => format!("{v:.3}"),
        }
    }

    /// A 1-based index, sometimes signed or zero-padded.
    fn index(&mut self, i: usize) -> String {
        match self.below(10) {
            0 => format!("+{i}"),
            1 => format!("0{i}"),
            _ => i.to_string(),
        }
    }

    fn sep(&mut self) -> &'static str {
        self.pick(&[" ", " ", " ", "\t", "  ", "\x0c", " \t ", "\r"])
    }

    fn eol(&mut self) -> &'static str {
        self.pick(&["\n", "\n", "\n", "\r\n", " \n", "\t\r\n"])
    }

    /// Comments and blank lines, sometimes.
    fn noise(&mut self, out: &mut String) {
        match self.below(8) {
            0 => out.push_str("% a comment\n"),
            1 => out.push('\n'),
            2 => out.push_str(" \t\n"),
            3 => out.push_str("%\n"),
            _ => {}
        }
    }

    fn matrix_body(&mut self) -> String {
        let n = 1 + self.below(6);
        let symmetric = self.below(4) == 0;
        let mut out = String::from(match self.below(3) {
            0 => "%%MatrixMarket matrix coordinate real general\n",
            1 => "%%matrixmarket MATRIX Coordinate Real GENERAL\n",
            _ if symmetric => SYM,
            _ => HEAD,
        });
        let symmetric = out.to_ascii_lowercase().contains("symmetric");
        self.noise(&mut out);
        let mut entries: Vec<(usize, usize)> = (1..=n).map(|i| (i, i)).collect();
        for _ in 0..self.below(3 * n) {
            let (i, j) = (1 + self.below(n), 1 + self.below(n));
            entries.push(if symmetric && j > i { (j, i) } else { (i, j) });
        }
        let s = self.sep();
        out.push_str(&format!("{n}{s}{n}{s}{}{}", entries.len(), self.eol()));
        for (k, &(i, j)) in entries.iter().enumerate() {
            self.noise(&mut out);
            if self.below(6) == 0 {
                out.push_str(self.pick(&[" ", "\t", "  "]));
            }
            let (si, sj) = (self.index(i), self.index(j));
            let (s1, s2, v) = (self.sep(), self.sep(), self.value());
            out.push_str(&format!("{si}{s1}{sj}{s2}{v}"));
            if self.below(8) == 0 {
                out.push_str(" extra 1");
            }
            if k + 1 < entries.len() || self.below(4) != 0 {
                out.push_str(self.eol());
            }
        }
        out
    }

    fn vector_body(&mut self) -> String {
        let n = 1 + self.below(8);
        let mm = self.below(2) == 0;
        let mut out = String::new();
        if mm {
            out.push_str("%%MatrixMarket matrix array real general\n");
            self.noise(&mut out);
            out.push_str(&format!("{n} 1{}", self.eol()));
        } else if self.below(3) == 0 {
            out.push_str("# rhs\n");
        }
        for _ in 0..n {
            self.noise(&mut out);
            out.push_str(&self.value());
            out.push_str(self.eol());
        }
        out
    }

    /// `body` with one byte inserted, deleted or with one bit flipped.
    fn mutate(&mut self, body: &[u8]) -> Vec<u8> {
        const BYTES: &[u8] = b"0123456789 \t\r\n\x0b\x0c%#+-.eExnaifNI\x00\x85\xa0\xc2\xff";
        let mut out = body.to_vec();
        let at = self.below(body.len() + 1);
        match self.below(3) {
            0 => out.insert(at, BYTES[self.below(BYTES.len())]),
            1 if at < out.len() => {
                out.remove(at);
            }
            _ if at < out.len() => out[at] ^= 1 << self.below(8),
            _ => out.push(b'\n'),
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bodies_and_their_mutations_agree(seed in any::<u64>()) {
        let mut draw = Draw(seed | 1);
        let body = draw.matrix_body();
        prop_assert!(check_matrix(body.as_bytes()), "{} was rejected", shown(body.as_bytes()));
        for _ in 0..24 {
            let mutant = draw.mutate(body.as_bytes());
            check_matrix(&mutant);
        }
        let body = draw.vector_body();
        check_vector(body.as_bytes());
        prop_assert!(read_vector(body.as_bytes()).is_ok(), "{} was rejected", shown(body.as_bytes()));
        for _ in 0..24 {
            let mutant = draw.mutate(body.as_bytes());
            check_vector(&mutant);
        }
    }
}
