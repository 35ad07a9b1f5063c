//! Matrix Market (`.mtx`) import/export.
//!
//! The de-facto interchange format of the sparse-linear-algebra community
//! (and of the matrices pARMS/SPARSKIT ship with). Reads exactly the
//! banners `%%MatrixMarket matrix coordinate real {general|symmetric}`,
//! which covers every matrix this workspace produces, and `%%MatrixMarket
//! matrix array real general` for vectors, word by word (case aside): a
//! `skew-symmetric` or `vector` banner is an error naming the word.
//! Symmetric files are expanded to full storage on read.
//!
//! Matrices and vectors are read by one cursor over the bytes of the whole
//! body: it must be UTF-8, lines end at `\n`, and tokens are separated by
//! ASCII whitespace (a `\r` before the `\n` is one more separator). A large
//! matrix body runs one cursor per core over its entry lines
//! ([`parse_matrix_market_chunks`]).

use crate::{Coo, Csr, Error, Result};
use std::borrow::Cow;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Parses a Matrix Market stream into CSR: reads it to its end and hands
/// the bytes to [`parse_matrix_market`].
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr> {
    parse_matrix_market(&read_all(reader)?)
}

/// Parses a Matrix Market body into CSR in one pass over its bytes.
///
/// The size line is a claim the body has to back: nothing is sized from it.
/// Triplet storage is sized from the body's length (no entry line is
/// shorter than `1 1 1\n`), an entry count other than the one declared is
/// an error (the format requires them to agree), and so is a row or column
/// count above the stored entries — such a matrix has an empty row or
/// column, and a 95-byte body could otherwise ask for terabytes. Every
/// value must be finite, and so must every sum of duplicates.
///
/// A body longer than [`SPLIT_BYTES`] has its entry lines read on every
/// available core ([`parse_matrix_market_chunks`]); the result does not
/// depend on how many there are.
pub fn parse_matrix_market(body: &[u8]) -> Result<Csr> {
    let chunks = if body.len() > SPLIT_BYTES {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    };
    parse_matrix_market_chunks(body, chunks)
}

/// Bodies up to this many bytes are parsed on the calling thread alone.
/// Above it a body's entry lines are cut into one chunk per available core:
/// a thread costs tens of microseconds to start, a megabyte of entry lines
/// a few milliseconds to read.
pub const SPLIT_BYTES: usize = 1 << 20;

/// [`parse_matrix_market`] with the entry lines cut into at most `chunks`
/// pieces, each read by one thread (the first by the calling thread). The
/// result — the CSR bit for bit, or the error and its text — is the same
/// for every `chunks`.
///
/// The lines after the size line are cut at `\n` boundaries: chunk `k`
/// starts at the first line start at or after `k/chunks` of their bytes
/// (a cut inside a line moves to its end, and a chunk left empty is
/// dropped). The calling thread allocates every chunk's triplets before
/// any thread starts, from the `len / 6 + 1` rule on the chunk's bytes —
/// the first chunk's on all of them, since the others' triplets are
/// appended to it in body order once every chunk is read. So duplicates
/// meet [`Coo::to_csr`] in the order one thread would have pushed them,
/// and an error is the first one in body order, its line number counted
/// from the body's start.
pub fn parse_matrix_market_chunks(body: &[u8], chunks: usize) -> Result<Csr> {
    let text = utf8(body, "unreadable header")?;
    if text.is_empty() {
        return Err(bad("empty MatrixMarket stream"));
    }
    let header_end = text.find('\n').unwrap_or(text.len());
    let symmetric = banner(
        &text[..header_end],
        "matrix coordinate real general|symmetric",
    )? == "symmetric";

    let mut cur = Cursor {
        text,
        pos: header_end,
        line: 1,
        taken: true,
    };
    cur.next_line(b"%").ok_or(bad("missing size line"))?;
    let (m, n, nnz) = (
        index(cur.token())?,
        index(cur.token())?,
        index(cur.token())?,
    );
    let start = text[cur.pos..]
        .find('\n')
        .map_or(text.len(), |k| cur.pos + k + 1);
    let cuts = cut_lines(text.as_bytes(), start, chunks);
    let per_line = if symmetric { 2 } else { 1 };
    let capacity = |lo: usize, hi: usize| per_line * ((hi - lo) / 6 + 1);
    let mut coo = Coo::with_capacity(m, n, capacity(start, text.len()));
    let mut rest: Vec<Coo> = cuts[1..]
        .windows(2)
        .map(|w| Coo::with_capacity(m, n, capacity(w[0], w[1])))
        .collect();
    let counts: Vec<Result<usize>> = std::thread::scope(|s| {
        let workers: Vec<_> = rest
            .iter_mut()
            .zip(cuts[1..].windows(2))
            .map(|(part, w)| s.spawn(move || read_entries(text, w[0]..w[1], symmetric, part)))
            .collect();
        let first = read_entries(text, cuts[0]..cuts[1], symmetric, &mut coo);
        std::iter::once(first)
            .chain(
                workers
                    .into_iter()
                    .map(|w| w.join().expect("a parse worker panicked")),
            )
            .collect()
    });
    let mut entries = 0usize;
    for count in counts {
        entries += count?;
    }
    for part in rest {
        coo.append(part);
    }
    if entries != nnz {
        return Err(bad(format!(
            "the size line declares {nnz} entries, the body has {entries}"
        )));
    }
    let stored = coo.n_triplets();
    if m.max(n) > stored {
        return Err(bad(format!(
            "a {m} x {n} matrix with {stored} stored entries has an empty row or column"
        )));
    }
    let a = coo.to_csr();
    if let Some(k) = a.vals().iter().position(|v| !v.is_finite()) {
        let (i, j) = (a.row_ptr().partition_point(|&p| p <= k), a.col_idx()[k] + 1);
        return Err(bad(format!(
            "the duplicates of entry ({i}, {j}) sum to {}",
            a.vals()[k]
        )));
    }
    Ok(a)
}

/// Chunk boundaries of `bytes[start..]`: `start`, then every cut that
/// begins a non-empty chunk, then `bytes.len()`.
fn cut_lines(bytes: &[u8], start: usize, chunks: usize) -> Vec<usize> {
    let span = bytes.len() - start;
    let mut cuts = vec![start];
    for k in 1..chunks.max(1) {
        let at = start + k * span / chunks;
        // The first line start at or after `at` (`at >= start`, and the
        // header line comes before `start`, so `bytes[at - 1]` exists).
        let line_start = bytes[at - 1..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |q| at + q);
        if line_start > *cuts.last().expect("starts with `start`") && line_start < bytes.len() {
            cuts.push(line_start);
        }
    }
    cuts.push(bytes.len());
    cuts
}

/// Reads the entry lines of `text[lines]` (which start at a line start)
/// into `coo` and returns how many there were.
fn read_entries(
    text: &str,
    lines: std::ops::Range<usize>,
    symmetric: bool,
    coo: &mut Coo,
) -> Result<usize> {
    let mut cur = Cursor {
        text: &text[lines.clone()],
        pos: 0,
        line: 1,
        taken: false,
    };
    let mut entries = 0usize;
    while let Some(line) = cur.next_line(b"%") {
        let (i, j) = (index(cur.token())?, index(cur.token())?);
        let v: f64 = cur
            .token()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad value field"))?;
        if i == 0 || j == 0 {
            return Err(bad("MatrixMarket indices are 1-based"));
        }
        if !v.is_finite() {
            let before = text.as_bytes()[..lines.start]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            let line = before + line;
            return Err(bad(format!(
                "line {line}: entry ({i}, {j}) is not finite ({v})"
            )));
        }
        coo.try_push(i - 1, j - 1, v)?;
        if symmetric && i != j {
            coo.try_push(j - 1, i - 1, v)?;
        }
        entries += 1;
    }
    Ok(entries)
}

/// Checks a header line word by word, ASCII case aside, against
/// `%%MatrixMarket` and then `want` (words separated by spaces, the
/// accepted spellings of one word by `|`), and returns its last word. Any
/// other word, a missing word or one too many is an error naming it.
fn banner(header: &str, want: &'static str) -> Result<&'static str> {
    let h = header.to_ascii_lowercase();
    if !h.starts_with("%%matrixmarket") {
        return Err(bad("missing %%MatrixMarket header"));
    }
    let unsupported = |what: String| {
        bad(format!(
            "MatrixMarket banner {what}: only `%%MatrixMarket {want}` is read"
        ))
    };
    let mut words = h.split_ascii_whitespace();
    let mut last = "";
    for expected in std::iter::once("%%matrixmarket").chain(want.split(' ')) {
        let word = words
            .next()
            .ok_or_else(|| unsupported(format!("ends before `{expected}`")))?;
        last = expected
            .split('|')
            .find(|&e| e == word)
            .ok_or_else(|| unsupported(format!("word `{word}`")))?;
    }
    match words.next() {
        Some(word) => Err(unsupported(format!("word `{word}`"))),
        None => Ok(last),
    }
}

fn bad(msg: impl Into<Cow<'static, str>>) -> Error {
    Error::InvalidStructure(msg.into())
}

/// Lines and tokens of a UTF-8 body. A line is *content* when its first
/// token does not start with a comment byte; blank lines are skipped.
struct Cursor<'a> {
    text: &'a str,
    /// Offset of the next unread byte.
    pos: usize,
    /// 1-based number of the line `pos` is on.
    line: usize,
    /// Whether the line `pos` is on has been handed out (or is the header).
    taken: bool,
}

impl<'a> Cursor<'a> {
    /// Moves to the next content line and returns its number, `None` at the
    /// end of the text.
    fn next_line(&mut self, comments: &[u8]) -> Option<usize> {
        let bytes = self.text.as_bytes();
        loop {
            if self.taken {
                let k = bytes[self.pos..].iter().position(|&b| b == b'\n')?;
                self.pos += k + 1;
                self.line += 1;
            }
            self.taken = true;
            self.skip_blanks();
            match bytes.get(self.pos) {
                None => return None,
                Some(b) if *b == b'\n' || comments.contains(b) => {}
                Some(_) => return Some(self.line),
            }
        }
    }

    /// The next token of the current line.
    fn token(&mut self) -> Option<&'a str> {
        self.skip_blanks();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        while bytes
            .get(self.pos)
            .is_some_and(|b| !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        // Both ends sit next to ASCII bytes (or the text's ends), so both
        // are character boundaries.
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    fn skip_blanks(&mut self) {
        let bytes = self.text.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|&b| b != b'\n' && b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }
}

/// An index or count token. A plain run of digits is read in place; any
/// other token goes through `usize::from_str`, which decides what a sign or
/// an overflow means.
fn index(tok: Option<&str>) -> Result<usize> {
    let malformed = || bad("malformed MatrixMarket line");
    let tok = tok.ok_or_else(malformed)?;
    tok.bytes()
        .try_fold(0usize, |acc, b| {
            let digit = b.checked_sub(b'0').filter(|d| *d < 10)?;
            acc.checked_mul(10)?.checked_add(usize::from(digit))
        })
        .or_else(|| tok.parse().ok())
        .ok_or_else(malformed)
}

/// `body` as text; `first_line` is the error when the first line is not UTF-8.
fn utf8<'a>(body: &'a [u8], first_line: &'static str) -> Result<&'a str> {
    std::str::from_utf8(body).map_err(|e| {
        let in_first = !body[..e.valid_up_to()].contains(&b'\n');
        bad(if in_first {
            first_line
        } else {
            "unreadable line"
        })
    })
}

fn read_all<R: BufRead>(mut reader: R) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|_| bad("unreadable line"))?;
    Ok(bytes)
}

/// The bytes of a regular file. Anything else — a device, a FIFO, a
/// directory — is refused before it is opened: read to its end, it can
/// block forever or never end.
fn read_file(path: &Path) -> Result<Vec<u8>> {
    if !std::fs::metadata(path)
        .map_err(|_| bad("cannot open file"))?
        .is_file()
    {
        return Err(bad(format!("{} is not a regular file", path.display())));
    }
    std::fs::read(path).map_err(|_| bad("cannot open file"))
}

/// Writes `a` as `matrix coordinate real general`.
pub fn write_matrix_market<W: Write>(a: &Csr, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by parapre-sparse")?;
    writeln!(w, "{} {} {}", a.n_rows(), a.n_cols(), a.nnz())?;
    for (i, j, v) in a.iter() {
        writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
    }
    w.flush()
}

/// Convenience: reads a `.mtx` file (a regular file only).
pub fn load_mtx(path: impl AsRef<Path>) -> Result<Csr> {
    parse_matrix_market(&read_file(path.as_ref())?)
}

/// Convenience: writes a `.mtx` file.
pub fn save_mtx(a: &Csr, path: impl AsRef<Path>) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_matrix_market(a, f)
}

/// Parses a dense vector: either a Matrix Market `array real` stream (one
/// column) or a plain text stream with one number per line (`%`/`#`
/// comments and blank lines skipped) — the two formats right-hand sides
/// ship in alongside `.mtx` matrices.
pub fn read_vector<R: BufRead>(reader: R) -> Result<Vec<f64>> {
    parse_vector(&read_all(reader)?)
}

fn parse_vector(body: &[u8]) -> Result<Vec<f64>> {
    let text = utf8(body, "unreadable line")?;
    let first = &text[..text.find('\n').unwrap_or(text.len())];
    let h = first
        .trim_start_matches(|c: char| c.is_ascii_whitespace())
        .to_ascii_lowercase();
    let mm = h.starts_with("%%matrixmarket");
    if mm {
        banner(&h, "matrix array real general")?;
    }
    let mut cur = Cursor {
        text,
        pos: 0,
        line: 1,
        taken: false,
    };
    let mut declared: Option<usize> = None;
    let mut out = Vec::new();
    while cur.next_line(b"%#").is_some() {
        if mm && declared.is_none() {
            // MatrixMarket dims line: "m n" with n == 1.
            declared = Some(index(cur.token())?);
            if index(cur.token())? != 1 {
                return Err(bad("vector file must have one column"));
            }
            continue;
        }
        while let Some(tok) = cur.token() {
            out.push(tok.parse().map_err(|_| bad("bad vector value"))?);
        }
    }
    if declared.is_some_and(|m| m != out.len()) {
        return Err(bad("vector length != declared size"));
    }
    if out.is_empty() {
        return Err(bad("empty vector stream"));
    }
    Ok(out)
}

/// Convenience: reads a vector file (see [`read_vector`]; a regular file
/// only).
pub fn load_vec(path: impl AsRef<Path>) -> Result<Vec<f64>> {
    parse_vector(&read_file(path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_general() {
        let a = Csr::from_dense_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.5, 2.0, -1.0],
            vec![0.0, -1.0, 2.5],
        ]);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reads_symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 4\n\
                    1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 5);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\n2 2 2\n% another\n1 1 1.0\n2 2 4.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.diagonal().unwrap(), vec![1.0, 4.0]);
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(read_matrix_market("garbage\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n".as_bytes()
        )
        .is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 5.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn a_banner_is_read_word_by_word_and_a_wrong_word_is_named() {
        let only = "only `%%MatrixMarket matrix coordinate real general|symmetric` is read";
        for (head, names) in [
            (
                "%%MatrixMarket matrix coordinate real skew-symmetric",
                "word `skew-symmetric`",
            ),
            (
                "%%MatrixMarket vector coordinate real general",
                "word `vector`",
            ),
            (
                "%%MatrixMarket matrix coordinate real general x",
                "word `x`",
            ),
            (
                "%%MatrixMarketmatrix coordinate real general",
                "word `%%matrixmarketmatrix`",
            ),
            (
                "%%MatrixMarket matrix coordinate real",
                "ends before `general|symmetric`",
            ),
        ] {
            let text = format!("{head}\n2 2 1\n2 1 3.0\n");
            let want = format!("MatrixMarket banner {names}: {only}");
            assert_eq!(
                parse_matrix_market(text.as_bytes()),
                Err(Error::InvalidStructure(want.into())),
                "{head}"
            );
        }
        let vector = "%%MatrixMarket matrix array real symmetric\n1 1\n1\n";
        let want = "MatrixMarket banner word `symmetric`: \
                    only `%%MatrixMarket matrix array real general` is read";
        assert_eq!(
            read_vector(vector.as_bytes()),
            Err(Error::InvalidStructure(want.into()))
        );
    }

    #[test]
    fn every_chunk_count_gives_the_one_chunk_result() {
        let mut text = String::from("%%MatrixMarket matrix coordinate real general\n% c\n5 5 9\n");
        for (i, j, v) in [
            (1, 1, 2.0),
            (2, 1, -1.0),
            (2, 2, 2.0),
            (1, 1, 0.5),
            (3, 3, 2.0),
        ] {
            text.push_str(&format!("{i} {j} {v:e}\n% between\n\n"));
        }
        text.push_str("4 4 1\r\n5 5 1\n3 2 -1\n1 1 0.25");
        let one = parse_matrix_market_chunks(text.as_bytes(), 1).unwrap();
        for chunks in 0..=text.len() + 1 {
            assert_eq!(
                parse_matrix_market_chunks(text.as_bytes(), chunks),
                Ok(one.clone())
            );
        }
        let bad = text.replace("3 2 -1", "3 2 NaN");
        for chunks in 1..=bad.len() + 1 {
            assert_eq!(
                parse_matrix_market_chunks(bad.as_bytes(), chunks),
                Err(Error::InvalidStructure(
                    "line 21: entry (3, 2) is not finite (NaN)".into()
                )),
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn a_size_line_the_body_cannot_back_is_rejected_naming_the_numbers() {
        let head = "%%MatrixMarket matrix coordinate real general\n";
        let body = "1 1 1.0\n2 2 1.0\n";
        for (size, names) in [
            (
                "2 2 100000000000000",
                "declares 100000000000000 entries, the body has 2",
            ),
            ("2 2 1", "declares 1 entries, the body has 2"),
            (
                "100000000000000 100000000000000 2",
                "a 100000000000000 x 100000000000000 matrix with 2 stored entries",
            ),
            (
                "4000000000 4000000000 2",
                "a 4000000000 x 4000000000 matrix",
            ),
            ("2 3 2", "a 2 x 3 matrix with 2 stored entries"),
        ] {
            let text = format!("{head}{size}\n{body}");
            match read_matrix_market(text.as_bytes()) {
                Err(Error::InvalidStructure(msg)) => {
                    assert!(msg.contains(names), "{size}: {msg}")
                }
                other => panic!("{size}: {other:?}"),
            }
        }
        // The body backs these: a square one, and a symmetric file whose
        // off-diagonal entries count twice.
        assert_eq!(
            read_matrix_market(format!("{head}2 2 2\n{body}").as_bytes())
                .unwrap()
                .nnz(),
            2
        );
        let sym = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 3 1.0\n";
        assert_eq!(read_matrix_market(sym.as_bytes()).unwrap().nnz(), 3);
    }

    #[test]
    fn a_non_finite_entry_is_rejected_naming_its_line_and_entry() {
        let head = "%%MatrixMarket matrix coordinate real general\n% note\n2 2 2\n";
        for (entry, names) in [
            ("2 2 NaN", "line 5: entry (2, 2) is not finite (NaN)"),
            ("2 2 1e999", "line 5: entry (2, 2) is not finite (inf)"),
            ("2 2 -inf", "line 5: entry (2, 2) is not finite (-inf)"),
            ("2 2 +Infinity", "line 5: entry (2, 2) is not finite (inf)"),
        ] {
            let text = format!("{head}1 1 1.0\n{entry}\n");
            match parse_matrix_market(text.as_bytes()) {
                Err(Error::InvalidStructure(msg)) => assert_eq!(msg, names, "{entry}"),
                other => panic!("{entry}: {other:?}"),
            }
        }
        // Finite duplicates whose sum overflows are rejected after assembly.
        let text =
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1e308\n1 1 1e308\n2 2 1\n";
        match parse_matrix_market(text.as_bytes()) {
            Err(Error::InvalidStructure(msg)) => {
                assert_eq!(msg, "the duplicates of entry (1, 1) sum to inf")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn separators_signs_and_line_ends() {
        let want = Csr::from_dense_rows(&[vec![2.0, -1.0], vec![0.0, 4.5]]);
        for text in [
            "%%MatrixMarket matrix coordinate real general\r\n2 2 3\r\n1 1 2\r\n1 2 -1\r\n2 2 4.5\r\n",
            "%%MatrixMarket matrix coordinate real general\n\t2\t2\t3 extra\n+1 1 2e0 x\n1\x0c2 -1.0\n\n  % c\n2 2 +4.5",
            "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1\n1 2 -1\n2 2 4.5\n1 1 1\n",
        ] {
            let a = parse_matrix_market(text.as_bytes()).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(a, want, "{text:?}");
        }
        // Only ASCII whitespace separates: a vertical tab is part of a token.
        let vt = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\x0b\n";
        assert!(parse_matrix_market(vt.as_bytes()).is_err());
        // An index that overflows is malformed, not wrapped.
        let big =
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n18446744073709551617 1 2\n";
        assert!(parse_matrix_market(big.as_bytes()).is_err());
    }

    #[test]
    fn empty_and_truncated_bodies_are_rejected() {
        for (text, names) in [
            (&b""[..], "empty MatrixMarket stream"),
            (
                b"%%MatrixMarket matrix coordinate real general",
                "missing size line",
            ),
            (
                b"%%MatrixMarket matrix coordinate real general\n% c\n",
                "missing size line",
            ),
            (
                b"%%MatrixMarket matrix coordinate real general\n1 1\n",
                "malformed",
            ),
            (
                b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n",
                "bad value field",
            ),
            (b"%%MatrixMarket\xff matrix", "unreadable header"),
            (
                b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n",
                "unreadable line",
            ),
        ] {
            match parse_matrix_market(text) {
                Err(Error::InvalidStructure(msg)) => {
                    assert!(msg.contains(names), "{text:?}: {msg}")
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn reads_plain_vector() {
        let v = read_vector("# rhs\n1.5\n-2.0\n\n3.25\n".as_bytes()).unwrap();
        assert_eq!(v, vec![1.5, -2.0, 3.25]);
    }

    #[test]
    fn reads_matrix_market_array_vector() {
        let text = "%%MatrixMarket matrix array real general\n% rhs\n3 1\n1.0\n2.0\n3.0\n";
        assert_eq!(read_vector(text.as_bytes()).unwrap(), vec![1.0, 2.0, 3.0]);
        // Declared length must match.
        let short = "%%MatrixMarket matrix array real general\n3 1\n1.0\n";
        assert!(read_vector(short.as_bytes()).is_err());
        // Multi-column arrays are not vectors.
        let wide = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
        assert!(read_vector(wide.as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let a = Csr::identity(4);
        let path = std::env::temp_dir().join("parapre_io_test.mtx");
        save_mtx(&a, &path).unwrap();
        let b = load_mtx(&path).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn files_that_are_not_regular_are_refused_naming_the_path() {
        let dir = std::env::temp_dir();
        let mut paths = vec![dir.clone()];
        if Path::new("/dev/zero").exists() {
            paths.push("/dev/zero".into());
        }
        for path in paths {
            let named = format!("{} is not a regular file", path.display());
            for err in [load_mtx(&path).unwrap_err(), load_vec(&path).unwrap_err()] {
                assert_eq!(err, Error::InvalidStructure(named.clone().into()));
            }
        }
        let missing = dir.join("parapre_io_test_no_such_file.vec");
        assert_eq!(
            load_vec(missing).unwrap_err(),
            Error::InvalidStructure("cannot open file".into())
        );
    }
}
