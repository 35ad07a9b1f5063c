//! Matrix Market (`.mtx`) import/export.
//!
//! The de-facto interchange format of the sparse-linear-algebra community
//! (and of the matrices pARMS/SPARSKIT ship with). Supports the
//! `matrix coordinate real {general|symmetric}` flavour, which covers every
//! matrix this workspace produces; symmetric files are expanded to full
//! storage on read.

use crate::{Coo, Csr, Error, Result};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

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
            format!("a {m} x {n} matrix with {stored} stored entries has an empty row or column")
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

/// Convenience: reads a `.mtx` file.
pub fn load_mtx(path: impl AsRef<Path>) -> Result<Csr> {
    let f = std::fs::File::open(path)
        .map_err(|_| Error::InvalidStructure("cannot open file".into()))?;
    read_matrix_market(std::io::BufReader::new(f))
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

/// Convenience: reads a vector file (see [`read_vector`]).
pub fn load_vec(path: impl AsRef<Path>) -> Result<Vec<f64>> {
    let f = std::fs::File::open(path)
        .map_err(|_| Error::InvalidStructure("cannot open file".into()))?;
    read_vector(std::io::BufReader::new(f))
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
}
