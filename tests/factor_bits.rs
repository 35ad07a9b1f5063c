//! The bits of the cold factorizations, pinned.
//!
//! One line per factor: its shape, stored entries, `Csr::fingerprint` of
//! `LuFactors::merged` (shape, pattern and every value bit) and the pivot
//! fixes ILUT made. The rows cover what the answer ledger reaches only
//! through a whole solve, and what it does not reach at all:
//!
//! - `Ilut::factor` with the paper's parameters on the tiny global matrix of
//!   each of TC1–TC6;
//! - TC1 tiny at `drop_tol: 0, fill: 2`, where exact magnitude ties among a
//!   row's candidates decide which entries the fill cap keeps;
//! - TC1 tiny at `drop_tol: 0, fill: usize::MAX` (no selection at all);
//! - the 2×2 matrix whose second pivot cancels exactly (one pivot fix);
//! - `Arms::factor` with its default configuration on TC6 tiny: every
//!   level's dropped Schur complement and the last-level ILUT;
//! - `Ilut::factor` on a 9,000-unknown arrow matrix (every row coupled to
//!   unknown 0, to its neighbours and to unknown `i/2`), at the paper's
//!   parameters and with the fill cap at 2: late rows hold pending
//!   columns from 0 to beyond 8,192, across three summary words of the
//!   two-level bitset.
//!
//! [`EXPECTED`] was captured from the factorization as it stood before its
//! pending set became a heap, except the arrow rows, captured before it
//! became a two-level bitset; a difference prints the whole actual table.

use parapre::core::{build_case, CaseId, CaseSize, PrecondParams};
use parapre::krylov::{Arms, ArmsConfig, Ilut, IlutConfig, LuFactors};
use parapre::sparse::{Coo, Csr};
use std::fmt::Write;

fn matrix_line(out: &mut String, what: &str, m: &Csr) {
    writeln!(
        out,
        "{what} n={} nnz={} fp={:016x}",
        m.n_rows(),
        m.nnz(),
        m.fingerprint()
    )
    .unwrap();
}

fn factor_line(out: &mut String, what: &str, f: &LuFactors) {
    let fixes = format!("{what} fixes={}", f.pivot_fixes());
    matrix_line(out, &fixes, &f.merged());
}

fn ilut(out: &mut String, what: &str, a: &Csr, cfg: IlutConfig) {
    let f = Ilut::factor(a, &cfg).expect("ILUT never fails on a square matrix");
    factor_line(out, what, &f);
}

fn table() -> String {
    let mut out = String::new();
    let paper = PrecondParams::default().ilut;
    for id in CaseId::ALL {
        let a = build_case(id, CaseSize::Tiny).sys.a;
        ilut(&mut out, &format!("{} ilut paper", id.key()), &a, paper);
    }

    let tc1 = build_case(CaseId::Tc1, CaseSize::Tiny).sys.a;
    let ties = IlutConfig {
        drop_tol: 0.0,
        fill: 2,
    };
    ilut(&mut out, "tc1 ilut tol=0 fill=2", &tc1, ties);
    let complete = IlutConfig {
        drop_tol: 0.0,
        fill: usize::MAX,
    };
    ilut(&mut out, "tc1 ilut tol=0 fill=max", &tc1, complete);

    let cancels = Csr::from_dense_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
    let cfg = IlutConfig {
        drop_tol: 0.0,
        fill: 10,
    };
    ilut(&mut out, "2x2 ilut zero pivot", &cancels, cfg);

    let tc6 = build_case(CaseId::Tc6, CaseSize::Tiny).sys.a;
    let arms = Arms::factor(&tc6, &ArmsConfig::default()).expect("ARMS of TC6 tiny");
    for (d, level) in arms.levels().iter().enumerate() {
        matrix_line(
            &mut out,
            &format!("tc6 arms level{d} reduced"),
            level.reduced(),
        );
    }
    factor_line(&mut out, "tc6 arms last", arms.last_factors());

    let arrow = arrow(9_000);
    ilut(&mut out, "arrow ilut paper", &arrow, paper);
    let capped = IlutConfig { fill: 2, ..paper };
    ilut(&mut out, "arrow ilut paper fill=2", &arrow, capped);
    out
}

/// An `n x n` arrow: column 0 couples to every unknown, each row also to
/// its neighbours and to unknown `i/2` below it, and the values repeat
/// with period 7, so a row's candidates often tie in magnitude.
fn arrow(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + (i % 5) as f64);
        if i > 0 {
            coo.push(i, 0, -1.0 / (1 + i % 7) as f64);
            coo.push(i, i - 1, -1.0);
            coo.push(i - 1, i, -1.0);
        }
        if i >= 2 {
            coo.push(i, i / 2, -0.25);
        }
    }
    coo.to_csr()
}

#[test]
fn cold_factors_reproduce_their_pinned_bits() {
    let out = table();
    assert!(out == EXPECTED, "the table is now:\n{out}");
}

const EXPECTED: &str = "\
tc1 ilut paper fixes=0 n=289 nnz=4479 fp=157f7a0c20f00532\n\
tc2 ilut paper fixes=0 n=343 nnz=4560 fp=03ba56b19b440d13\n\
tc3 ilut paper fixes=0 n=447 nnz=5197 fp=9db9617938b58ba6\n\
tc4 ilut paper fixes=0 n=343 nnz=14983 fp=8113e009d1f1ddaf\n\
tc5 ilut paper fixes=0 n=289 nnz=2177 fp=53eb58a90b50611b\n\
tc6 ilut paper fixes=0 n=338 nnz=13281 fp=305114a21b35ee97\n\
tc1 ilut tol=0 fill=2 fixes=0 n=289 nnz=1424 fp=2b0b5cc890071637\n\
tc1 ilut tol=0 fill=max fixes=0 n=289 nnz=10081 fp=44c34ee9149f5c2c\n\
2x2 ilut zero pivot fixes=1 n=2 nnz=4 fp=1b4582cdf33aac10\n\
tc6 arms level0 reduced n=170 nnz=4484 fp=45fe8808a29d5d00\n\
tc6 arms last fixes=0 n=170 nnz=5958 fp=74e79bc9bcc976a2\n\
arrow ilut paper fixes=0 n=9000 nnz=68508 fp=0011dd3f1821f78d\n\
arrow ilut paper fill=2 fixes=0 n=9000 nnz=35996 fp=3778c06bd7537c3f\n\
";
