//! `DistGmres` reproduces its own earlier bits under both orthogonalization
//! strategies. `tests/orthogonalization_bits.rs` (workspace root) compares the
//! default strategy with a reference written in the test; nothing compared
//! [`OrthMethod::Modified`], the reference the other tests lean on, with
//! anything bit for bit. One line per (strategy, restart) on TC1 at P = 2 —
//! iterations, final relres bits, history length and hash, hash of the
//! gathered solution — plus `fixed_effort`'s answer, against [`EXPECTED`],
//! captured before the Givens recurrence moved into `parapre_krylov::lsq`.
//! The two `Modified` lines were re-captured when the distributed and the
//! sequential loop became one driver: modified Gram–Schmidt now normalizes by
//! `ops::scale(1/‖·‖)`, as the sequential loop did, where the distributed one
//! divided (same iterations, same history length, other last bits). The two
//! `ClassicalBatched` lines and the `fixed_effort` line were re-captured when
//! the batched orthogonalization became delayed re-orthogonalization (DCGS2)
//! and the fixed-effort entry began keeping its directions: same iterations,
//! same history lengths, other last bits.

use parapre_dist::{
    gather_vector, scatter_vector, DistGmres, DistMatrix, DistPrecond, GmresConfig, OrthMethod,
};
use parapre_mpisim::{Comm, Universe};
use std::fmt::Write;

mod common;

/// Point Jacobi with a diagonal that rounds (no power of two).
struct Jacobi(Vec<f64>);

impl DistPrecond for Jacobi {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.0) {
            *zi = ri / di;
        }
    }
}

fn fnv(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

const EXPECTED: &str = "\
Modified restart=20 it=64 relres=3eae9b7a1ac41cfe hist=65/32bb7c757b14f528 x=4cd8e5527aaa1b48\n\
Modified restart=5 it=126 relres=3eb05ace3fe78eee hist=127/1dcc3a99faa4a8b0 x=b5943fe283836b1c\n\
ClassicalBatched restart=20 it=64 relres=3eae9b7a1ac3c141 hist=65/c8a8f2a818168535 x=520c4d6b1350e352\n\
ClassicalBatched restart=5 it=126 relres=3eb05ace3fcb7d35 hist=127/94c71dc0e1d87507 x=6a54a5b743f8e8c4\n\
fixed_effort k=5 z=5f32a017686fcc4e\n\
";

#[test]
fn both_orthogonalizations_and_the_fixed_entry_reproduce_their_pinned_bits() {
    let p = 2;
    let (a, b, owner) = common::poisson_system(17, p);
    let lines = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(&a, &owner, comm.rank(), p);
        let n = dm.layout.n_owned();
        let g = scatter_vector(&dm.layout, &b);
        let m = Jacobi((0..n).map(|i| 3.0 + 0.1 * (i % 7) as f64).collect());
        let mut out = String::new();
        for orth in [OrthMethod::Modified, OrthMethod::ClassicalBatched] {
            for restart in [20, 5] {
                let mut x = vec![0.0; n];
                let rep = DistGmres::new(GmresConfig {
                    restart,
                    orth,
                    record_history: true,
                    ..GmresConfig::distributed()
                })
                .solve(comm, &dm, &m, &g, &mut x);
                assert!(rep.converged && rep.breakdown.is_none());
                let x = gather_vector(comm, &dm.layout, &x, b.len());
                writeln!(
                    out,
                    "{orth:?} restart={restart} it={} relres={:016x} hist={}/{:016x} x={:016x}",
                    rep.iterations,
                    rep.final_relres.to_bits(),
                    rep.residual_history.len(),
                    fnv(&rep.residual_history),
                    x.map_or(0, |x| fnv(&x)),
                )
                .unwrap();
            }
        }
        let mut z = vec![f64::NAN; n];
        DistGmres::fixed_effort(comm, &dm, &m, 5, &g, &mut z);
        let z = gather_vector(comm, &dm.layout, &z, b.len());
        writeln!(out, "fixed_effort k=5 z={:016x}", z.map_or(0, |z| fnv(&z))).unwrap();
        out
    });
    assert!(lines[0] == EXPECTED, "the table is now:\n{}", lines[0]);
}
