//! The basis the one GMRES driver builds stays orthonormal to working
//! precision under the distributed orthogonalization — classical
//! Gram–Schmidt with delayed re-orthogonalization (DCGS2), one all-reduce
//! per step. After one full FGMRES(20) cycle (a zero target, so all twenty
//! steps run), the Gram matrix of the finished basis, summed over
//! the ranks, is within `1e-12` of the identity entry by entry: on TC1 tiny ·
//! `Block 2` and on the first hostile-suite cell · `Block 2`, at
//! P ∈ {1, 2, 4}. The context is `DistGmres`'s, written out here with the
//! one addition of reading the basis at the end of the cycle.

use parapre::core::cases::{block_owner, hostile_suite};
use parapre::core::{
    build_case, partition_case, try_build_dist_precond, CaseId, CaseSize, PrecondKind,
};
use parapre::dist::{scatter_vector, tags, DistMatrix, DistOp, DistPrecond};
use parapre::engine::SessionConfig;
use parapre::krylov::gmres::{self, Context};
use parapre::krylov::proj::Basis;
use parapre::mpisim::{Comm, Universe};
use parapre::sparse::{ops, Csr};

/// A distributed solve that measures `max |I − VᵀV|` of each cycle's basis.
struct Observed<'a, A, M> {
    comm: &'a mut Comm,
    a: &'a A,
    m: &'a M,
    /// Basis size and largest deviation, per cycle.
    cycles: Vec<(usize, f64)>,
}

impl<A: DistOp, M: DistPrecond> Context for Observed<'_, A, M> {
    const SOURCE: &'static str = "dist";
    fn speaks(&self) -> bool {
        false
    }
    fn sum(&mut self, xs: &mut [f64]) {
        self.comm.allreduce_sum_vec(xs, tags::REDUCE);
    }
    fn product(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
        self.a.apply_block(self.comm, xs, ys);
    }
    fn precond(&mut self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.m.apply_block(self.comm, rs, zs);
    }
    fn cycle_basis(&mut self, basis: Basis<'_>) {
        let k = basis.len();
        let mut gram: Vec<f64> = (0..k * k)
            .map(|ij| ops::dot(basis.col(ij / k), basis.col(ij % k)))
            .collect();
        self.comm.allreduce_sum_vec(&mut gram, tags::REDUCE);
        let dev = gram
            .iter()
            .enumerate()
            .map(|(ij, g)| (g - f64::from(u8::from(ij / k == ij % k))).abs())
            .fold(0.0, f64::max);
        self.cycles.push((k, dev));
    }
}

/// `max |I − VᵀV|` after one full cycle of the paper's FGMRES(20) with
/// `Block 2` on `a x = b`, `owner` over `p` ranks: a zero target, so only an
/// estimate of exactly zero could end the cycle early.
fn one_cycle(what: &str, a: &Csr, b: &[f64], owner: &[u32], p: usize) -> f64 {
    let mut cfg = SessionConfig::paper(PrecondKind::Block2, p).gmres;
    (cfg.max_iters, cfg.rel_tol, cfg.abs_tol) = (cfg.restart, 0.0, 0.0);
    let out = Universe::run(p, |comm| {
        let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
        let params = SessionConfig::paper(PrecondKind::Block2, p).params;
        let (m, _shifts) = try_build_dist_precond(PrecondKind::Block2, &dm, comm, &params)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let b = scatter_vector(&dm.layout, b);
        let mut x = vec![0.0; b.len()];
        let mut ctx = Observed {
            comm,
            a: &dm,
            m: &m,
            cycles: Vec::new(),
        };
        let reps = gmres::arnoldi(&mut ctx, &cfg, true, &[&b], &mut [&mut x]);
        (reps[0].iterations, ctx.cycles)
    });
    let (iterations, cycles) = &out[0];
    assert_eq!(*iterations, 20, "{what}: one full cycle");
    assert_eq!(cycles.len(), 1, "{what}: one cycle");
    for rank in &out[1..] {
        assert_eq!(&rank.1, cycles, "{what}: every rank reads one Gram matrix");
    }
    let (k, dev) = cycles[0];
    assert_eq!(k, 20, "{what}: basis size");
    dev
}

#[test]
fn one_fgmres20_cycle_leaves_an_orthonormal_basis() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cell = hostile_suite().next().expect("a hostile cell");
    for p in [1, 2, 4] {
        let seed = SessionConfig::paper(PrecondKind::Block2, p).partition_seed;
        let scheme = SessionConfig::paper(PrecondKind::Block2, p).scheme;
        let owner = case.dof_owner(&partition_case(&case, scheme, p, seed).owner);
        let cells = [
            (format!("tc1 tiny P={p}"), &case.sys.a, &case.sys.b, owner),
            (
                format!("hostile s{} P={p}", cell.s),
                &cell.a,
                &cell.b,
                block_owner(cell.a.n_rows(), p),
            ),
        ];
        for (what, a, b, owner) in cells {
            let dev = one_cycle(&what, a, b, &owner, p);
            assert!(dev <= 1e-12, "{what}: max |I - VᵀV| = {dev:e}");
            eprintln!("{what}: max |I - VᵀV| = {dev:e}");
        }
    }
}
