//! The Schur-complement preconditioners — the paper's `Schur 1` (§2,
//! Algorithm 2.1) and `Schur 2` (§2, Fig. 2), and `SchurML`, the rung above
//! them on the fallback ladder — as one struct with one operator, one apply,
//! one refactor and one voted build.
//!
//! Each rank splits its owned block into an eliminated block `B` and a Schur
//! block, `[B F; E C]`. An application is the block-LU sweep around a few
//! distributed GMRES iterations on the global Schur system:
//!
//! 1. `g' = g − E B̃⁻¹ f`;
//! 2. `S y = g'` by [`DistGmres::fixed_effort`] on the operator
//!    `(S y)_i = C_i y_i − E_i B̃_i⁻¹ (F_i y_i) + Σ_j E_ij y_j`,
//!    preconditioned by a communication-free local solve of the Schur block;
//! 3. `u = B̃⁻¹ (f − F y)`.
//!
//! The inner solves vary between applications, so the outer accelerator
//! is FGMRES (paper §4.3). The rungs differ only as data, in four choices:
//!
//! | | `Schur 1` | `Schur 2` | `SchurML { levels, rank }` |
//! |---|---|---|---|
//! | interface set | the interdomain interface | ARMS level 0 with the interdomain interface pinned coarse: it plus the local interfaces left by the elimination | as `Schur 2` |
//! | `B`-solve in the sweep | `b_iters` local GMRES steps on `B`, preconditioned by the leading block of one ILUT factorization | exact block LU ([`ArmsLevel::sweep`]) | as `Schur 2` |
//! | `B`-solve in the operator | one sweep of the leading ILUT block | exact block LU | as `Schur 2` |
//! | inner solve | the trailing ILUT block, `≈ L_S U_S` of the local Schur complement | ILU(0) of the dropped level-0 block (the distributed ILU(0)) | the corrected hierarchy from depth 1 ([`SchurMlHierarchy`]) |
//!
//! `Schur 1` and `Schur 2` factor through the diagonal-shift retry ladder.
//! `SchurML` refuses factorizations that needed shifts or pivot fixes: its
//! corrections invert `(I − H)` on the probed error modes, and an unstably
//! factored coarse block turns that inversion into noise amplification, so
//! the honest move is to vote the build down and let the ladder descend.
//!
//! A build computes every rank's local result to the end — no early return
//! — and then takes one vote, one all-reduce of three flags on
//! [`tags::SCHUR_BUILD_VOTE`]. When some rank of an ARMS rung found nothing to
//! eliminate, every rank applies its local hierarchy to its whole block
//! instead of the Schur iteration.

use crate::runner::{PrecondKind, PrecondParams};
use parapre_dist::{tags, DistGmres, DistMatrix, DistOp, DistPrecond, LocalLayout};
use parapre_krylov::arms::ArmsLevel;
use parapre_krylov::{
    Arms, ArmsConfig, Gmres, Ilu0, Ilut, LuFactors, Preconditioner, SchurMlHierarchy,
};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Error, Result};

/// Parameters of an ARMS rung (`Schur 2`, `SchurML`).
#[derive(Debug, Clone, Copy)]
pub struct ExpSchurConfig {
    /// Parameters of the per-level reductions. `Schur 2` reads all of
    /// them; `SchurML` takes its depth from the `levels` knob of its kind
    /// instead of `n_levels`.
    pub arms: ArmsConfig,
    /// Distributed GMRES iterations on the expanded Schur system.
    pub schur_iters: usize,
}

/// `Schur 1`'s split: internal unknowns first, the interdomain interface
/// last, and one ILUT factorization of the whole block.
struct InterfaceSplit {
    factors: LuFactors,
    b: Csr,
    f: Csr,
    e: Csr,
    c: Csr,
    /// Local GMRES steps per `B` solve of the sweep.
    b_iters: usize,
}

impl InterfaceSplit {
    /// `Schur 1`'s split of `dm` over the ILUT `factors` of its owned block.
    fn split(dm: &DistMatrix, factors: LuFactors, b_iters: usize) -> Split {
        let [b, f, e, c] = dm.owned_split();
        Split::Interface(Box::new(InterfaceSplit {
            factors,
            b,
            f,
            e,
            c,
            b_iters,
        }))
    }

    /// The trailing block of the factors: `L_S U_S` of the local Schur
    /// complement, by the block-factorization identity.
    fn trailing(&self) -> Inner {
        Inner::Factors(self.factors.trailing_block(self.b.n_rows()))
    }

    /// `B̃⁻¹ r`: `b_iters` local GMRES steps preconditioned by the leading
    /// ILUT block (paper §4.4's subdomain solver).
    fn b_solve(&self, r: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; r.len()];
        if !r.is_empty() {
            let m = Leading(&self.factors, r.len());
            Gmres::fixed_effort(&self.b, &m, self.b_iters, r, &mut x);
        }
        x
    }

    /// Algorithm 2.1 around `coarse`, which solves the interface system
    /// into `z`'s interface part.
    fn sweep(&self, r: &[f64], z: &mut [f64], coarse: impl FnOnce(&[f64], &mut [f64])) {
        let (f, g) = r.split_at(self.b.n_rows());
        let mut gp = g.to_vec();
        self.e.spmv_acc(-1.0, &self.b_solve(f), &mut gp);
        let (zb, zc) = z.split_at_mut(f.len());
        coarse(&gp, zc);
        let mut t = f.to_vec();
        self.f.spmv_acc(-1.0, zc, &mut t);
        zb.copy_from_slice(&self.b_solve(&t));
    }
}

/// The leading `n` rows of the ILUT factors as a preconditioner of `B`.
struct Leading<'a>(&'a LuFactors, usize);

impl Preconditioner for Leading<'_> {
    fn dim(&self) -> usize {
        self.1
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.0.leading_solve(self.1, z);
    }
}

/// How the owned block is split into `B` and the Schur block.
enum Split {
    /// `Schur 1`.
    Interface(Box<InterfaceSplit>),
    /// `Schur 2` and `SchurML`: level 0 of the hierarchy (`Schur 2` holds a
    /// hierarchy of rank 0, which is its ARMS factorization and nothing
    /// else).
    Level(SchurMlHierarchy),
    /// An ARMS rung on which some rank found nothing to eliminate: every
    /// rank applies its hierarchy to its whole block.
    Whole(SchurMlHierarchy),
}

const WHOLE: &str = "a whole-block solve has no Schur system";

fn level0(hier: &SchurMlHierarchy) -> &ArmsLevel {
    &hier.arms().levels()[0]
}

impl Split {
    /// The hierarchy of an ARMS rung.
    fn hierarchy(&self) -> Option<&SchurMlHierarchy> {
        match self {
            Split::Interface(_) => None,
            Split::Level(h) | Split::Whole(h) => Some(h),
        }
    }

    /// `[C, E, F]` around `B`.
    fn blocks(&self) -> [&Csr; 3] {
        match self {
            Split::Interface(s) => [&s.c, &s.e, &s.f],
            Split::Level(h) => {
                let l = level0(h);
                [l.c_block(), l.e_block(), l.f_block()]
            }
            Split::Whole(_) => unreachable!("{WHOLE}"),
        }
    }

    /// The fixed `B̃⁻¹` inside the Schur operator, in place.
    fn solve_b(&self, x: &mut [f64]) {
        match self {
            Split::Interface(s) => s.factors.leading_solve(x.len(), x),
            Split::Level(h) => level0(h).solve_b(x),
            Split::Whole(_) => unreachable!("{WHOLE}"),
        }
    }

    /// Position of each interdomain-interface unknown in the Schur system.
    fn interface_positions(&self, layout: &LocalLayout) -> Vec<usize> {
        let ni = layout.n_internal;
        match self {
            Split::Interface(_) => (0..layout.n_interface).collect(),
            Split::Level(h) => {
                let lvl = level0(h);
                let mut pos = vec![usize::MAX; layout.n_interface];
                for k in 0..lvl.n_coarse() {
                    let local = lvl.perm().old_of(lvl.n_ind() + k);
                    if local >= ni {
                        pos[local - ni] = k;
                    }
                }
                debug_assert!(!pos.contains(&usize::MAX), "interface unknown eliminated");
                pos
            }
            Split::Whole(_) => Vec::new(),
        }
    }
}

/// The local solver of the Schur block — the inner preconditioner of the
/// global Schur iteration.
enum Inner {
    /// `Schur 1`: the trailing ILUT block. `Schur 2`: ILU(0) of the dropped
    /// level-0 block.
    Factors(LuFactors),
    /// `SchurML`: the hierarchy from depth 1 (deeper reductions, ILUT
    /// coarsest solve, per-level low-rank corrections). Also stands in on
    /// whole-block builds, which never consult it.
    Hierarchy,
}

/// The assembled Schur preconditioner of one rank, for any of the three
/// rungs.
pub struct SchurPrecond {
    layout: LocalLayout,
    split: Split,
    /// Position in the Schur system of each interdomain-interface unknown.
    iface_pos: Vec<usize>,
    /// Interface rows × ghost couplings, from the distributed matrix.
    e_ext: Csr,
    schur_iters: usize,
    inner: Inner,
}

/// The rank-identical error of a build the ranks voted down.
fn voted_down<T>(local: Result<T>) -> Error {
    local.err().unwrap_or(Error::ZeroPivot(0))
}

impl SchurPrecond {
    /// Builds the Schur rung `kind` (`Schur1`, `Schur2` or `SchurML`);
    /// collective (all ranks must call). Fails jointly, on every rank,
    /// when some rank's factorization failed (for `SchurML`: was not
    /// clean) or, on a rung that runs the Schur iteration, some rank's
    /// inner solver did not factor.
    pub fn build(
        kind: PrecondKind,
        dm: &DistMatrix,
        comm: &mut Comm,
        params: &PrecondParams,
    ) -> Result<Self> {
        // No `?` before the vote: an early local return would leave the
        // peer ranks blocked in it forever.
        let a_i = dm.owned_block();
        let mut forced = vec![false; dm.layout.n_owned()];
        forced[dm.layout.n_internal..].fill(true);
        let (split, schur_iters) = {
            let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
            match kind {
                PrecondKind::Schur1 => (
                    Ilut::factor_shifted(&a_i, &params.ilut)
                        .map(|lu| InterfaceSplit::split(dm, lu, params.schur1_b_iters)),
                    params.schur1_iters,
                ),
                PrecondKind::Schur2 => (
                    Arms::factor_with_coarse_shifted(&a_i, &params.schur2.arms, &forced)
                        .map(|arms| Split::Level(SchurMlHierarchy::from_arms(arms, 0))),
                    params.schur2.schur_iters,
                ),
                PrecondKind::SchurML { levels, rank } => {
                    // `n_levels = L + 1` yields L elimination levels before
                    // the coarsest ILUT block.
                    let cfg = ArmsConfig {
                        n_levels: levels + 1,
                        ..params.schurml.arms
                    };
                    let hier = Arms::factor_with_coarse(&a_i, &cfg, &forced)
                        .map(|arms| SchurMlHierarchy::from_arms(arms, rank))
                        .and_then(|h| {
                            let last = h.arms().last_factors();
                            let clean = last.report().healthy() && last.pivot_fixes() == 0;
                            clean.then_some(Split::Level(h)).ok_or(Error::ZeroPivot(0))
                        });
                    (hier, params.schurml.schur_iters)
                }
                other => panic!("{other:?} is not a Schur rung"),
            }
        };
        let has_level = split.as_ref().is_ok_and(|s| match s {
            Split::Level(h) => h.arms().n_levels() >= 1,
            _ => true,
        });
        let schur_extract = parapre_metrics::span(parapre_metrics::names::SCHUR_EXTRACT);
        let inner = match &split {
            Ok(Split::Interface(s)) => Ok(s.trailing()),
            Ok(Split::Level(h)) if has_level && kind == PrecondKind::Schur2 => {
                Ilu0::factor_shifted(level0(h).reduced()).map(Inner::Factors)
            }
            _ => Ok(Inner::Hierarchy),
        };
        // [ranks refusing, ranks with nothing to eliminate, ranks whose
        // inner solver failed]
        let mut votes =
            [split.is_err(), !has_level, inner.is_err()].map(|v| f64::from(u8::from(v)));
        comm.allreduce_sum_vec(&mut votes, tags::SCHUR_BUILD_VOTE);
        let [refused, unsplit, inner_failed] = votes;
        if refused > 0.0 {
            return Err(voted_down(split));
        }
        let (split, inner) = match split.expect("no rank refused") {
            Split::Level(h) if unsplit > 0.0 => (Split::Whole(h), Inner::Hierarchy),
            _ if inner_failed > 0.0 => return Err(voted_down(inner)),
            split => (split, inner.expect("no inner solver failed")),
        };
        let iface_pos = split.interface_positions(&dm.layout);
        drop(schur_extract);

        if matches!(kind, PrecondKind::SchurML { .. }) && parapre_metrics::recording() {
            // Per-rank facts (interface sizes differ by rank): rank scope,
            // not the process registry.
            use parapre_metrics::{gauge, names};
            let hier = split.hierarchy().expect("an ARMS rung");
            gauge(names::SCHURML_LEVEL_COUNT, hier.arms().n_levels() as f64);
            gauge(
                names::SCHURML_CORRECTION_RANK,
                hier.max_correction_rank() as f64,
            );
            for (d, lvl) in hier.arms().levels().iter().enumerate() {
                gauge(&names::schurml_level_interface(d), lvl.n_coarse() as f64);
            }
        }

        let _s = parapre_metrics::span(parapre_metrics::names::INTERFACE_ASSEMBLY);
        Ok(Self::assemble(dm, split, iface_pos, schur_iters, inner))
    }

    fn assemble(
        dm: &DistMatrix,
        split: Split,
        iface_pos: Vec<usize>,
        schur_iters: usize,
        inner: Inner,
    ) -> Self {
        SchurPrecond {
            layout: dm.layout.clone(),
            split,
            iface_pos,
            e_ext: dm.interface_couplings(),
            schur_iters,
            inner,
        }
    }

    /// Health report of the factorization that decides the rung: the ILUT
    /// factors of `Schur 1`, the last ARMS level otherwise. It carries the
    /// diagonal shifts a `Schur 1` or `Schur 2` build took (a `SchurML`
    /// build is clean by construction).
    pub fn report(&self) -> &parapre_sparse::FactorReport {
        match &self.split {
            Split::Interface(s) => s.factors.report(),
            Split::Level(h) | Split::Whole(h) => h.arms().report(),
        }
    }

    /// Size of this rank's part of the Schur system (0 on a whole-block
    /// build).
    pub fn schur_dim(&self) -> usize {
        match &self.split {
            Split::Interface(_) => self.layout.n_interface,
            Split::Level(h) => level0(h).n_coarse(),
            Split::Whole(_) => 0,
        }
    }

    /// Number of interdomain-interface unknowns inside the Schur system.
    pub fn n_interdomain(&self) -> usize {
        self.layout.n_interface
    }

    /// Elimination levels in this rank's hierarchy (0 for `Schur 1`).
    pub fn level_count(&self) -> usize {
        self.split.hierarchy().map_or(0, |h| h.arms().n_levels())
    }

    /// Largest achieved low-rank correction rank across the levels
    /// (always 0 for `Schur 1` and `Schur 2`).
    pub fn correction_rank(&self) -> usize {
        self.split
            .hierarchy()
            .map_or(0, SchurMlHierarchy::max_correction_rank)
    }
}

/// The global Schur operator: the local product `C y − E B̃⁻¹ F y` plus the
/// interdomain ghost couplings.
struct SchurSystem<'a>(&'a SchurPrecond);

impl DistOp for SchurSystem<'_> {
    fn n_owned(&self) -> usize {
        self.0.schur_dim()
    }
    fn apply(&self, comm: &mut Comm, y: &[f64], out: &mut [f64]) {
        let p = self.0;
        let [c, e, f] = p.split.blocks();
        c.spmv(y, out);
        let mut fy = f.mul_vec(y);
        p.split.solve_b(&mut fy);
        e.spmv_acc(-1.0, &fy, out);
        let y_if: Vec<f64> = p.iface_pos.iter().map(|&k| y[k]).collect();
        let mut ghosts = vec![0.0; p.layout.n_ghost];
        p.layout.exchange_interface(comm, &y_if, &mut ghosts);
        for (&k, v) in p.iface_pos.iter().zip(p.e_ext.mul_vec(&ghosts)) {
            out[k] += v;
        }
    }
}

/// The communication-free local solve of the Schur block.
struct LocalSchurSolve<'a>(&'a SchurPrecond);

impl DistPrecond for LocalSchurSolve<'_> {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        match (&self.0.inner, &self.0.split) {
            (Inner::Factors(lu), _) => {
                z.copy_from_slice(r);
                lu.solve_in_place(z);
            }
            (Inner::Hierarchy, Split::Level(h)) => z.copy_from_slice(&h.solve_from(1, r)),
            _ => unreachable!("{WHOLE}"),
        }
    }
}

impl DistPrecond for SchurPrecond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let (op, m) = (SchurSystem(self), LocalSchurSolve(self));
        let coarse = |g: &[f64], zc: &mut [f64]| {
            DistGmres::fixed_effort(comm, &op, &m, self.schur_iters, g, zc);
        };
        match &self.split {
            Split::Interface(s) => s.sweep(r, z, coarse),
            Split::Level(h) => level0(h).sweep(r, z, coarse),
            Split::Whole(h) => Preconditioner::apply(h, r, z),
        }
    }

    /// The split is refactored on its frozen structure — ILUT's pattern, or
    /// the hierarchy's retained independent sets with its low-rank
    /// corrections relearned ([`SchurMlHierarchy::refactor`]) — and the
    /// inner solver follows it: `Schur 1` cuts the trailing block again,
    /// `Schur 2`'s distributed ILU(0) refactors inside its own pattern, into
    /// which the freshly dropped level-0 block is projected. Strict: a
    /// refactorization never shifts or fixes a pivot, it fails instead. The
    /// split was agreed collectively at build time and depends only on the
    /// frozen structure, so no rank needs to ask again.
    fn refactor(&self, _comm: &mut Comm, dm: &DistMatrix) -> Result<Box<dyn DistPrecond>> {
        crate::runner::same_local_shape(&self.layout, &dm.layout)?;
        let a_i = dm.owned_block();
        let split = match &self.split {
            Split::Interface(s) => InterfaceSplit::split(dm, s.factors.refactor(&a_i)?, s.b_iters),
            Split::Level(h) => Split::Level(h.refactor(&a_i)?),
            Split::Whole(h) => Split::Whole(h.refactor(&a_i)?),
        };
        let inner = match (&self.inner, &split) {
            (_, Split::Interface(s)) => s.trailing(),
            (Inner::Factors(lu), Split::Level(h)) => {
                Inner::Factors(lu.refactor(level0(h).reduced())?)
            }
            _ => Inner::Hierarchy,
        };
        Ok(Box::new(Self::assemble(
            dm,
            split,
            self.iface_pos.clone(),
            self.schur_iters,
            inner,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tc1;
    use parapre_dist::{scatter_vector, GmresConfig};
    use parapre_mpisim::Universe;
    use parapre_sparse::Coo;

    const RUNGS: [PrecondKind; 3] = [
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::schurml_default(),
    ];

    /// Outer iterations and convergence flag of one solve.
    fn run(
        kind: PrecondKind,
        params: &PrecondParams,
        (a, b, owner): (&Csr, &[f64], &[u32]),
        p: usize,
    ) -> (usize, bool) {
        let out = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let m = SchurPrecond::build(kind, &dm, comm, params).unwrap();
            let b_loc = scatter_vector(&dm.layout, b);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(GmresConfig {
                max_iters: 300,
                ..GmresConfig::distributed()
            })
            .solve(comm, &dm, &m, &b_loc, &mut x);
            (rep.iterations, rep.converged)
        });
        out[0]
    }

    /// `probe(&m)` of every rank's preconditioner on TC1 16², P = 4.
    fn probe<T: Send>(kind: PrecondKind, probe: impl Fn(&SchurPrecond) -> T + Sync) -> Vec<T> {
        let p = 4;
        let (a, _b, owner) = tc1(16, p, 3);
        let (a, owner, probe) = (&a, &owner, &probe);
        Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            probe(&SchurPrecond::build(kind, &dm, comm, &PrecondParams::default()).unwrap())
        })
    }

    #[test]
    fn every_rung_converges_fast() {
        let p = 4;
        let (a, b, owner) = tc1(20, p, 5);
        for kind in RUNGS {
            let (it, conv) = run(kind, &PrecondParams::default(), (&a, &b, &owner), p);
            assert!(conv, "{kind:?}");
            assert!(it <= 20, "{kind:?} iterations {it}");
        }
    }

    #[test]
    fn every_rung_works_on_a_single_rank() {
        let (a, b, owner0) = tc1(10, 2, 1);
        let owner: Vec<u32> = owner0.iter().map(|_| 0).collect();
        for kind in RUNGS {
            let (it, conv) = run(kind, &PrecondParams::default(), (&a, &b, &owner), 1);
            assert!(conv, "single-rank {kind:?} failed after {it} iterations");
        }
    }

    #[test]
    fn more_schur1_iterations_do_not_hurt() {
        let p = 4;
        let (a, b, owner) = tc1(16, p, 9);
        let it = |k: usize| {
            let params = PrecondParams {
                schur1_iters: k,
                ..Default::default()
            };
            let (it, conv) = run(PrecondKind::Schur1, &params, (&a, &b, &owner), p);
            assert!(conv, "k={k}");
            it
        };
        let (it2, it8) = (it(2), it(8));
        assert!(it8 <= it2 + 2, "k=8 gave {it8}, k=2 gave {it2}");
    }

    #[test]
    fn the_schur_systems_hold_the_interface() {
        for kind in RUNGS {
            let sizes = probe(kind, |m| {
                (m.schur_dim(), m.n_interdomain(), m.correction_rank())
            });
            for &(dim, interdomain, rank) in &sizes {
                assert!(dim >= interdomain, "{kind:?}: {dim} < {interdomain}");
                if kind != PrecondKind::schurml_default() {
                    assert_eq!(rank, 0, "{kind:?} learns no correction");
                }
            }
            // Schur 1's system is the interdomain interface; the expanded
            // systems add the local interfaces.
            let grows = sizes.iter().any(|&(dim, inter, _)| dim > inter);
            assert_eq!(grows, kind != PrecondKind::Schur1, "{kind:?}: {sizes:?}");
        }
    }

    #[test]
    fn schur2_iteration_counts_very_stable_in_p() {
        // The paper's Schur 2 hallmark.
        let mut counts = Vec::new();
        for &p in &[2usize, 6] {
            let (a, b, owner) = tc1(20, p, 5);
            let params = PrecondParams::default();
            let (it, conv) = run(PrecondKind::Schur2, &params, (&a, &b, &owner), p);
            assert!(conv);
            counts.push(it as i64);
        }
        assert!((counts[1] - counts[0]).abs() <= 6, "{counts:?}");
    }

    #[test]
    fn schurml_reports_levels_and_correction_rank() {
        let stats = probe(PrecondKind::schurml_default(), |m| {
            (m.level_count(), m.correction_rank(), m.schur_dim())
        });
        for &(levels, rank, dim) in &stats {
            assert!(levels >= 1, "no elimination level");
            assert!(rank <= parapre_krylov::MAX_CORRECTION_RANK);
            assert!(dim > 0, "empty expanded system");
        }
        assert!(
            stats.iter().any(|&(_, rank, _)| rank >= 1),
            "no rank built any correction: {stats:?}"
        );
    }

    #[test]
    fn schurml_refuses_zero_pivot_matrices_jointly() {
        // Alternating exactly-zero / near-zero diagonals: elimination fill
        // cannot rescue the coarse block, so its unshifted factorization is
        // unhealthy and every rank's build must return Err (together),
        // leaving the fallback ladder to descend to Schur 2.
        let n = 64;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            let d = if i % 2 == 0 { 0.0 } else { 1e-14 };
            coo.push(i, i, d);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        let a = coo.to_csr();
        let p = 2;
        let owner: Vec<u32> = (0..n).map(|i| (i * p / n) as u32).collect();
        let (a, owner) = (&a, &owner);
        let errs = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let kind = PrecondKind::schurml_default();
            SchurPrecond::build(kind, &dm, comm, &PrecondParams::default()).is_err()
        });
        assert!(errs.iter().all(|&e| e), "some rank built anyway: {errs:?}");
    }
}
