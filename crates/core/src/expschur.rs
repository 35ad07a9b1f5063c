//! The expanded-Schur preconditioner: the paper's `Schur 2` (§2, Fig. 2)
//! and `SchurML`, the rung above it on the fallback ladder — one struct,
//! one operator, one level sweep.
//!
//! Each rank applies one group-independent-set elimination (ARMS level) to
//! its owned block, **pinning the interdomain-interface unknowns to the
//! coarse set**. What remains after the elimination is the *expanded Schur
//! complement*: local interfaces (left over by the independent-set
//! reordering) plus the interdomain interfaces. An application is the
//! block-LU sweep through that level ([`ArmsLevel::sweep`]) with a few
//! distributed GMRES iterations on the global expanded Schur system as its
//! coarse solve. Because the eliminated block `B` is *exactly* block
//! diagonal (small dense group blocks, factored exactly), the substitutions
//! around the global solve are exact; the approximation lives in the Schur
//! iteration and the dropping — this is why the paper finds `Schur 2` to
//! have "the most stable iteration counts with respect to P" at a higher
//! per-iteration cost.
//!
//! The two kinds differ in what preconditions that iteration — the local
//! solver of each rank's (dropped) expanded-Schur block, applied with no
//! communication — and in their build policy:
//!
//! - **`Schur 2`** ([`ExpandedSchurPrecond::schur2`]): a **distributed
//!   ILU(0)**, i.e. ILU(0) of the local block. Both factorizations go
//!   through the diagonal-shift retry ladder.
//! - **`SchurML`** ([`ExpandedSchurPrecond::schurml`]): the **corrected
//!   multilevel hierarchy** ([`SchurMlHierarchy`]) from depth 1 — the local
//!   block is itself reduced through further independent-set levels down to
//!   an ILUT-factored coarsest block, and every level's dropped Schur
//!   approximation carries a low-rank correction `V·C·Vᵀ` learned from a
//!   few Arnoldi vectors on its error operator. The stronger local solve is
//!   what keeps the interface iteration counts flat(ter) as P grows.
//!   `SchurML` deliberately refuses factorizations that needed diagonal
//!   shifts or pivot fixes: the correction inverts `(I − H)` on the probed
//!   error modes, and an unstably factored coarse block turns that
//!   inversion into noise amplification — on such matrices the honest move
//!   is to fail the collective build vote and let the ladder descend to the
//!   shift-tolerant `Schur 2`.

use parapre_dist::{DistGmres, DistMatrix, DistOp, DistPrecond, LocalLayout};
use parapre_krylov::arms::ArmsLevel;
use parapre_krylov::{Arms, ArmsConfig, Ilu0, LuFactors, Preconditioner, SchurMlHierarchy};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Error, Result};

/// Parameters of an expanded-Schur preconditioner.
#[derive(Debug, Clone, Copy)]
pub struct ExpSchurConfig {
    /// Parameters of the per-level reductions. `Schur 2` reads all of
    /// them; `SchurML` takes its depth from the `levels` knob of its kind
    /// instead of `n_levels`.
    pub arms: ArmsConfig,
    /// Distributed GMRES iterations on the expanded Schur system.
    pub schur_iters: usize,
}

/// The local solver of the expanded-Schur block — the inner preconditioner
/// of the global Schur iteration, and the one thing in which the two kinds
/// differ at apply time.
enum Inner {
    /// `Schur 2`: ILU(0) of the dropped local block (the distributed ILU(0)).
    DistIlu0(LuFactors),
    /// `SchurML`: the hierarchy from depth 1 (deeper reductions, ILUT
    /// coarsest solve, per-level low-rank corrections). Also stands in on
    /// degenerate builds of either kind, which never consult it.
    Hierarchy,
}

/// The assembled expanded-Schur preconditioner for one rank.
pub struct ExpandedSchurPrecond {
    layout: LocalLayout,
    /// `Schur 2` holds a hierarchy of rank 0, which is its ARMS
    /// factorization and nothing else.
    hier: SchurMlHierarchy,
    /// Reduced position of each owned local id (`usize::MAX` if eliminated).
    red_of_local: Vec<usize>,
    /// Interface rows × ghost couplings, from the distributed matrix.
    e_ext: Csr,
    /// All ranks found an elimination level (agreed collectively at build
    /// time so every rank takes the same code path).
    multilevel: bool,
    schur_iters: usize,
    inner: Inner,
}

/// Flags pinning the interdomain-interface unknowns to the coarse set
/// through every reduction.
fn pinned_interface(layout: &LocalLayout) -> Vec<bool> {
    let mut forced = vec![false; layout.n_owned()];
    for f in forced.iter_mut().skip(layout.n_internal) {
        *f = true;
    }
    forced
}

/// The rank-identical error of a build the ranks voted down.
fn voted_down<T>(local: Result<T>) -> Error {
    local.err().unwrap_or(Error::ZeroPivot(0))
}

impl ExpandedSchurPrecond {
    /// Builds `Schur 2`; collective (all ranks must call). Both subdomain
    /// factorizations (ARMS, and ILU(0) of the reduced block) go through
    /// the diagonal-shift retry ladder, which a healthy plain factorization
    /// wins untouched.
    pub fn schur2(dm: &DistMatrix, comm: &mut Comm, cfg: ExpSchurConfig) -> Result<Self> {
        // Do NOT `?` out before the collectives below: an early local return
        // would leave the peer ranks blocked in `all_land` forever. Capture
        // the local result, agree on the outcome, then fail jointly.
        let a_i = dm.owned_block();
        let forced = pinned_interface(&dm.layout);
        let arms_res = {
            let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
            Arms::factor_with_coarse_shifted(&a_i, &cfg.arms, &forced)
        };
        let local_ok = arms_res.as_ref().is_ok_and(|a| a.n_levels() >= 1);
        let multilevel = comm.all_land(local_ok, parapre_dist::tags::REDUCE + 40);
        let all_built = comm.all_land(arms_res.is_ok(), parapre_dist::tags::REDUCE + 41);
        if !all_built {
            // Every rank returns Err together (rank-identical decision), so
            // callers can descend the fallback ladder in lockstep.
            return Err(voted_down(arms_res));
        }
        let hier = SchurMlHierarchy::from_arms(arms_res.expect("all_built implies local Ok"), 0);

        let schur_extract = parapre_metrics::span(parapre_metrics::names::SCHUR_EXTRACT);
        let red_of_local = Self::reduced_positions(&hier, multilevel, dm.layout.n_owned());
        // The reduced-block ILU(0) is local (no collectives), but wrap the
        // fallibility the same way: decide success collectively below.
        let local_inner = if multilevel {
            Ilu0::factor_shifted(hier.arms().levels()[0].reduced()).map(Inner::DistIlu0)
        } else {
            Ok(Inner::Hierarchy)
        };
        let all_schur_ok = comm.all_land(local_inner.is_ok(), parapre_dist::tags::REDUCE + 42);
        if !all_schur_ok {
            return Err(voted_down(local_inner));
        }
        let inner = local_inner.expect("agreed Ok");
        drop(schur_extract);

        let _s = parapre_metrics::span(parapre_metrics::names::INTERFACE_ASSEMBLY);
        Ok(Self::assemble(
            dm,
            hier,
            red_of_local,
            multilevel,
            cfg.schur_iters,
            inner,
        ))
    }

    /// Builds `SchurML` with `levels` elimination levels in the local
    /// hierarchy (level 0 splits off the expanded Schur complement; deeper
    /// levels reduce it further) and `rank` Arnoldi vectors per level for
    /// the low-rank corrections; collective (all ranks must call).
    ///
    /// Fails — jointly, on every rank — when any rank's hierarchy cannot be
    /// factored *cleanly*: a factorization error, a pivot fix, or an
    /// unhealthy coarsest block all vote the build down (see the module
    /// docs for why `SchurML` refuses shifted factorizations instead of
    /// retrying them).
    pub fn schurml(
        dm: &DistMatrix,
        comm: &mut Comm,
        cfg: ExpSchurConfig,
        levels: usize,
        rank: usize,
    ) -> Result<Self> {
        // As in `schur2`: no `?` before the collectives.
        let a_i = dm.owned_block();
        let forced = pinned_interface(&dm.layout);
        // `n_levels = L + 1` yields L elimination levels before the
        // coarsest ILUT block.
        let arms_cfg = ArmsConfig {
            n_levels: levels + 1,
            ..cfg.arms
        };
        let hier_res = {
            let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
            Arms::factor_with_coarse(&a_i, &arms_cfg, &forced)
                .map(|arms| SchurMlHierarchy::from_arms(arms, rank))
        };
        let local_clean = hier_res.as_ref().is_ok_and(|h| {
            let last = h.arms().last_factors();
            last.report().healthy() && last.pivot_fixes() == 0
        });
        let local_ok = hier_res.as_ref().is_ok_and(|h| h.arms().n_levels() >= 1);
        let all_clean = comm.all_land(local_clean, parapre_dist::tags::REDUCE + 43);
        let multilevel = comm.all_land(local_ok, parapre_dist::tags::REDUCE + 44);
        if !all_clean {
            return Err(voted_down(hier_res));
        }
        let hier = hier_res.expect("all_clean implies local Ok");

        let red_of_local = {
            let _s = parapre_metrics::span(parapre_metrics::names::SCHUR_EXTRACT);
            Self::reduced_positions(&hier, multilevel, dm.layout.n_owned())
        };

        // Per-rank facts (interface sizes differ by rank): rank scope, not
        // the process registry.
        if parapre_metrics::recording() {
            use parapre_metrics::{gauge, names};
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
        Ok(Self::assemble(
            dm,
            hier,
            red_of_local,
            multilevel,
            cfg.schur_iters,
            Inner::Hierarchy,
        ))
    }

    /// Where each owned unknown sits in the level-0 reduced system. On a
    /// degenerate build (tiny subdomains: some rank found nothing to
    /// eliminate) there is no reduced system, and every rank applies its
    /// local hierarchy to the whole block instead of the Schur iteration.
    fn reduced_positions(hier: &SchurMlHierarchy, multilevel: bool, n_owned: usize) -> Vec<usize> {
        let mut red_of_local = vec![usize::MAX; n_owned];
        if multilevel {
            let lvl = &hier.arms().levels()[0];
            for k in 0..lvl.n_coarse() {
                red_of_local[lvl.perm().old_of(lvl.n_ind() + k)] = k;
            }
        }
        red_of_local
    }

    fn assemble(
        dm: &DistMatrix,
        hier: SchurMlHierarchy,
        red_of_local: Vec<usize>,
        multilevel: bool,
        schur_iters: usize,
        inner: Inner,
    ) -> Self {
        ExpandedSchurPrecond {
            layout: dm.layout.clone(),
            hier,
            red_of_local,
            e_ext: dm.split_blocks().e_ext,
            multilevel,
            schur_iters,
            inner,
        }
    }

    /// The elimination level that splits off the expanded Schur complement.
    fn level0(&self) -> &ArmsLevel {
        &self.hier.arms().levels()[0]
    }

    /// Health report of the last-level factorization, including any
    /// diagonal shifts a `Schur 2` build took (a `SchurML` build is clean
    /// by construction: shifted or pivot-fixed builds are rejected).
    pub fn report(&self) -> &parapre_sparse::FactorReport {
        self.hier.arms().report()
    }

    /// Size of this rank's expanded-interface (level-0 reduced) system.
    pub fn expanded_dim(&self) -> usize {
        if self.multilevel {
            self.level0().n_coarse()
        } else {
            0
        }
    }

    /// Number of interdomain-interface unknowns inside the expanded system.
    pub fn n_interdomain(&self) -> usize {
        self.layout.n_interface
    }

    /// Elimination levels in this rank's hierarchy.
    pub fn level_count(&self) -> usize {
        self.hier.arms().n_levels()
    }

    /// Largest achieved low-rank correction rank across the levels
    /// (always 0 for `Schur 2`).
    pub fn correction_rank(&self) -> usize {
        self.hier.max_correction_rank()
    }
}

/// The global expanded-Schur operator: exact local Schur product plus
/// interdomain ghost couplings.
struct ExpSchurOp<'a> {
    p: &'a ExpandedSchurPrecond,
}

impl DistOp for ExpSchurOp<'_> {
    fn n_owned(&self) -> usize {
        self.p.expanded_dim()
    }
    fn apply(&self, comm: &mut Comm, z: &[f64], out: &mut [f64]) {
        let p = self.p;
        let lvl = p.level0();
        // Local exact Schur action: C z − E B⁻¹ (F z)  (B block-diagonal,
        // solved exactly).
        lvl.c_block().spmv(z, out);
        let mut fz = lvl.f_block().mul_vec(z);
        lvl.solve_b(&mut fz);
        lvl.e_block().spmv_acc(-1.0, &fz, out);
        // Cross-subdomain couplings on the interdomain interface rows.
        let lay = &p.layout;
        let ni = lay.n_internal;
        let mut y_if = vec![0.0; lay.n_interface];
        for (k, y) in y_if.iter_mut().enumerate() {
            let red = p.red_of_local[ni + k];
            debug_assert_ne!(red, usize::MAX, "interface unknown eliminated");
            *y = z[red];
        }
        let mut ghosts = vec![0.0; lay.n_ghost];
        lay.exchange_interface(comm, &y_if, &mut ghosts);
        let eg = p.e_ext.mul_vec(&ghosts);
        for (k, &v) in eg.iter().enumerate() {
            out[p.red_of_local[ni + k]] += v;
        }
    }
}

/// The communication-free local solve of the expanded-Schur block — the
/// inner preconditioner of the global Schur iteration.
struct LocalSchurSolve<'a> {
    p: &'a ExpandedSchurPrecond,
}

impl DistPrecond for LocalSchurSolve<'_> {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        match &self.p.inner {
            Inner::DistIlu0(lu) => {
                z.copy_from_slice(r);
                lu.solve_in_place(z);
            }
            Inner::Hierarchy => z.copy_from_slice(&self.p.hier.solve_from(1, r)),
        }
    }
}

impl DistPrecond for ExpandedSchurPrecond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        if !self.multilevel {
            // Collective fallback: every rank applies its local hierarchy
            // to the whole block.
            return Preconditioner::apply(&self.hier, r, z);
        }
        let op = ExpSchurOp { p: self };
        let m = LocalSchurSolve { p: self };
        // Global expanded Schur solve: a few distributed GMRES iterations
        // between the level's exact forward and backward substitutions.
        self.level0().sweep(r, z, |g, zc| {
            DistGmres::fixed_effort(comm, &op, &m, self.schur_iters, g, zc);
        });
    }

    /// Levels are rebuilt on their retained independent sets and the
    /// low-rank corrections relearned ([`SchurMlHierarchy::refactor`]); the
    /// distributed ILU(0) refactors inside its own pattern, into which the
    /// freshly dropped expanded-Schur block is projected. Strict for both
    /// kinds: a refactorization never shifts or fixes a pivot, it fails
    /// instead. `multilevel` was agreed collectively at build time and
    /// depends only on the retained sets, so no rank needs to ask again.
    fn refactor(&self, dm: &DistMatrix, _a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        crate::runner::same_local_shape(&self.layout, &dm.layout)?;
        let hier = self.hier.refactor(&dm.owned_block())?;
        let inner = match &self.inner {
            Inner::DistIlu0(lu) => Inner::DistIlu0(lu.refactor(hier.arms().levels()[0].reduced())?),
            Inner::Hierarchy => Inner::Hierarchy,
        };
        Ok(Box::new(Self::assemble(
            dm,
            hier,
            self.red_of_local.clone(),
            self.multilevel,
            self.schur_iters,
            inner,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{PrecondKind, PrecondParams};
    use crate::testutil::tc1;
    use parapre_dist::{scatter_vector, DistGmresConfig};
    use parapre_mpisim::Universe;
    use parapre_sparse::Coo;

    const KINDS: [PrecondKind; 2] = [PrecondKind::Schur2, PrecondKind::schurml_default()];

    fn build(kind: PrecondKind, dm: &DistMatrix, comm: &mut Comm) -> Result<ExpandedSchurPrecond> {
        let params = PrecondParams::default();
        match kind {
            PrecondKind::Schur2 => ExpandedSchurPrecond::schur2(dm, comm, params.schur2),
            PrecondKind::SchurML { levels, rank } => {
                ExpandedSchurPrecond::schurml(dm, comm, params.schurml, levels, rank)
            }
            other => panic!("{other:?} is not an expanded-Schur kind"),
        }
    }

    /// Outer iterations and convergence flag of one solve.
    fn run(kind: PrecondKind, a: &Csr, b: &[f64], owner: &[u32], p: usize) -> (usize, bool) {
        let out = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let m = build(kind, &dm, comm).unwrap();
            let b_loc = scatter_vector(&dm.layout, b);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(DistGmresConfig {
                max_iters: 300,
                ..Default::default()
            })
            .solve(comm, &dm, &m, &b_loc, &mut x);
            (rep.iterations, rep.converged)
        });
        out[0]
    }

    /// `probe(&m)` of every rank's preconditioner on TC1 16², P = 4.
    fn probe<T: Send>(
        kind: PrecondKind,
        probe: impl Fn(&ExpandedSchurPrecond) -> T + Sync,
    ) -> Vec<T> {
        let p = 4;
        let (a, _b, owner) = tc1(16, p, 3);
        let (a, owner, probe) = (&a, &owner, &probe);
        Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            probe(&build(kind, &dm, comm).unwrap())
        })
    }

    #[test]
    fn both_kinds_converge_fast() {
        let p = 4;
        let (a, b, owner) = tc1(20, p, 5);
        for kind in KINDS {
            let (it, conv) = run(kind, &a, &b, &owner, p);
            assert!(conv, "{kind:?}");
            assert!(it <= 20, "{kind:?} iterations {it}");
        }
    }

    #[test]
    fn both_kinds_degenerate_gracefully_on_a_single_rank() {
        let (a, b, owner0) = tc1(10, 2, 1);
        let owner: Vec<u32> = owner0.iter().map(|_| 0).collect();
        for kind in KINDS {
            let (it, conv) = run(kind, &a, &b, &owner, 1);
            assert!(conv, "single-rank {kind:?} failed after {it} iterations");
        }
    }

    #[test]
    fn schur2_expanded_system_contains_both_interface_kinds() {
        let sizes = probe(PrecondKind::Schur2, |m| {
            assert_eq!(m.correction_rank(), 0, "Schur 2 learns no correction");
            (m.expanded_dim(), m.n_interdomain())
        });
        for &(exp, interdomain) in &sizes {
            // Expanded set ⊇ interdomain interfaces, and strictly larger in
            // general (local interfaces exist).
            assert!(exp >= interdomain, "{exp} < {interdomain}");
        }
        assert!(
            sizes.iter().any(|&(exp, inter)| exp > inter),
            "no local interfaces found: {sizes:?}"
        );
    }

    #[test]
    fn schur2_iteration_counts_very_stable_in_p() {
        // The paper's Schur 2 hallmark.
        let mut counts = Vec::new();
        for &p in &[2usize, 6] {
            let (a, b, owner) = tc1(20, p, 5);
            let (it, conv) = run(PrecondKind::Schur2, &a, &b, &owner, p);
            assert!(conv);
            counts.push(it as i64);
        }
        assert!((counts[1] - counts[0]).abs() <= 6, "{counts:?}");
    }

    #[test]
    fn schurml_reports_levels_and_correction_rank() {
        let stats = probe(PrecondKind::schurml_default(), |m| {
            (m.level_count(), m.correction_rank(), m.expanded_dim())
        });
        for &(levels, rank, exp) in &stats {
            assert!(levels >= 1, "no elimination level");
            assert!(rank <= parapre_krylov::MAX_CORRECTION_RANK);
            assert!(exp > 0, "empty expanded system");
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
        let a_ref = &a;
        let owner_ref = &owner;
        let errs = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            build(PrecondKind::schurml_default(), &dm, comm).is_err()
        });
        assert!(errs.iter().all(|&e| e), "some rank built anyway: {errs:?}");
    }
}
