//! `SchurML` — the multilevel expanded-Schur preconditioner with low-rank
//! corrections, the rung **above** `Schur 2` on the fallback ladder.
//!
//! Structure per rank, mirroring [`crate::schur2`]: one group-independent-set
//! elimination pins the interdomain-interface unknowns coarse, leaving the
//! *expanded Schur complement* (local + interdomain interfaces). The global
//! expanded-Schur system is solved with a few distributed GMRES iterations —
//! but where `Schur 2` preconditions that iteration with a communication-free
//! ILU(0) of the local Schur block, `SchurML` preconditions it with the
//! **corrected multilevel hierarchy** ([`parapre_krylov::SchurMlHierarchy`]):
//! the local Schur block is itself reduced through further independent-set
//! levels down to an ILUT-factored coarsest block, and every level's dropped
//! Schur approximation carries a low-rank correction `V·C·Vᵀ` learned from a
//! few Arnoldi vectors on its error operator. The stronger local solve is
//! what keeps the interface iteration counts flat(ter) as P grows.
//!
//! **Build policy:** `SchurML` deliberately refuses factorizations that
//! needed diagonal shifts or pivot fixes. The low-rank correction inverts
//! `(I − H)` on the probed error modes, and an unstably factored coarse
//! block turns that inversion into noise amplification — on such matrices
//! the honest move is to fail the collective build vote and let the ladder
//! descend to the shift-tolerant `Schur 2`.

use parapre_dist::{DistGmres, DistGmresConfig, DistMatrix, DistOp, DistPrecond, LocalLayout};
use parapre_krylov::{ArmsConfig, IlutConfig, SchurMlConfig, SchurMlHierarchy};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Result};

/// Parameters of the `SchurML` preconditioner. `levels` and `rank` are the
/// knobs carried by `PrecondKind::SchurML`; the rest tune the per-level
/// reductions and the expanded-Schur iteration.
#[derive(Debug, Clone, Copy)]
pub struct SchurMLConfig {
    /// Elimination levels in the local hierarchy (level 0 splits off the
    /// expanded Schur complement; deeper levels reduce it further).
    pub levels: usize,
    /// Arnoldi vectors per level for the low-rank corrections (clamped to
    /// [`parapre_krylov::MAX_CORRECTION_RANK`]); 0 disables them.
    pub rank: usize,
    /// Maximum unknowns per independent group at every level.
    pub group_size: usize,
    /// Relative drop tolerance for the per-level Schur approximations.
    pub drop_tol: f64,
    /// Coarsest-block ILUT parameters.
    pub ilut: IlutConfig,
    /// Stop reducing once a level's system is this small.
    pub min_reduced: usize,
    /// Distributed GMRES iterations on the expanded Schur system. Deeper
    /// than `Schur 2`'s default: each application of the corrected
    /// hierarchy is a stronger inner preconditioner, so the extra sweeps
    /// convert directly into flat outer iteration counts as `P` grows
    /// (the E15 bench gates on this).
    pub schur_iters: usize,
}

impl Default for SchurMLConfig {
    fn default() -> Self {
        SchurMLConfig {
            levels: 2,
            rank: 8,
            group_size: 8,
            drop_tol: 1e-3,
            ilut: IlutConfig::default(),
            min_reduced: 10,
            schur_iters: 10,
        }
    }
}

impl SchurMLConfig {
    fn hierarchy_config(&self) -> SchurMlConfig {
        SchurMlConfig {
            arms: ArmsConfig {
                // `n_levels = L + 1` yields L elimination levels before the
                // coarsest ILUT block.
                n_levels: self.levels + 1,
                group_size: self.group_size,
                drop_tol: self.drop_tol,
                ilut: self.ilut,
                min_reduced: self.min_reduced,
            },
            rank: self.rank,
        }
    }
}

/// The assembled `SchurML` preconditioner for one rank.
pub struct SchurMLPrecond {
    layout: LocalLayout,
    hier: SchurMlHierarchy,
    /// Reduced position of each owned local id (`usize::MAX` if eliminated).
    red_of_local: Vec<usize>,
    /// Interface rows × ghost couplings, from the distributed matrix.
    e_ext: Csr,
    /// All ranks found an elimination level (agreed collectively at build
    /// time so every rank takes the same code path).
    multilevel: bool,
    schur_iters: usize,
}

impl SchurMLPrecond {
    /// Builds the preconditioner; collective (all ranks must call).
    ///
    /// Fails — jointly, on every rank — when any rank's hierarchy cannot be
    /// factored *cleanly*: a factorization error, a pivot fix, or an
    /// unhealthy coarsest block all vote the build down (see the module
    /// docs for why `SchurML` refuses shifted factorizations instead of
    /// retrying them).
    pub fn build(dm: &DistMatrix, comm: &mut Comm, cfg: SchurMLConfig) -> Result<Self> {
        let a_i = dm.owned_block();
        let no = dm.layout.n_owned();
        let ni = dm.layout.n_internal;
        // Pin interdomain interface unknowns coarse through every level.
        let mut forced = vec![false; no];
        for f in forced.iter_mut().skip(ni) {
            *f = true;
        }
        // Do NOT `?` out before the collectives below: an early local return
        // would leave the peer ranks blocked in `all_land` forever. Capture
        // the local result, agree on the outcome, then fail jointly.
        let hier_res = {
            let _s = parapre_trace::span(parapre_trace::phase::FACTOR);
            SchurMlHierarchy::factor(&a_i, &cfg.hierarchy_config(), &forced)
        };
        let local_clean = hier_res.as_ref().is_ok_and(|h| {
            let last = h.arms().last_factors();
            last.report().healthy() && last.pivot_fixes() == 0
        });
        let local_ok = hier_res.as_ref().is_ok_and(|h| h.arms().n_levels() >= 1);
        let all_clean = comm.all_land(local_clean, parapre_dist::tags::REDUCE + 43);
        let multilevel = comm.all_land(local_ok, parapre_dist::tags::REDUCE + 44);
        if !all_clean {
            // Every rank returns Err together (rank-identical decision), so
            // callers can descend the fallback ladder in lockstep.
            return Err(hier_res
                .err()
                .unwrap_or(parapre_sparse::Error::ZeroPivot(0)));
        }
        let hier = hier_res.expect("all_clean implies local Ok");

        let _s = parapre_trace::span(parapre_trace::phase::SCHUR_EXTRACT);
        let red_of_local = if multilevel {
            let lvl = &hier.arms().levels()[0];
            let n_ind = lvl.n_ind();
            let mut red_of_local = vec![usize::MAX; no];
            for k in 0..lvl.n_coarse() {
                red_of_local[lvl.perm().old_of(n_ind + k)] = k;
            }
            red_of_local
        } else {
            // Degenerate ranks (tiny subdomains): the whole-block corrected
            // hierarchy solve is applied instead of the Schur iteration.
            vec![usize::MAX; no]
        };
        drop(_s);

        let levels = hier.arms().n_levels();
        parapre_metrics::gauge_set("schurml.level_count", levels as f64);
        parapre_metrics::gauge_set("schurml.correction_rank", hier.max_correction_rank() as f64);
        for (d, lvl) in hier.arms().levels().iter().enumerate() {
            parapre_metrics::gauge_set(
                &format!("schurml.level{d}.interface"),
                lvl.n_coarse() as f64,
            );
        }

        let _s = parapre_trace::span(parapre_trace::phase::INTERFACE_ASSEMBLY);
        Ok(SchurMLPrecond {
            layout: dm.layout.clone(),
            hier,
            red_of_local,
            e_ext: dm.split_blocks().e_ext,
            multilevel,
            schur_iters: cfg.schur_iters,
        })
    }

    /// Health report of the coarsest-block factorization. Always clean by
    /// construction: shifted or pivot-fixed builds are rejected.
    pub fn report(&self) -> &parapre_sparse::FactorReport {
        self.hier.arms().report()
    }

    /// Size of this rank's expanded-interface (level-0 reduced) system.
    pub fn expanded_dim(&self) -> usize {
        if self.multilevel {
            self.hier.arms().levels()[0].n_coarse()
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

    /// Largest achieved low-rank correction rank across the levels.
    pub fn correction_rank(&self) -> usize {
        self.hier.max_correction_rank()
    }
}

/// The global expanded-Schur operator (identical action to `Schur 2`'s:
/// exact local Schur product plus interdomain ghost couplings).
struct ExpSchurOp<'a> {
    p: &'a SchurMLPrecond,
}

impl DistOp for ExpSchurOp<'_> {
    fn n_owned(&self) -> usize {
        self.p.expanded_dim()
    }
    fn apply(&self, comm: &mut Comm, z: &[f64], out: &mut [f64]) {
        let p = self.p;
        let lvl = &p.hier.arms().levels()[0];
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

/// The corrected multilevel solve of the local expanded-Schur block — the
/// inner preconditioner of the global Schur iteration. Communication-free:
/// depth ≥ 1 of the hierarchy (deeper reductions, ILUT coarsest solve, and
/// the per-level low-rank corrections) is purely local.
struct CorrectedSchurSolve<'a> {
    p: &'a SchurMLPrecond,
}

impl DistPrecond for CorrectedSchurSolve<'_> {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let out = self.p.hier.solve_from(1, r);
        z.copy_from_slice(&out);
    }
}

impl DistPrecond for SchurMLPrecond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        if !self.multilevel {
            // Collective fallback: every rank applies its local corrected
            // hierarchy to the whole block.
            let out = self.hier.solve_from(0, r);
            z.copy_from_slice(&out);
            return;
        }
        let lvl = &self.hier.arms().levels()[0];
        let n_ind = lvl.n_ind();
        // Forward sweep in the permuted (independent-set-first) ordering.
        let mut rp = lvl.perm().apply_vec(r);
        lvl.solve_b(&mut rp); // y_B in rp[..n_ind]
        let (yb, rc) = rp.split_at(n_ind);
        let mut gprime = rc.to_vec();
        lvl.e_block().spmv_acc(-1.0, yb, &mut gprime);

        // Global expanded Schur solve, preconditioned by the corrected
        // multilevel solve of the local Schur block.
        let mut zc = vec![0.0; gprime.len()];
        let op = ExpSchurOp { p: self };
        let m = CorrectedSchurSolve { p: self };
        DistGmres::new(DistGmresConfig::inner(self.schur_iters))
            .solve(comm, &op, &m, &gprime, &mut zc);

        // Backward sweep: z_B = y_B − B⁻¹ F z_C.
        let mut fz = lvl.f_block().mul_vec(&zc);
        lvl.solve_b(&mut fz);
        let mut zp = Vec::with_capacity(r.len());
        zp.extend(yb.iter().zip(&fz).map(|(y, f)| y - f));
        zp.extend_from_slice(&zc);
        let out = lvl.perm().apply_inv_vec(&zp);
        z.copy_from_slice(&out);
    }

    /// Levels are rebuilt on their retained independent sets and the
    /// low-rank corrections relearned ([`SchurMlHierarchy::refactor`]).
    /// The strict build policy carries over unchanged: a refactorization
    /// never shifts or fixes a pivot, it fails instead.
    fn refactor(&self, dm: &DistMatrix, _a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        crate::runner::same_local_shape(&self.layout, &dm.layout)?;
        Ok(Box::new(SchurMLPrecond {
            layout: dm.layout.clone(),
            hier: self.hier.refactor(&dm.owned_block())?,
            red_of_local: self.red_of_local.clone(),
            e_ext: dm.split_blocks().e_ext,
            multilevel: self.multilevel,
            schur_iters: self.schur_iters,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_dist::scatter_vector;
    use parapre_fem::{bc, poisson, LinearSystem};
    use parapre_grid::structured::unit_square;
    use parapre_mpisim::Universe;
    use parapre_partition::partition_graph;
    use parapre_sparse::Coo;

    fn tc1(nx: usize, p: usize, seed: u64) -> (Csr, Vec<f64>, Vec<u32>) {
        let mesh = unit_square(nx, nx);
        let (a, b) = poisson::assemble_2d(&mesh, poisson::rhs_tc1);
        let mut sys = LinearSystem { a, b };
        let fixed: Vec<(usize, f64)> = mesh
            .boundary_nodes()
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .map(|(i, _)| (i, poisson::exact_tc1(mesh.coords[i][0], mesh.coords[i][1])))
            .collect();
        bc::apply_dirichlet(&mut sys, &fixed);
        let part = partition_graph(&mesh.adjacency(), p, seed);
        (sys.a, sys.b, part.owner)
    }

    fn run_schurml(a: &Csr, b: &[f64], owner: &[u32], p: usize) -> (usize, bool) {
        let out = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let m = SchurMLPrecond::build(&dm, comm, SchurMLConfig::default()).unwrap();
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

    #[test]
    fn schurml_converges_fast() {
        let p = 4;
        let (a, b, owner) = tc1(20, p, 5);
        let (it, conv) = run_schurml(&a, &b, &owner, p);
        assert!(conv);
        assert!(it <= 20, "SchurML iterations {it}");
    }

    #[test]
    fn schurml_reports_levels_and_correction_rank() {
        let p = 4;
        let (a, _b, owner) = tc1(16, p, 3);
        let a_ref = &a;
        let owner_ref = &owner;
        let stats = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let m = SchurMLPrecond::build(&dm, comm, SchurMLConfig::default()).unwrap();
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
    fn schurml_single_rank_degenerates_gracefully() {
        let (a, b, owner0) = tc1(10, 2, 1);
        let owner: Vec<u32> = owner0.iter().map(|_| 0).collect();
        let (it, conv) = run_schurml(&a, &b, &owner, 1);
        assert!(conv, "single-rank SchurML failed after {it} iterations");
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
            SchurMLPrecond::build(&dm, comm, SchurMLConfig::default()).is_err()
        });
        assert!(errs.iter().all(|&e| e), "some rank built anyway: {errs:?}");
    }
}
