//! The Schur application, written out step by step, pins `SchurPrecond` bit
//! for bit on all three rungs, and every Schur build takes one vote.
//!
//! `Schur 1`, `Schur 2` and `SchurML` are one struct, one operator and one
//! apply. The references here are the applications written out: for
//! `Schur 1`, Algorithm 2.1 — `g' = g − E B̃⁻¹ f` with `B̃⁻¹` a few local GMRES
//! steps preconditioned by the leading ILUT block, distributed GMRES on the
//! interface Schur system preconditioned by the trailing ILUT block, then
//! `B̃⁻¹ (f − F y)`; for the other two, level 0's block-LU sweep — permute,
//! `B⁻¹`, `E`-update, distributed GMRES on an operator and an inner solve
//! built from `ArmsLevel`'s public accessors, back substitution, inverse
//! permute. Each runs over factors the test builds itself with the same
//! (deterministic) calls the constructors make, and shares no code with the
//! preconditioner under test beyond those krylov entry points.

use parapre::core::cases::perturbed;
use parapre::core::{
    build_case, partition_case, try_build_dist_precond, AssembledCase, CaseId, CaseSize,
    PartitionScheme, PrecondKind, PrecondParams,
};
use parapre::dist::{
    scatter_vector, tags, DistGmres, DistMatrix, DistOp, DistPrecond, GmresConfig, LocalBlocks,
    LocalLayout,
};
use parapre::krylov::{
    Arms, ArmsConfig, Gmres, Ilu0, Ilut, LuFactors, Preconditioner, SchurMlHierarchy,
    MAX_CORRECTION_RANK,
};
use parapre::mpisim::{Comm, MachineModel, Universe};
use parapre::sparse::Csr;

/// The local pieces of one rung.
enum Local {
    /// One ILUT factorization of the internal-first block, the blocks of
    /// the split, and the trailing (Schur) block of the factors.
    Schur1 {
        factors: LuFactors,
        blocks: Box<LocalBlocks>,
        trailing: LuFactors,
        b_iters: usize,
    },
    /// ARMS and the ILU(0) of its level-0 reduced block (none when the
    /// build is degenerate).
    Schur2 {
        arms: Arms,
        dist_ilu0: Option<LuFactors>,
    },
    SchurMl {
        hier: SchurMlHierarchy,
    },
}

/// One rank's reference preconditioner.
struct Reference {
    layout: LocalLayout,
    local: Local,
    red_of_local: Vec<usize>,
    e_ext: Csr,
    multilevel: bool,
    schur_iters: usize,
}

impl Reference {
    fn build(kind: PrecondKind, dm: &DistMatrix, comm: &mut Comm) -> Reference {
        let params = PrecondParams::default();
        let a_i = dm.owned_block();
        let no = dm.layout.n_owned();
        if kind == PrecondKind::Schur1 {
            let factors = Ilut::factor_shifted(&a_i, &params.ilut).unwrap();
            return Reference::schur1(dm, factors, params.schur1_b_iters, params.schur1_iters);
        }
        let mut forced = vec![false; no];
        for f in forced.iter_mut().skip(dm.layout.n_internal) {
            *f = true;
        }
        let (arms, schur_iters) = match kind {
            PrecondKind::Schur2 => {
                let cfg = params.schur2;
                let arms = Arms::factor_with_coarse_shifted(&a_i, &cfg.arms, &forced).unwrap();
                (arms, cfg.schur_iters)
            }
            PrecondKind::SchurML { levels, .. } => {
                let cfg = params.schurml;
                let arms_cfg = ArmsConfig {
                    n_levels: levels + 1,
                    ..cfg.arms
                };
                let arms = Arms::factor_with_coarse(&a_i, &arms_cfg, &forced).unwrap();
                (arms, cfg.schur_iters)
            }
            other => panic!("{other:?} is not an expanded-Schur kind"),
        };
        let multilevel = comm.all_land(arms.n_levels() >= 1, tags::TEST_VOTE);
        let mut red_of_local = vec![usize::MAX; no];
        if multilevel {
            let lvl = &arms.levels()[0];
            for k in 0..lvl.n_coarse() {
                red_of_local[lvl.perm().old_of(lvl.n_ind() + k)] = k;
            }
        }
        let local = match kind {
            PrecondKind::SchurML { rank, .. } => Local::SchurMl {
                hier: SchurMlHierarchy::from_arms(arms, rank),
            },
            _ => Local::Schur2 {
                dist_ilu0: multilevel
                    .then(|| Ilu0::factor_shifted(arms.levels()[0].reduced()).unwrap()),
                arms,
            },
        };
        Reference {
            layout: dm.layout.clone(),
            local,
            red_of_local,
            e_ext: dm.split_blocks().e_ext,
            multilevel,
            schur_iters,
        }
    }

    /// `Schur 1` over `factors`: the interface set is the interdomain
    /// interface itself.
    fn schur1(dm: &DistMatrix, factors: LuFactors, b_iters: usize, schur_iters: usize) -> Self {
        let ni = dm.layout.n_internal;
        let blocks = Box::new(dm.split_blocks());
        let mut red_of_local = vec![usize::MAX; dm.layout.n_owned()];
        for k in 0..dm.layout.n_interface {
            red_of_local[ni + k] = k;
        }
        Reference {
            layout: dm.layout.clone(),
            e_ext: blocks.e_ext.clone(),
            local: Local::Schur1 {
                trailing: factors.trailing_block(ni),
                factors,
                blocks,
                b_iters,
            },
            red_of_local,
            multilevel: true,
            schur_iters,
        }
    }

    /// The numeric-only rebuild, piece by piece.
    fn refactor(&self, dm: &DistMatrix) -> Reference {
        let a_i = dm.owned_block();
        let local = match &self.local {
            Local::Schur1 {
                factors, b_iters, ..
            } => {
                let factors = factors.refactor(&a_i).unwrap();
                return Reference::schur1(dm, factors, *b_iters, self.schur_iters);
            }
            Local::Schur2 { arms, dist_ilu0 } => {
                let arms = arms.refactor(&a_i).unwrap();
                let dist_ilu0 = dist_ilu0
                    .as_ref()
                    .map(|lu| lu.refactor(arms.levels()[0].reduced()).unwrap());
                Local::Schur2 { arms, dist_ilu0 }
            }
            Local::SchurMl { hier } => Local::SchurMl {
                hier: hier.refactor(&a_i).unwrap(),
            },
        };
        Reference {
            layout: dm.layout.clone(),
            local,
            red_of_local: self.red_of_local.clone(),
            e_ext: dm.split_blocks().e_ext,
            multilevel: self.multilevel,
            schur_iters: self.schur_iters,
        }
    }

    fn arms(&self) -> &Arms {
        match &self.local {
            Local::Schur2 { arms, .. } => arms,
            Local::SchurMl { hier } => hier.arms(),
            Local::Schur1 { .. } => panic!("Schur 1 has no ARMS level"),
        }
    }

    /// `z = M⁻¹ r`, straight-line.
    fn apply(&self, comm: &mut Comm, r: &[f64]) -> Vec<f64> {
        if let Local::Schur1 {
            factors,
            blocks,
            b_iters,
            ..
        } = &self.local
        {
            // Algorithm 2.1. `B̃⁻¹`: local GMRES steps on `B`, preconditioned
            // by the leading ILUT block.
            let b_solve = |v: &[f64]| {
                let mut x = vec![0.0; v.len()];
                if !v.is_empty() {
                    let m = LeadingBlock(factors, v.len());
                    Gmres::fixed_effort(&blocks.b, &m, *b_iters, v, &mut x);
                }
                x
            };
            let (f, g) = r.split_at(self.layout.n_internal);
            // Step 1: g' = g − E B̃⁻¹ f.
            let bf = b_solve(f);
            let mut gprime = g.to_vec();
            blocks.e.spmv_acc(-1.0, &bf, &mut gprime);
            // Step 2: the interface Schur system.
            let y = self.schur_solve(comm, &gprime);
            // Step 3: u = B̃⁻¹ (f − F y).
            let mut t = f.to_vec();
            blocks.f.spmv_acc(-1.0, &y, &mut t);
            let mut z = b_solve(&t);
            z.extend_from_slice(&y);
            return z;
        }
        if !self.multilevel {
            return match &self.local {
                Local::Schur2 { arms, .. } => {
                    let mut z = vec![0.0; r.len()];
                    arms.apply(r, &mut z);
                    z
                }
                Local::SchurMl { hier } => hier.solve_from(0, r),
                Local::Schur1 { .. } => unreachable!(),
            };
        }
        let lvl = &self.arms().levels()[0];
        let n_ind = lvl.n_ind();
        // Forward sweep in the permuted (independent-set-first) ordering.
        let mut rp = lvl.perm().apply_vec(r);
        lvl.solve_b(&mut rp);
        let (yb, rc) = rp.split_at(n_ind);
        let mut gprime = rc.to_vec();
        lvl.e_block().spmv_acc(-1.0, yb, &mut gprime);
        let zc = self.schur_solve(comm, &gprime);
        // Backward sweep: z_B = y_B − B⁻¹ F z_C.
        let mut fz = lvl.f_block().mul_vec(&zc);
        lvl.solve_b(&mut fz);
        let mut zp = Vec::with_capacity(r.len());
        zp.extend(yb.iter().zip(&fz).map(|(y, f)| y - f));
        zp.extend_from_slice(&zc);
        lvl.perm().apply_inv_vec(&zp)
    }

    /// A few distributed GMRES iterations on the Schur system,
    /// right-preconditioned by the local solve: the general solve on
    /// `S z_C = g'` from `z_C = 0`, preconditioned by the local solve, one
    /// cycle of `schur_iters`. The product reaches the same bits through
    /// `DistGmres::fixed_effort`, without the two Schur products whose
    /// results only the report reads.
    fn schur_solve(&self, comm: &mut Comm, gprime: &[f64]) -> Vec<f64> {
        let one_cycle = GmresConfig {
            restart: self.schur_iters,
            max_iters: self.schur_iters,
            rel_tol: 1e-12,
            abs_tol: 1e-300,
            record_history: false,
            stall_window: 0,
            ..GmresConfig::distributed()
        };
        let mut zc = vec![0.0; gprime.len()];
        DistGmres::new(one_cycle).solve(
            comm,
            &ReferenceOp(self),
            &ReferenceInner(self),
            gprime,
            &mut zc,
        );
        zc
    }
}

/// The leading `n` rows of ILUT factors as a preconditioner of `B`.
struct LeadingBlock<'a>(&'a LuFactors, usize);

impl Preconditioner for LeadingBlock<'_> {
    fn dim(&self) -> usize {
        self.1
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.0.leading_solve(self.1, z);
    }
}

/// The global Schur operator: the local product `C z − E B̃⁻¹ F z`, then
/// the ghost couplings of the interdomain interface.
struct ReferenceOp<'a>(&'a Reference);

impl DistOp for ReferenceOp<'_> {
    fn n_owned(&self) -> usize {
        match &self.0.local {
            Local::Schur1 { .. } => self.0.layout.n_interface,
            _ => self.0.arms().levels()[0].n_coarse(),
        }
    }
    fn apply(&self, comm: &mut Comm, z: &[f64], out: &mut [f64]) {
        let p = self.0;
        if let Local::Schur1 {
            factors, blocks, ..
        } = &p.local
        {
            // `B̃⁻¹` here is one sweep of the leading ILUT block.
            blocks.c.spmv(z, out);
            let mut fz = blocks.f.mul_vec(z);
            factors.leading_solve(p.layout.n_internal, &mut fz);
            blocks.e.spmv_acc(-1.0, &fz, out);
        } else {
            let lvl = &p.arms().levels()[0];
            lvl.c_block().spmv(z, out);
            let mut fz = lvl.f_block().mul_vec(z);
            lvl.solve_b(&mut fz);
            lvl.e_block().spmv_acc(-1.0, &fz, out);
        }
        let ni = p.layout.n_internal;
        let y_if: Vec<f64> = (0..p.layout.n_interface)
            .map(|k| z[p.red_of_local[ni + k]])
            .collect();
        let mut ghosts = vec![0.0; p.layout.n_ghost];
        p.layout.exchange_interface(comm, &y_if, &mut ghosts);
        for (k, v) in p.e_ext.mul_vec(&ghosts).into_iter().enumerate() {
            out[p.red_of_local[ni + k]] += v;
        }
    }
}

/// The communication-free local solve of the Schur block.
struct ReferenceInner<'a>(&'a Reference);

impl DistPrecond for ReferenceInner<'_> {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        match &self.0.local {
            Local::Schur1 { trailing, .. } => {
                z.copy_from_slice(r);
                trailing.solve_in_place(z);
            }
            Local::Schur2 { dist_ilu0, .. } => {
                z.copy_from_slice(r);
                dist_ilu0.as_ref().expect("multilevel").solve_in_place(z);
            }
            Local::SchurMl { hier } => z.copy_from_slice(&hier.solve_from(1, r)),
        }
    }
}

/// Builds `kind` on every rank through the product's one rung and through
/// the reference, applies both to two vectors, refactors both onto
/// perturbed values and applies again. Returns whether the cell took the
/// Schur iteration (`multilevel`).
fn check_cell(what: &str, kind: PrecondKind, a: &Csr, b: &[f64], owner: &[u32], p: usize) -> bool {
    let a2 = perturbed(a);
    let out = Universe::run(p, |comm| {
        let rank = comm.rank();
        let dm = DistMatrix::from_global(a, owner, rank, p);
        let (m, shifts) = try_build_dist_precond(kind, &dm, comm, &PrecondParams::default())
            .unwrap_or_else(|e| panic!("{what} rank {rank}: {e}"));
        assert_eq!(
            shifts, 0,
            "{what} rank {rank}: the build took the shift ladder"
        );
        let reference = Reference::build(kind, &dm, comm);

        let dm2 = DistMatrix::from_global(&a2, owner, rank, p);
        let m2 = m
            .refactor(comm, &dm2)
            .unwrap_or_else(|e| panic!("{what} rank {rank} refactor: {e}"));
        let reference2 = reference.refactor(&dm2);

        let b_loc = scatter_vector(&dm.layout, b);
        let wiggle: Vec<f64> = (0..b_loc.len())
            .map(|i| ((i + 31 * rank) as f64 * 0.7).sin())
            .collect();
        for (stage, m, reference) in [("cold", &m, &reference), ("refactored", &m2, &reference2)] {
            for (name, r) in [("b", &b_loc), ("wiggle", &wiggle)] {
                let mut z = vec![0.0; r.len()];
                m.apply(comm, r, &mut z);
                let z_ref = reference.apply(comm, r);
                for (i, (got, want)) in z.iter().zip(&z_ref).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{what} {stage} rank {rank} r={name} entry {i}: {got:e} vs {want:e}"
                    );
                }
                assert!(z.iter().any(|v| *v != 0.0), "{what} {stage}: zero answer");
            }
        }
        reference.multilevel
    });
    out[0]
}

fn case_owner(case: &AssembledCase, p: usize) -> Vec<u32> {
    let seed = MachineModel::linux_cluster().partition_seed;
    case.dof_owner(&partition_case(case, PartitionScheme::General, p, seed).owner)
}

const KINDS: [PrecondKind; 4] = [
    PrecondKind::Schur1,
    PrecondKind::Schur2,
    PrecondKind::schurml_default(),
    PrecondKind::SchurML {
        levels: 3,
        rank: MAX_CORRECTION_RANK,
    },
];

#[test]
fn the_unified_apply_is_the_written_out_one_bit_for_bit() {
    for id in [CaseId::Tc1, CaseId::Tc6] {
        let case = build_case(id, CaseSize::Tiny);
        for p in [1, 2, 4] {
            let owner = case_owner(&case, p);
            for kind in KINDS {
                let what = format!("{} {} P={p}", id.name(), kind.cache_key());
                let multilevel = check_cell(&what, kind, &case.sys.a, &case.sys.b, &owner, p);
                assert!(multilevel, "{what}: expected the Schur iteration");
            }
        }
    }
}

#[test]
fn the_degenerate_path_is_the_whole_block_solve_bit_for_bit() {
    // Rank 1 owns six unknowns — fewer than ARMS will reduce — so no rank
    // of an ARMS rung may take the Schur iteration and each applies its
    // local hierarchy to its whole block. `Schur 1` always splits.
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let owner: Vec<u32> = (0..case.n_unknowns()).map(|i| u32::from(i < 6)).collect();
    for kind in KINDS {
        let what = format!("degenerate {}", kind.cache_key());
        let multilevel = check_cell(&what, kind, &case.sys.a, &case.sys.b, &owner, 2);
        assert_eq!(
            multilevel,
            kind == PrecondKind::Schur1,
            "{what}: the Schur iteration"
        );
    }
}

#[test]
fn every_schur_build_takes_one_vote() {
    let p = 4;
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let owner = case_owner(&case, p);
    let (a, owner) = (&case.sys.a, &owner);
    let one_allreduce: u64 = Universe::run(p, |comm| {
        comm.allreduce_sum(1.0, tags::TEST_VOTE);
        comm.stats().msgs_sent
    })
    .iter()
    .sum();
    for kind in KINDS {
        let sent: u64 = Universe::run(p, |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let before = comm.stats().msgs_sent;
            try_build_dist_precond(kind, &dm, comm, &PrecondParams::default()).unwrap();
            comm.stats().msgs_sent - before
        })
        .iter()
        .sum();
        assert!(
            sent <= one_allreduce,
            "{}: the build sent {sent} messages, one all-reduce sends {one_allreduce}",
            kind.cache_key()
        );
    }
}
