//! Numerical-robustness integration tests: hostile matrices (zero
//! diagonals, sign-indefinite, near-singular) through the preconditioner
//! fallback ladder, across rank counts — the ladder must always terminate
//! with either convergence or a typed breakdown, never a panic and never a
//! silent non-finite answer.

use parapre_core::cases::{block_owner, hostile};
use parapre_core::{
    build_dist_precond_with_fallback, try_build_dist_precond, PrecondKind, PrecondParams,
};
use parapre_dist::{scatter_vector, DistGmres, DistMatrix, GmresConfig};
use parapre_mpisim::Universe;
use parapre_sparse::{Coo, Csr};
use proptest::prelude::*;

/// Runs the ladder + solve on `p` ranks; returns per-rank
/// (kind_used, fallbacks, pivot_shifts, converged, breakdown?, x finite).
#[allow(clippy::type_complexity)]
fn ladder_solve(
    a: &Csr,
    p: usize,
    kind: PrecondKind,
) -> Vec<(PrecondKind, usize, usize, bool, bool, bool)> {
    let n = a.n_rows();
    let owner = block_owner(n, p);
    let owner_ref = &owner;
    Universe::run(p, move |comm| {
        let dm = DistMatrix::from_global(a, owner_ref, comm.rank(), p);
        let params = PrecondParams::default();
        let built = build_dist_precond_with_fallback(kind, &dm, comm, a, &params);
        let b_loc = scatter_vector(&dm.layout, &vec![1.0; n]);
        let mut x = vec![0.0; dm.layout.n_owned()];
        let rep = DistGmres::new(GmresConfig {
            max_iters: 120,
            ..GmresConfig::distributed()
        })
        .solve(comm, &dm, &built.precond, &b_loc, &mut x);
        let x_finite = x.iter().all(|v| v.is_finite());
        (
            built.kind_used,
            built.fallbacks,
            built.pivot_shifts,
            rep.converged,
            rep.breakdown.is_some(),
            x_finite,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The tentpole property: for any hostile matrix, any requested rung,
    // and P ∈ {1, 2, 4, 8}, the ladder terminates with a uniform rung on
    // all ranks and the solve ends in convergence or a typed breakdown —
    // converged answers are always finite.
    #[test]
    fn ladder_always_terminates_without_panic(
        seed in any::<u64>(),
        p_ix in 0usize..4,
        kind_ix in 0usize..5,
    ) {
        let p = [1usize, 2, 4, 8][p_ix];
        let kind = if kind_ix == 4 {
            PrecondKind::schurml_default()
        } else {
            PrecondKind::ALL[kind_ix]
        };
        let a = hostile(96, seed);
        let outs = ladder_solve(&a, p, kind);
        let first = outs[0].0;
        for (kind_used, _, _, converged, has_breakdown, x_finite) in outs {
            // Rank-identical ladder outcome.
            prop_assert_eq!(kind_used, first);
            if converged {
                prop_assert!(x_finite, "converged answer must be finite");
            } else {
                // Unconverged is fine — but only as budget exhaustion or a
                // *typed* breakdown, and never with a non-finite x smuggled
                // out as a plain result.
                prop_assert!(has_breakdown || x_finite);
            }
        }
    }
}

/// Zero diagonals on a quarter of the rows: plain `Block 1` cannot factor,
/// so the build must recover — by shifting, or by descending the ladder —
/// and record that it did.
#[test]
fn zero_diagonals_trigger_shift_or_fallback() {
    let a = hostile(64, 7);
    for p in [1usize, 2, 4, 8] {
        let outs = ladder_solve(&a, p, PrecondKind::Block1);
        // Shift retries are a per-rank (local factorization) matter: a rank
        // whose zero diagonals all receive elimination fill may factor
        // cleanly. At least one rank must have paid, though — row 0 has an
        // unfillable zero pivot.
        assert!(
            outs.iter().any(|(_, fb, ps, ..)| *fb > 0 || *ps > 0),
            "P={p}: hostile diagonal must cost shifts or rungs somewhere: {outs:?}"
        );
    }
}

/// The strict builder surfaces structured errors instead of panicking on a
/// rank whose block cannot factor.
#[test]
fn try_build_errors_are_structured() {
    let a = hostile(32, 3);
    let owner = block_owner(32, 2);
    let owner_ref = &owner;
    let a_ref = &a;
    let outs = Universe::run(2, move |comm| {
        let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 2);
        // Jacobi is infallible by contract.
        let jacobi =
            try_build_dist_precond(PrecondKind::Jacobi, &dm, comm, &PrecondParams::default());
        jacobi.is_ok()
    });
    assert!(outs.into_iter().all(|ok| ok));
}

/// Clean-path regression: on a well-conditioned Poisson case every rung
/// must build at rung 0 with zero shift retries and zero fallbacks — the
/// safety net must be invisible when nothing is wrong.
#[test]
fn clean_tc1_never_pays_for_the_ladder() {
    use parapre_core::{build_case, partition_case, CaseId, CaseSize, PartitionScheme};
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let p = 4;
    let node_part = partition_case(&case, PartitionScheme::General, p, 17);
    let owner = case.dof_owner(&node_part.owner);
    let a = &case.sys.a;
    let owner_ref = &owner;
    for kind in PrecondKind::ALL {
        let outs = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner_ref, comm.rank(), p);
            let built =
                build_dist_precond_with_fallback(kind, &dm, comm, a, &PrecondParams::default());
            (built.kind_used, built.fallbacks, built.pivot_shifts)
        });
        for (kind_used, fallbacks, pivot_shifts) in outs {
            assert_eq!(kind_used, kind, "clean build must stay on {kind:?}");
            assert_eq!(fallbacks, 0, "{kind:?} fell back on a clean matrix");
            assert_eq!(pivot_shifts, 0, "{kind:?} shifted on a clean matrix");
        }
    }
}

/// A matrix hostile enough to break the `SchurML` build on every rank —
/// alternating exactly-zero and near-zero diagonals leave the coarse-level
/// factorization unhealthy no matter how the rows are partitioned — must
/// vote down exactly one rung to `Schur 2` (whose shift ladder absorbs the
/// bad pivots) and still converge, at every rank count.
#[test]
fn schurml_zero_coarse_pivots_vote_down_to_schur2() {
    let n = 96;
    let mut coo = Coo::new(n, n);
    for i in 0..n - 1 {
        coo.push(i, i + 1, -1.0);
        coo.push(i + 1, i, -1.0);
    }
    for i in 0..n {
        coo.push(i, i, if i % 2 == 0 { 0.0 } else { 1e-14 });
    }
    let a = coo.to_csr();
    for p in [1usize, 2, 4, 8] {
        let outs = ladder_solve(&a, p, PrecondKind::schurml_default());
        for (kind_used, fallbacks, _ps, converged, _bd, x_finite) in outs {
            assert_eq!(
                kind_used,
                PrecondKind::Schur2,
                "P={p}: expected the SchurML→Schur2 vote-down"
            );
            assert_eq!(fallbacks, 1, "P={p}: exactly one rung descended");
            assert!(converged, "P={p}: Schur2 must converge on this matrix");
            assert!(x_finite, "P={p}: converged answer must be finite");
        }
    }
}

/// The ladder order itself is part of the contract.
#[test]
fn fallback_ladder_is_the_documented_chain() {
    assert_eq!(
        PrecondKind::schurml_default().fallback(),
        Some(PrecondKind::Schur2)
    );
    assert_eq!(PrecondKind::Schur2.fallback(), Some(PrecondKind::Schur1));
    assert_eq!(PrecondKind::Schur1.fallback(), Some(PrecondKind::Block2));
    assert_eq!(PrecondKind::Block2.fallback(), Some(PrecondKind::Block1));
    assert_eq!(PrecondKind::Block1.fallback(), Some(PrecondKind::Jacobi));
    assert_eq!(PrecondKind::Jacobi.fallback(), None);
    assert_eq!(
        PrecondKind::BlockOverlap.fallback(),
        Some(PrecondKind::Block2)
    );
    assert_eq!(PrecondKind::parse("jacobi"), Some(PrecondKind::Jacobi));
    assert_eq!(
        PrecondKind::parse("schurml"),
        Some(PrecondKind::schurml_default())
    );
}
