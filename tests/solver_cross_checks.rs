//! Cross-solver consistency: different accelerators and preconditioners
//! must agree on the solution (to tolerance) for the same system; the
//! heterogeneous-coefficient extension behaves under all preconditioners.

use parapre::core::{build_case, BlockPrecond, CaseId, CaseSize, PrecondKind, SchurPrecond};
use parapre::dist::{scatter_vector, DistGmres, DistMatrix, GmresConfig, OrthMethod};
use parapre::engine::{run_case, SessionConfig};
use parapre::fem::{bc, varcoeff, LinearSystem};
use parapre::grid::refine::refine_uniform;
use parapre::grid::structured::unit_square;
use parapre::krylov::{FGmres, Gmres, IdentityPrecond, Ilut, IlutConfig};
use parapre::mpisim::Universe;
use parapre::partition::partition_graph;

#[test]
fn gmres_and_ilut_fgmres_agree_on_tc5_system() {
    let case = build_case(CaseId::Tc5, CaseSize::Tiny);
    let n = case.n_unknowns();
    let a = &case.sys.a;
    let b = &case.sys.b;
    let mut x_g = vec![0.0; n];
    let rg = Gmres::new(GmresConfig {
        rel_tol: 1e-9,
        max_iters: 2000,
        ..Default::default()
    })
    .solve(a, &IdentityPrecond::new(n), b, &mut x_g);
    assert!(rg.converged);

    let f = Ilut::factor(a, &IlutConfig::default()).unwrap();
    let mut x_f = vec![0.0; n];
    let rf = FGmres::new(GmresConfig {
        rel_tol: 1e-9,
        max_iters: 2000,
        ..Default::default()
    })
    .solve(a, &f, b, &mut x_f);
    assert!(rf.converged, "fgmres+ilut relres {}", rf.final_relres);
    assert!(
        rf.iterations < rg.iterations,
        "ILUT must pay for itself: {} vs {} unpreconditioned",
        rf.iterations,
        rg.iterations
    );

    for (u, v) in x_g.iter().zip(&x_f) {
        assert!((u - v).abs() < 1e-5, "{u} vs {v}");
    }
}

/// The one GMRES driver under its two contexts: at P = 1, `DistGmres::solve`
/// with modified Gram–Schmidt (all-reductions over one rank, the halo-less
/// `DistMatrix`, Block 1's ILU(0)) and `FGmres::solve` (local sums, the rank's
/// block as a `Csr`, the same factors) with the same configuration are one
/// solve, bit for bit, across several restart cycles.
#[test]
fn one_driver_gives_one_solve_in_the_rank_and_the_local_context() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let owner = vec![0u32; case.n_unknowns()];
    let (a, b, owner) = (&case.sys.a, &case.sys.b, &owner);
    let cfg = GmresConfig {
        restart: 4,
        max_iters: 200,
        rel_tol: 1e-10,
        abs_tol: 1e-300,
        record_history: true,
        stall_window: 4,
        orth: OrthMethod::Modified,
    };
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    Universe::run(1, |comm| {
        let dm = DistMatrix::from_global(a, owner, 0, 1);
        let m = BlockPrecond::ilu0(&dm).expect("ILU(0) of the block");
        let b_loc = scatter_vector(&dm.layout, b);
        let n = b_loc.len();

        let mut x_dist = vec![0.0; n];
        let dist = DistGmres::new(cfg).solve(comm, &dm, &m, &b_loc, &mut x_dist);

        let mut x_seq = vec![0.0; n];
        let seq = FGmres::new(cfg).solve(&dm.owned_block(), m.factors(), &b_loc, &mut x_seq);

        assert!(seq.converged && seq.iterations > 2 * cfg.restart, "{seq:?}");
        assert_eq!(dist.iterations, seq.iterations);
        assert_eq!(dist.final_relres.to_bits(), seq.final_relres.to_bits());
        assert_eq!(bits(&dist.residual_history), bits(&seq.residual_history));
        assert_eq!(bits(&x_dist), bits(&x_seq));
    });
}

#[test]
fn heterogeneous_diffusion_solved_by_all_preconditioners() {
    // −∇·(k∇u) with a 100:1 layered coefficient, distributed solves.
    let mesh = unit_square(17, 17);
    let (a, b) = varcoeff::assemble_2d(&mesh, |x, _| if x < 0.5 { 1.0 } else { 100.0 }, |_, _| 1.0);
    let mut sys = LinearSystem { a, b };
    let fixed = bc::dirichlet_where(
        &mesh.coords,
        |p| p[0] < 1e-12 || p[0] > 1.0 - 1e-12,
        |_| 0.0,
    );
    bc::apply_dirichlet(&mut sys, &fixed);
    let part = partition_graph(&mesh.adjacency(), 4, 7);
    let (a_ref, b_ref, owner_ref) = (&sys.a, &sys.b, &part.owner);
    for use_schur in [false, true] {
        let out = Universe::run(4, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = if use_schur {
                let m = SchurPrecond::build(PrecondKind::Schur1, &dm, comm, &Default::default())
                    .unwrap();
                DistGmres::new(GmresConfig {
                    max_iters: 500,
                    ..GmresConfig::distributed()
                })
                .solve(comm, &dm, &m, &b_loc, &mut x)
            } else {
                let m = parapre::core::BlockPrecond::ilut(&dm, &Default::default()).unwrap();
                DistGmres::new(GmresConfig {
                    max_iters: 500,
                    ..GmresConfig::distributed()
                })
                .solve(comm, &dm, &m, &b_loc, &mut x)
            };
            rep.converged
        });
        assert!(
            out.iter().all(|&c| c),
            "schur={use_schur} failed on layered medium"
        );
    }
}

#[test]
fn refined_unstructured_mesh_still_solves() {
    // TC3-style pipeline on a refined Delaunay mesh: refinement preserves
    // solvability and the Schur preconditioner's advantage.
    let coarse = parapre::grid::delaunay::square_with_hole(250, 9);
    let mesh = refine_uniform(&coarse);
    let (a, b) = parapre::fem::poisson::assemble_2d(&mesh, parapre::fem::poisson::rhs_tc1);
    let mut sys = LinearSystem { a, b };
    let fixed: Vec<(usize, f64)> = mesh
        .boundary_nodes()
        .iter()
        .enumerate()
        .filter(|&(_, &on)| on)
        .map(|(i, _)| {
            let p = mesh.coords[i];
            (i, parapre::fem::poisson::exact_tc1(p[0], p[1]))
        })
        .collect();
    bc::apply_dirichlet(&mut sys, &fixed);
    let part = partition_graph(&mesh.adjacency(), 4, 5);
    let (a_ref, b_ref, owner_ref) = (&sys.a, &sys.b, &part.owner);
    let out = Universe::run(4, move |comm| {
        let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
        let m = SchurPrecond::build(PrecondKind::Schur1, &dm, comm, &Default::default()).unwrap();
        let b_loc = scatter_vector(&dm.layout, b_ref);
        let mut x = vec![0.0; dm.layout.n_owned()];
        let rep = DistGmres::new(GmresConfig::distributed()).solve(comm, &dm, &m, &b_loc, &mut x);
        (rep.converged, rep.iterations)
    });
    assert!(out[0].0, "refined TC3 failed");
    assert!(out[0].1 < 40, "iterations {}", out[0].1);
}

#[test]
fn run_case_results_expose_partition_quality() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let res = run_case(&case, &SessionConfig::paper(PrecondKind::Block1, 4));
    assert!(res.edge_cut > 0);
    assert!(res.imbalance >= 1.0);
    assert!(res.total_msgs > 0);
    assert!(res.total_bytes > 0);
    assert!(res.setup_seconds >= 0.0);
}
