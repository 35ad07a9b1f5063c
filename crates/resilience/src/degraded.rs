//! Degraded-mode solves: drop dead ranks, keep going.
//!
//! When a rank dies mid-solve, its subdomain's unknowns are unreachable —
//! but the survivors' subproblem is still well posed once the couplings
//! into the lost subdomain are removed (for the paper's
//! diagonally-dominant FEM systems the principal submatrix stays
//! nonsingular). The degraded path re-solves that reduced system with the
//! simplest, most fault-tolerant preconditioner in the family — Block 1
//! (block-Jacobi ILU(0), zero communication in the apply) — and reports
//! **two** residuals: the reduced-system one the solver actually drove
//! down, and the honest full-system residual `‖b − A x_full‖/‖b‖`, which
//! stays large because the dead subdomain was never solved. Callers decide
//! whether a partial answer is acceptable; nothing here pretends it is
//! complete.

use parapre_core::BlockPrecond;
use parapre_dist::{
    gather_vector, scatter_vector, DistGmres, DistGmresConfig, DistMatrix, IdentityDistPrecond,
};
use parapre_mpisim::Universe;
use parapre_sparse::Csr;
use std::time::Duration;

/// Outcome of a degraded-mode solve.
#[derive(Debug, Clone)]
pub struct DegradedReport {
    /// Full-length solution: solved values on surviving unknowns, the
    /// warm-start guess (or zero) on dead-rank unknowns.
    pub x: Vec<f64>,
    /// Iterations spent on the reduced system.
    pub iterations: usize,
    /// Reduced-system convergence flag.
    pub converged: bool,
    /// Relative residual of the *reduced* system (what the solver drove
    /// to tolerance).
    pub reduced_relres: f64,
    /// Honest relative residual of the *full* system `‖b − A x‖ / ‖b‖`.
    pub full_relres: f64,
    /// Ranks that were declared dead.
    pub dead_ranks: Vec<usize>,
    /// Unknowns owned by dead ranks (left at the warm-start value).
    pub n_dropped_unknowns: usize,
    /// Matrix couplings from surviving to dead unknowns that were dropped.
    pub n_dropped_couplings: usize,
}

/// Solves `A x = b` with the subdomains owned by `dead` ranks removed.
///
/// Survivor ranks are renumbered `0..S` and run a fresh universe on the
/// principal submatrix over surviving unknowns, preconditioned with
/// Block 1 (block-Jacobi ILU(0)); if the reduced owned block is singular
/// the solve falls back to an unpreconditioned run rather than failing.
/// `x0` (full length) warm-starts the survivors and fills the dead
/// entries of the returned solution.
///
/// Errors when every rank is dead, when a dead rank owns every unknown's
/// neighbor set (empty reduced system), or when the degraded universe
/// itself fails.
#[allow(clippy::too_many_arguments)]
pub fn solve_degraded(
    a: &Csr,
    owner: &[u32],
    n_ranks: usize,
    b: &[f64],
    x0: Option<&[f64]>,
    dead: &[usize],
    gmres: DistGmresConfig,
    recv_timeout: Duration,
) -> Result<DegradedReport, String> {
    let n = a.n_rows();
    assert_eq!(owner.len(), n);
    assert_eq!(b.len(), n);
    if let Some(x0) = x0 {
        assert_eq!(x0.len(), n);
    }

    let mut dead_ranks: Vec<usize> = dead.to_vec();
    dead_ranks.sort_unstable();
    dead_ranks.dedup();
    let is_dead = |r: u32| dead_ranks.binary_search(&(r as usize)).is_ok();

    // Survivor rank renumbering old → 0..S.
    let mut rank_map = vec![None; n_ranks];
    let mut n_survivors = 0u32;
    for (r, slot) in rank_map.iter_mut().enumerate() {
        if !dead_ranks.contains(&r) {
            *slot = Some(n_survivors);
            n_survivors += 1;
        }
    }
    if n_survivors == 0 {
        return Err("all ranks dead: nothing to degrade to".into());
    }

    // Surviving unknowns, in global order.
    let alive: Vec<usize> = (0..n).filter(|&i| !is_dead(owner[i])).collect();
    if alive.is_empty() {
        return Err("dead ranks owned every unknown".into());
    }
    let owner_red: Vec<u32> = alive
        .iter()
        .map(|&i| rank_map[owner[i] as usize].unwrap())
        .collect();
    let b_red: Vec<f64> = alive.iter().map(|&i| b[i]).collect();
    let x0_red: Vec<f64> = match x0 {
        Some(x0) => alive.iter().map(|&i| x0[i]).collect(),
        None => vec![0.0; alive.len()],
    };
    let a_red = a.principal_submatrix(&alive);
    let n_dropped_couplings = alive
        .iter()
        .map(|&i| {
            let (cols, _) = a.row(i);
            cols.iter().filter(|&&j| is_dead(owner[j])).count()
        })
        .sum();

    parapre_metrics::count(parapre_metrics::names::SOLVE_DEGRADED, 1);

    let s = n_survivors as usize;
    let n_red = alive.len();
    let (a_ref, o_ref, b_ref, x0_ref) = (&a_red, &owner_red, &b_red, &x0_red);
    let results = Universe::try_run_with_timeout(s, recv_timeout, move |comm| {
        let dm = DistMatrix::from_global(a_ref, o_ref, comm.rank(), s);
        let b_loc = scatter_vector(&dm.layout, b_ref);
        let mut x = scatter_vector(&dm.layout, x0_ref);
        let solver = DistGmres::new(gmres);
        let rep = match BlockPrecond::ilu0(&dm) {
            Ok(m) => solver.solve(comm, &dm, &m, &b_loc, &mut x),
            // A reduced block can lose diagonal entries it relied on;
            // an unpreconditioned degraded solve beats no solve.
            Err(_) => solver.solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x),
        };
        let gathered = gather_vector(comm, &dm.layout, &x, n_red);
        (rep.converged, rep.iterations, rep.final_relres, gathered)
    });

    let mut ok = None;
    for r in results {
        match r {
            Ok(v) => {
                if v.3.is_some() {
                    ok = Some(v);
                }
            }
            Err(f) => return Err(format!("degraded solve universe failed: {f}")),
        }
    }
    let (converged, iterations, reduced_relres, gathered) =
        ok.ok_or_else(|| "degraded solve produced no gathered solution".to_string())?;
    let x_red = gathered.expect("checked above");

    // Assemble the full-length answer and its honest residual.
    let mut x_full = match x0 {
        Some(x0) => x0.to_vec(),
        None => vec![0.0; n],
    };
    for (local, &g) in alive.iter().enumerate() {
        x_full[g] = x_red[local];
    }
    let mut r_full = vec![0.0; n];
    a.spmv(&x_full, &mut r_full);
    let mut rnorm = 0.0;
    let mut bnorm = 0.0;
    for (ri, &bi) in r_full.iter_mut().zip(b) {
        *ri = bi - *ri;
        rnorm += *ri * *ri;
        bnorm += bi * bi;
    }
    let full_relres = if bnorm > 0.0 {
        (rnorm / bnorm).sqrt()
    } else {
        rnorm.sqrt()
    };

    Ok(DegradedReport {
        x: x_full,
        iterations,
        converged,
        reduced_relres,
        full_relres,
        dead_ranks,
        n_dropped_unknowns: n - alive.len(),
        n_dropped_couplings,
    })
}
