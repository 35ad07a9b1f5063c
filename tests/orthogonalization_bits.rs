//! The blocked projection kernels and the basis panel change how distributed
//! FGMRES walks memory, not what it computes. Pinned here against a
//! reference written the plain way — vectors in a `Vec<Vec<f64>>`, one
//! `ops::dot` and one `ops::axpy` per basis vector, a clone divided by its
//! norm — run on the same ranks with the same operator and preconditioner:
//! iteration counts and the gathered solution must agree bit for bit.

use parapre::core::{
    build_case, build_dist_precond_with_fallback, partition_case, CaseId, CaseSize, PrecondKind,
};
use parapre::dist::{
    gather_vector, scatter_vector, tags, DistGmres, DistMatrix, DistOp, DistPrecond, GmresConfig,
};
use parapre::engine::SessionConfig;
use parapre::mpisim::{Comm, Universe};
use parapre::sparse::ops;

/// One pass of batched classical Gram–Schmidt against `v`, per column:
/// returns the reduced `[w·v_0, …, w·v_k, w·w]` and subtracts the projections.
fn cgs_pass(comm: &mut Comm, v: &[Vec<f64>], w: &mut [f64]) -> Vec<f64> {
    let mut sums: Vec<f64> = v.iter().map(|vi| ops::dot(w, vi)).collect();
    sums.push(ops::dot(w, w));
    comm.allreduce_sum_vec(&mut sums, tags::REDUCE);
    for (vi, &h) in v.iter().zip(&sums) {
        ops::axpy(-h, vi, w);
    }
    sums
}

/// Restarted flexible GMRES with fused-reduction classical Gram–Schmidt and
/// the DGKS second pass: `DistGmres` at its defaults, minus tracing,
/// checkpoints and breakdown guards. Returns the iteration count.
fn reference_fgmres<A: DistOp, M: DistPrecond>(
    comm: &mut Comm,
    a: &A,
    m: &M,
    b: &[f64],
    x: &mut [f64],
    cfg: &GmresConfig,
) -> usize {
    let n = b.len();
    let norm = |comm: &mut Comm, u: &[f64]| comm.allreduce_sum(ops::dot(u, u), tags::REDUCE).sqrt();
    let residual = |comm: &mut Comm, x: &[f64], r: &mut [f64]| {
        a.apply(comm, x, r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    };
    let (mut r, mut w) = (vec![0.0; n], vec![0.0; n]);
    residual(comm, x, &mut r);
    let mut beta = norm(comm, &r);
    let target = (cfg.rel_tol * beta).max(cfg.abs_tol);
    let mut iters = 0;
    loop {
        let mut v = vec![r.iter().map(|ri| ri / beta).collect::<Vec<f64>>()];
        let mut z: Vec<Vec<f64>> = Vec::new();
        let mut h: Vec<Vec<f64>> = Vec::new();
        let mut givens: Vec<(f64, f64)> = Vec::new();
        let mut g = vec![0.0; cfg.restart + 1];
        g[0] = beta;
        let mut k = 0;
        while k < cfg.restart && iters < cfg.max_iters {
            let mut zk = vec![0.0; n];
            m.apply(comm, &v[k], &mut zk);
            a.apply(comm, &zk, &mut w);
            z.push(zk);
            iters += 1;

            let first = cgs_pass(comm, &v, &mut w);
            let (mut hcol, ww) = (first[..=k].to_vec(), first[k + 1]);
            let mut est = (ww - hcol.iter().map(|h| h * h).sum::<f64>()).max(0.0);
            if est <= 0.5 * ww {
                let second = cgs_pass(comm, &v, &mut w);
                let mut corr_sq = 0.0;
                for (h, &c) in hcol.iter_mut().zip(&second) {
                    *h += c;
                    corr_sq += c * c;
                }
                est = (second[k + 1] - corr_sq).max(0.0);
            }
            let wnorm = est.sqrt();
            hcol.push(wnorm);

            for (i, &(c, s)) in givens.iter().enumerate() {
                let t = c * hcol[i] + s * hcol[i + 1];
                hcol[i + 1] = -s * hcol[i] + c * hcol[i + 1];
                hcol[i] = t;
            }
            let (p, q) = (hcol[k], hcol[k + 1]);
            let (c, s) = if q == 0.0 {
                (1.0, 0.0)
            } else if p == 0.0 {
                (0.0, 1.0)
            } else {
                (p / p.hypot(q), q / p.hypot(q))
            };
            hcol[k] = c * p + s * q;
            hcol[k + 1] = 0.0;
            givens.push((c, s));
            g[k + 1] = -s * g[k];
            g[k] *= c;
            h.push(hcol);
            k += 1;
            if g[k].abs() <= target || wnorm == 0.0 {
                break;
            }
            v.push(w.iter().map(|wi| wi / wnorm).collect());
        }
        let mut y = vec![0.0; k];
        for i in (0..k).rev() {
            let mut acc = g[i];
            for j in i + 1..k {
                acc -= h[j][i] * y[j];
            }
            y[i] = acc / h[i][i];
        }
        for (yj, zj) in y.iter().zip(&z) {
            for (xi, &zji) in x.iter_mut().zip(zj) {
                *xi += yj * zji;
            }
        }
        residual(comm, x, &mut r);
        beta = norm(comm, &r);
        if beta <= target || iters >= cfg.max_iters {
            return iters;
        }
    }
}

#[test]
fn panel_fgmres_is_per_column_cgs2_bit_for_bit() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    for kind in [PrecondKind::Block2, PrecondKind::Schur2] {
        for p in [1, 2, 4] {
            let what = format!("{} P={p}", kind.key());
            let cfg = SessionConfig::paper(kind, p);
            let part = partition_case(&case, cfg.scheme, p, cfg.partition_seed);
            let owner = case.dof_owner(&part.owner);
            let n_global = case.n_unknowns();
            let out = Universe::run(p, |comm| {
                let dm = DistMatrix::from_global(&case.sys.a, &owner, comm.rank(), p);
                let built =
                    build_dist_precond_with_fallback(kind, &dm, comm, &case.sys.a, &cfg.params);
                let b = scatter_vector(&dm.layout, &case.sys.b);
                let x0 = scatter_vector(&dm.layout, &case.x0);

                let mut x = x0.clone();
                let rep = DistGmres::new(cfg.gmres).solve(comm, &dm, &built.precond, &b, &mut x);
                let mut x_ref = x0;
                let iters_ref =
                    reference_fgmres(comm, &dm, &built.precond, &b, &mut x_ref, &cfg.gmres);
                (
                    (rep.converged, rep.iterations, iters_ref),
                    gather_vector(comm, &dm.layout, &x, n_global),
                    gather_vector(comm, &dm.layout, &x_ref, n_global),
                )
            });
            for (rank, (counts, _, _)) in out.iter().enumerate() {
                let (converged, iters, iters_ref) = *counts;
                assert!(converged, "{what} rank {rank}");
                assert!(iters > 1, "{what}: {iters} iterations test nothing");
                assert_eq!(iters, iters_ref, "{what} rank {rank}");
            }
            let bits = |x: &Option<Vec<f64>>| -> Vec<u64> {
                let x = x.as_ref().expect("gathered on rank 0");
                x.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&out[0].1), bits(&out[0].2), "{what}: solutions differ");
        }
    }
}
