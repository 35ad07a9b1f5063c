//! The blocked projection kernels and the basis panel change how distributed
//! FGMRES walks memory, not what it computes. Pinned here against a
//! reference written the plain way — vectors in a `Vec<Vec<f64>>`, one
//! `ops::dot` and one `ops::axpy` per basis vector, the Hessenberg columns
//! rotated as they complete — run on the same ranks with the same operator
//! and preconditioner: iteration counts and the gathered solution must agree
//! bit for bit. The orthogonalization is classical Gram–Schmidt with delayed
//! re-orthogonalization (DCGS2): one all-reduce per step carries the previous
//! vector's second-pass inner products and norm and the new vector's
//! projections.

use parapre::core::{
    build_case, build_dist_precond_with_fallback, partition_case, CaseId, CaseSize, PrecondKind,
};
use parapre::dist::{
    gather_vector, scatter_vector, tags, DistGmres, DistMatrix, DistOp, DistPrecond, GmresConfig,
};
use parapre::engine::SessionConfig;
use parapre::mpisim::{Comm, Universe};
use parapre::sparse::ops;

/// The Givens rotation taking `(p, q)` to `(r, 0)`.
fn givens(p: f64, q: f64) -> (f64, f64) {
    if q == 0.0 {
        (1.0, 0.0)
    } else if p == 0.0 {
        (0.0, 1.0)
    } else {
        (p / p.hypot(q), q / p.hypot(q))
    }
}

/// The least-squares state of one cycle: rotated columns, rotations and
/// rotated right-hand side.
struct Lsq {
    h: Vec<Vec<f64>>,
    rot: Vec<(f64, f64)>,
    g: Vec<f64>,
}

impl Lsq {
    /// Rotates the last column in; returns the new residual estimate.
    fn rotate(&mut self) -> f64 {
        let k = self.rot.len();
        let hcol = &mut self.h[k];
        for (i, &(c, s)) in self.rot.iter().enumerate() {
            let t = c * hcol[i] + s * hcol[i + 1];
            hcol[i + 1] = -s * hcol[i] + c * hcol[i + 1];
            hcol[i] = t;
        }
        let (p, q) = (hcol[k], hcol[k + 1]);
        let (c, s) = givens(p, q);
        hcol[k] = c * p + s * q;
        hcol[k + 1] = 0.0;
        self.rot.push((c, s));
        self.g[k + 1] = -s * self.g[k];
        self.g[k] *= c;
        self.g[k + 1].abs()
    }

    /// The estimate the last column would give, without rotating it in.
    fn estimate(&self) -> f64 {
        let k = self.rot.len();
        let hcol = &self.h[k];
        let mut diag = hcol[0];
        for (i, &(c, s)) in self.rot.iter().enumerate() {
            diag = -s * diag + c * hcol[i + 1];
        }
        (givens(diag, hcol[k + 1]).1 * self.g[k]).abs()
    }
}

/// `sqrt(max(α − Σ s², 0))`: a vector's norm after removing its
/// projections `s`, from its squared norm `α`.
fn reduced_norm(alpha: f64, s: &[f64]) -> f64 {
    (alpha - s.iter().map(|x| x * x).sum::<f64>())
        .max(0.0)
        .sqrt()
}

/// Restarted flexible GMRES with DCGS2: `DistGmres` at its defaults, minus
/// tracing and breakdown guards. Returns the iteration count.
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
    let mut r = vec![0.0; n];
    residual(comm, x, &mut r);
    let mut beta = norm(comm, &r);
    let target = (cfg.rel_tol * beta).max(cfg.abs_tol);
    let mut iters = 0;
    loop {
        // `v[j]` is finished by step `j`, which applies the operator to it
        // unfinished; `pending`: the last column awaits `v[j]`'s norm.
        let mut v = vec![r.clone()];
        let (mut z, mut rho) = (Vec::new(), Vec::new());
        let mut g = vec![0.0; cfg.restart + 1];
        g[0] = beta;
        let mut lsq = Lsq {
            h: Vec::new(),
            rot: Vec::new(),
            g,
        };
        let mut pending = false;
        let mut cycle_done = false;
        // Rotates the last column in: `true` when the cycle ends there.
        let rotate_in = |lsq: &mut Lsq, iters: &mut usize| {
            *iters += 1;
            let k = lsq.rot.len();
            let norm = lsq.h[k][k + 1];
            lsq.rotate() <= target || norm == 0.0
        };
        loop {
            let j = v.len() - 1;
            if cycle_done || j >= cfg.restart || iters + usize::from(pending) >= cfg.max_iters {
                break;
            }
            let mut zj = vec![0.0; n];
            m.apply(comm, &v[j], &mut zj);
            let mut w = vec![0.0; n];
            a.apply(comm, &zj, &mut w);
            z.push(zj);

            let mut sums: Vec<f64> = v.iter().map(|vi| ops::dot(&v[j], vi)).collect();
            sums.extend(v.iter().map(|vi| ops::dot(&w, vi)));
            sums.push(ops::dot(&w, &w));
            comm.allreduce_sum_vec(&mut sums, tags::REDUCE);
            let (s, c) = (&sums[..j], &sums[j + 1..2 * j + 1]);
            let rho_j = reduced_norm(sums[j], s);
            let cj = (sums[2 * j + 1] - s.iter().zip(c).map(|(a, b)| a * b).sum::<f64>()) / rho_j;
            if pending {
                let prev = lsq.h.last_mut().unwrap();
                for (h, &si) in prev.iter_mut().zip(s) {
                    *h += si;
                }
                prev[j] = rho_j;
                if rotate_in(&mut lsq, &mut iters) {
                    break;
                }
            }
            let mut hcol: Vec<f64> = c.iter().map(|ci| ci / rho_j).collect();
            hcol.push(cj / rho_j);
            let est = sums[2 * j + 2] / (rho_j * rho_j) - hcol.iter().map(|h| h * h).sum::<f64>();
            hcol.push(est.max(0.0).sqrt());
            lsq.h.push(hcol);

            let (finished, next) = v.split_at_mut(j);
            let vj = &mut next[0];
            for (qi, &si) in finished.iter().zip(s) {
                ops::axpy(-si, qi, vj);
            }
            vj.iter_mut().for_each(|e| *e /= rho_j);
            for (qi, &ci) in v.iter().zip(c.iter().chain([&cj])) {
                ops::axpy(-ci, qi, &mut w);
            }
            w.iter_mut().for_each(|e| *e /= rho_j);
            v.push(w);
            rho.push(rho_j);
            pending = true;

            let last = j + 1 >= cfg.restart || iters + 1 >= cfg.max_iters;
            if last || lsq.estimate() <= target {
                let mut s: Vec<f64> = v[..=j].iter().map(|qi| ops::dot(&v[j + 1], qi)).collect();
                s.push(ops::dot(&v[j + 1], &v[j + 1]));
                comm.allreduce_sum_vec(&mut s, tags::REDUCE);
                let hcol = lsq.h.last_mut().unwrap();
                for (h, &si) in hcol.iter_mut().zip(&s[..=j]) {
                    *h += si;
                }
                hcol[j + 1] = reduced_norm(s[j + 1], &s[..=j]);
                pending = false;
                cycle_done = rotate_in(&mut lsq, &mut iters);
            }
        }
        let k = lsq.rot.len();
        let mut y = vec![0.0; k];
        for i in (0..k).rev() {
            let mut acc = lsq.g[i];
            for (hj, yj) in lsq.h[i + 1..k].iter().zip(&y[i + 1..k]) {
                acc -= hj[i] * yj;
            }
            y[i] = acc / lsq.h[i][i];
        }
        for ((yj, zj), rj) in y.iter().zip(&z).zip(&rho) {
            ops::axpy(yj / rj, zj, x);
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
