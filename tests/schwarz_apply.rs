//! The distributed additive Schwarz apply (`SchwarzPrecond`) against the
//! shared-memory preconditioner it replaced, whose configuration, build and
//! apply are kept below verbatim as the reference (used only through the
//! two paper configurations, `without_cgc` and `with_cgc`).
//!
//! On TC1 tiny (17²) and 33², at P ∈ {1, 2, 4, 7, 8, 16} on box
//! partitions, one apply of a fixed residual, gathered:
//! - without CGC equals the reference bit for bit (each owner sums the
//!   contributions at a node in ascending subdomain order, as the
//!   sequential loop does);
//! - with CGC equals it to a max-norm relative difference ≤ 1e-12 (the
//!   coarse restriction is summed by an all-reduce, in another order);
//! - sends the pinned number of messages on each rank. P = 7 on 17² is the
//!   case where a subdomain reaches two boxes over.

use parapre::core::{build_case, build_case_sized, partition_case, CaseId, CaseSize};
use parapre::core::{AssembledCase, PartitionScheme, SchwarzPrecond};
use parapre::dist::{scatter_vector, DistMatrix, DistPrecond};
use parapre::krylov::Preconditioner;
use parapre::mpisim::Universe;
use parapre::partition::balanced_box_layout;
use parapre::sparse::dense::DenseLu;
use parapre::sparse::Dense;
use parapre::transform::FastPoisson2d;

/// Schwarz parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchwarzConfig {
    /// Number of subdomains (the paper's P).
    pub n_subdomains: usize,
    /// Overlap as a fraction of the subdomain side (paper: ≈ 0.05).
    pub overlap_frac: f64,
    /// Coarse grid `(cx, cy)` node counts; `None` disables CGC.
    /// The paper's fixed coarse grid is 5 × 17.
    pub coarse: Option<(usize, usize)>,
    /// CG iterations per subdomain solve (paper: 1).
    pub cg_iters: usize,
}

impl SchwarzConfig {
    /// Paper §5.2 configuration without coarse-grid corrections.
    pub fn without_cgc(p: usize) -> Self {
        SchwarzConfig {
            n_subdomains: p,
            overlap_frac: 0.05,
            coarse: None,
            cg_iters: 1,
        }
    }

    /// Paper §5.2 configuration with the fixed 5 × 17 coarse grid.
    pub fn with_cgc(p: usize) -> Self {
        SchwarzConfig {
            n_subdomains: p,
            overlap_frac: 0.05,
            coarse: Some((5, 17)),
            cg_iters: 1,
        }
    }
}

/// One overlapping rectangular subdomain over interior lattice indices.
#[derive(Debug)]
struct Subdomain {
    /// Interior index ranges (into the `nx × ny` node lattice).
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    fp: FastPoisson2d,
}

/// Bilinear coarse-grid correction data.
struct CoarseGrid {
    cx: usize,
    cy: usize,
    lu: DenseLu,
}

/// The assembled additive Schwarz preconditioner for the TC1 grid.
pub struct AdditiveSchwarz {
    nx: usize,
    ny: usize,
    subs: Vec<Subdomain>,
    coarse: Option<CoarseGrid>,
    cg_iters: usize,
}

impl AdditiveSchwarz {
    /// Builds the preconditioner for the all-Dirichlet Poisson problem on
    /// an `nx × ny`-node unit-square grid (Test Case 1).
    pub fn build(nx: usize, ny: usize, cfg: &SchwarzConfig) -> Self {
        let layout = balanced_box_layout(cfg.n_subdomains, 2);
        let (px, py) = (layout[0], layout[1]);
        let mut subs = Vec::with_capacity(px * py);
        // Interior lattice: indices 1..nx-1, 1..ny-1 (boundary is Dirichlet).
        for bj in 0..py {
            for bi in 0..px {
                // Non-overlapping box in node space.
                let i_lo = 1 + bi * (nx - 2) / px;
                let i_hi = 1 + (bi + 1) * (nx - 2) / px;
                let j_lo = 1 + bj * (ny - 2) / py;
                let j_hi = 1 + (bj + 1) * (ny - 2) / py;
                // Extend by ~5% of the side length per direction.
                let oi = (((i_hi - i_lo) as f64 * cfg.overlap_frac).ceil() as usize).max(1);
                let oj = (((j_hi - j_lo) as f64 * cfg.overlap_frac).ceil() as usize).max(1);
                let i0 = i_lo.saturating_sub(oi).max(1);
                let i1 = (i_hi + oi).min(nx - 1);
                let j0 = j_lo.saturating_sub(oj).max(1);
                let j1 = (j_hi + oj).min(ny - 1);
                let fp = FastPoisson2d::new(i1 - i0, j1 - j0, 1.0, 1.0);
                subs.push(Subdomain { i0, i1, j0, j1, fp });
            }
        }
        let coarse = cfg.coarse.map(|(cx, cy)| {
            // P1 coarse operator on the unit square with Dirichlet rows;
            // structure identical to the fine assembly, solved densely
            // ("Gaussian elimination", paper §5.2).
            let mesh = parapre::grid::structured::unit_square(cx, cy);
            let (a, b) = parapre::fem::poisson::assemble_2d(&mesh, |_, _| 0.0);
            let mut sys = parapre::fem::LinearSystem { a, b };
            let fixed: Vec<(usize, f64)> = mesh
                .boundary_nodes()
                .iter()
                .enumerate()
                .filter(|&(_, &on)| on)
                .map(|(i, _)| (i, 0.0))
                .collect();
            parapre::fem::bc::apply_dirichlet(&mut sys, &fixed);
            let n = sys.b.len();
            let mut dense = Dense::zeros(n, n);
            for (i, j, v) in sys.a.iter() {
                dense[(i, j)] = v;
            }
            CoarseGrid {
                cx,
                cy,
                lu: DenseLu::factor(dense).expect("coarse operator regular"),
            }
        });
        AdditiveSchwarz {
            nx,
            ny,
            subs,
            coarse,
            cg_iters: cfg.cg_iters,
        }
    }

    /// Number of subdomains.
    pub fn n_subdomains(&self) -> usize {
        self.subs.len()
    }

    /// One (or `cg_iters`) preconditioned CG iteration(s) on the subdomain
    /// stencil, starting from zero — the paper's subdomain solver. With the
    /// spectrally exact FFT preconditioner a single iteration is an exact
    /// solve (α = 1), matching the paper's design intent.
    fn subdomain_solve(&self, s: &Subdomain, r: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; r.len()];
        let mut res = r.to_vec();
        for _ in 0..self.cg_iters.max(1) {
            let z = s.fp.solve(&res);
            let az = s.fp.apply(&z, 1.0, 1.0);
            let rz: f64 = res.iter().zip(&z).map(|(a, b)| a * b).sum();
            let zaz: f64 = z.iter().zip(&az).map(|(a, b)| a * b).sum();
            if zaz <= 0.0 {
                break;
            }
            let alpha = rz / zaz;
            for ((xi, &zi), (ri, &azi)) in x.iter_mut().zip(&z).zip(res.iter_mut().zip(&az)) {
                *xi += alpha * zi;
                *ri -= alpha * azi;
            }
        }
        x
    }
}

impl Preconditioner for AdditiveSchwarz {
    fn dim(&self) -> usize {
        self.nx * self.ny
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let nx = self.nx;
        z.fill(0.0);
        // Overlapping regions receive contributions from several
        // subdomains, summed in subdomain order.
        for s in &self.subs {
            let w = s.i1 - s.i0;
            let h = s.j1 - s.j0;
            let mut rs = vec![0.0; w * h];
            for j in 0..h {
                for i in 0..w {
                    rs[j * w + i] = r[(s.j0 + j) * nx + (s.i0 + i)];
                }
            }
            let zs = self.subdomain_solve(s, &rs);
            for j in 0..h {
                for i in 0..w {
                    z[(s.j0 + j) * nx + (s.i0 + i)] += zs[j * w + i];
                }
            }
        }
        // Coarse-grid correction: z += P A_c^{-1} P^T r.
        if let Some(cg) = &self.coarse {
            let (cx, cy) = (cg.cx, cg.cy);
            let mut rc = vec![0.0; cx * cy];
            // R = P^T with bilinear interpolation weights.
            let sx = (cx - 1) as f64 / (self.nx - 1) as f64;
            let sy = (cy - 1) as f64 / (self.ny - 1) as f64;
            for j in 0..self.ny {
                let gy = j as f64 * sy;
                let jc = (gy.floor() as usize).min(cy - 2);
                let ty = gy - jc as f64;
                for i in 0..self.nx {
                    let gx = i as f64 * sx;
                    let ic = (gx.floor() as usize).min(cx - 2);
                    let tx = gx - ic as f64;
                    let v = r[j * self.nx + i];
                    rc[jc * cx + ic] += v * (1.0 - tx) * (1.0 - ty);
                    rc[jc * cx + ic + 1] += v * tx * (1.0 - ty);
                    rc[(jc + 1) * cx + ic] += v * (1.0 - tx) * ty;
                    rc[(jc + 1) * cx + ic + 1] += v * tx * ty;
                }
            }
            // Zero the coarse Dirichlet rows (identity rows expect 0 rhs).
            for jc in 0..cy {
                for ic in 0..cx {
                    if ic == 0 || jc == 0 || ic == cx - 1 || jc == cy - 1 {
                        rc[jc * cx + ic] = 0.0;
                    }
                }
            }
            cg.lu.solve_in_place(&mut rc);
            // z += P zc.
            for j in 0..self.ny {
                let gy = j as f64 * sy;
                let jc = (gy.floor() as usize).min(cy - 2);
                let ty = gy - jc as f64;
                for i in 0..self.nx {
                    let gx = i as f64 * sx;
                    let ic = (gx.floor() as usize).min(cx - 2);
                    let tx = gx - ic as f64;
                    z[j * self.nx + i] += (1.0 - tx) * (1.0 - ty) * rc[jc * cx + ic]
                        + tx * (1.0 - ty) * rc[jc * cx + ic + 1]
                        + (1.0 - tx) * ty * rc[(jc + 1) * cx + ic]
                        + tx * ty * rc[(jc + 1) * cx + ic + 1];
                }
            }
        }
        // Dirichlet (identity) rows of the fine system: pass through.
        for j in 0..self.ny {
            for i in 0..self.nx {
                if i == 0 || j == 0 || i == self.nx - 1 || j == self.ny - 1 {
                    z[j * self.nx + i] = r[j * self.nx + i];
                }
            }
        }
    }
}

/// Per lattice side, `P` and CGC: the messages each rank sends in one apply
/// (a gather and a return per rank of the exchange lists, plus the
/// all-reduce's with CGC).
type Row = (&'static str, usize, bool, &'static [u64]);

const EXPECTED: &[Row] = &[
    ("17", 1, false, &[0]),
    ("17", 1, true, &[0]),
    ("17", 2, false, &[1, 1]),
    ("17", 2, true, &[2, 2]),
    ("17", 4, false, &[3, 2, 2, 3]),
    ("17", 4, true, &[5, 3, 4, 4]),
    ("17", 7, false, &[2, 4, 3, 2, 3, 2, 2]),
    ("17", 7, true, &[5, 5, 5, 3, 6, 3, 3]),
    ("17", 8, false, &[3, 2, 4, 4, 4, 4, 2, 3]),
    ("17", 8, true, &[6, 3, 6, 5, 7, 5, 4, 4]),
    (
        "17",
        16,
        false,
        &[3, 4, 4, 2, 4, 6, 6, 4, 4, 6, 6, 4, 2, 4, 4, 3],
    ),
    (
        "17",
        16,
        true,
        &[7, 5, 6, 3, 7, 7, 8, 5, 8, 7, 8, 5, 5, 5, 6, 4],
    ),
    ("33", 1, false, &[0]),
    ("33", 1, true, &[0]),
    ("33", 2, false, &[1, 1]),
    ("33", 2, true, &[2, 2]),
    ("33", 4, false, &[3, 2, 2, 3]),
    ("33", 4, true, &[5, 3, 4, 4]),
    ("33", 7, false, &[2, 3, 2, 2, 2, 2, 1]),
    ("33", 7, true, &[5, 4, 4, 3, 5, 3, 2]),
    ("33", 8, false, &[3, 2, 4, 4, 4, 4, 2, 3]),
    ("33", 8, true, &[6, 3, 6, 5, 7, 5, 4, 4]),
    (
        "33",
        16,
        false,
        &[3, 4, 4, 2, 4, 6, 6, 4, 4, 6, 6, 4, 2, 4, 4, 3],
    ),
    (
        "33",
        16,
        true,
        &[7, 5, 6, 3, 7, 7, 8, 5, 8, 7, 8, 5, 5, 5, 6, 4],
    ),
];

/// A fixed residual with no structure the subdomain solves could hide.
fn residual(n: usize) -> Vec<f64> {
    (0..n)
        .map(|g| ((g as f64) * 0.618_033_988_7).fract() - 0.5 + 1e-3 * g as f64)
        .collect()
}

/// The gathered distributed apply of `r` and each rank's sent messages.
fn distributed(case: &AssembledCase, p: usize, coarse: bool, r: &[f64]) -> (Vec<f64>, Vec<u64>) {
    let part = partition_case(case, PartitionScheme::Boxes, p, 0);
    let owner = case.dof_owner(&part.owner);
    let (a, owner) = (&case.sys.a, &owner);
    let per_rank = Universe::run(p, move |comm| {
        let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
        let m = SchwarzPrecond::build(&dm, comm, coarse).expect("box-partitioned TC1");
        let r_loc = scatter_vector(&dm.layout, r);
        let mut z = vec![0.0; r_loc.len()];
        let before = comm.stats().msgs_sent;
        m.apply(comm, &r_loc, &mut z);
        let sent = comm.stats().msgs_sent - before;
        (dm.layout.local_to_global[..z.len()].to_vec(), z, sent)
    });
    let mut z = vec![f64::NAN; r.len()];
    let mut sent = Vec::new();
    for (globals, values, s) in per_rank {
        for (g, v) in globals.into_iter().zip(values) {
            z[g] = v;
        }
        sent.push(s);
    }
    (z, sent)
}

#[test]
fn the_distributed_apply_is_the_shared_memory_one() {
    let cases = [
        ("17", build_case(CaseId::Tc1, CaseSize::Tiny)),
        ("33", build_case_sized(CaseId::Tc1, 33)),
    ];
    let mut table = Vec::new();
    for (name, case) in &cases {
        let nx = case.structured_dims.expect("TC1 is structured")[0];
        let r = residual(nx * nx);
        for p in [1, 2, 4, 7, 8, 16] {
            for coarse in [false, true] {
                let cfg = if coarse {
                    SchwarzConfig::with_cgc(p)
                } else {
                    SchwarzConfig::without_cgc(p)
                };
                let mut reference = vec![0.0; r.len()];
                AdditiveSchwarz::build(nx, nx, &cfg).apply(&r, &mut reference);
                let (z, sent) = distributed(case, p, coarse, &r);
                if coarse {
                    let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let diff = z
                        .iter()
                        .zip(&reference)
                        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                    assert!(
                        diff <= 1e-12 * scale,
                        "{name}² P={p} CGC: {diff:e} of {scale:e}"
                    );
                } else {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert!(
                        bits(&z) == bits(&reference),
                        "{name}² P={p}: not bit for bit"
                    );
                }
                table.push((name, p, coarse, sent));
            }
        }
    }
    let same = table.len() == EXPECTED.len()
        && table
            .iter()
            .zip(EXPECTED)
            .all(|((n, p, c, sent), row)| (**n, *p, *c, &sent[..]) == *row);
    assert!(
        same,
        "messages sent per apply moved; the current table:\n{}",
        table
            .iter()
            .map(|(n, p, c, sent)| format!("    ({n:?}, {p}, {c}, &{sent:?}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
