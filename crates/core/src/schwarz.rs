//! Additive Schwarz with optional coarse-grid correction (paper §5.2).
//!
//! The paper contrasts its algebraic preconditioners with a classical
//! overlapping additive Schwarz preconditioner on Test Case 1:
//! rectangular subdomains from the simple box partitioning, overlap of
//! about 5 % of the subdomain side length in each direction, subdomain
//! solves by **one CG iteration accelerated by an FFT-based fast-Poisson
//! preconditioner**, and (optionally) a coarse-grid correction (CGC) on a
//! fixed very coarse global grid (the paper uses 5 × 17) solved by Gaussian
//! elimination:
//!
//! `M⁻¹ = Σ_s  P_s Ã_s⁻¹ R_s  (+ P_c A_c⁻¹ R_c)`.
//!
//! Without CGC the iteration count grows "dangerously" with P; with CGC the
//! Schwarz method beats all four algebraic preconditioners.
//!
//! Rank `s` owns box `s` of the box partition (`partition_boxes_2d` over
//! `balanced_box_layout(P, 2)`) and solves subdomain `s`: the same layout's
//! box over the interior lattice, widened by ⌈5 %⌉ of its side per
//! direction. One apply:
//!
//! 1. gathers the residual on the subdomain from the ranks owning it,
//! 2. solves the subdomain,
//! 3. returns the contributions on foreign nodes to their owners, and each
//!    owner sums the contributions at a node in ascending subdomain order,
//!    its own among them — the order of the sequential sum `Σ_s`, so
//!    without CGC the gathered `z` is the shared-memory apply bit for bit;
//! 4. with CGC, restricts the owned nodes, sums the 85-vector in one
//!    all-reduce, solves it redundantly with `DenseLu` and prolongs onto
//!    the owned nodes;
//! 5. passes the owned Dirichlet rows through.
//!
//! The exchange lists are geometry, worked out at build time from the
//! lattice side and `P`: every pair of ranks whose owned box and subdomain
//! meet, corners included — not the matvec neighbours.

use parapre_dist::{tags, DistMatrix, DistPrecond};
use parapre_mpisim::Comm;
use parapre_partition::balanced_box_layout;
use parapre_sparse::dense::DenseLu;
use parapre_sparse::{Dense, Error, Result};
use parapre_transform::FastPoisson2d;

/// Overlap per direction as a fraction of the subdomain side (paper: ≈ 5 %).
const OVERLAP_FRAC: f64 = 0.05;
/// The paper's fixed coarse grid, `(cx, cy)` nodes.
const COARSE: (usize, usize) = (5, 17);

/// A lattice rectangle `[i0, i1) × [j0, j1)`; node `(i, j)` is row `j·nx + i`.
#[derive(Clone, Copy)]
struct Rect {
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
}

impl Rect {
    fn width(&self) -> usize {
        self.i1 - self.i0
    }

    fn len(&self) -> usize {
        self.width() * (self.j1 - self.j0)
    }

    /// The common part of two rectangles, if any.
    fn meet(&self, o: &Rect) -> Option<Rect> {
        let m = Rect {
            i0: self.i0.max(o.i0),
            i1: self.i1.min(o.i1),
            j0: self.j0.max(o.j0),
            j1: self.j1.min(o.j1),
        };
        (m.i0 < m.i1 && m.j0 < m.j1).then_some(m)
    }

    /// Row-major offset of node `(i, j)` in this rectangle.
    fn at(&self, i: usize, j: usize) -> usize {
        (j - self.j0) * self.width() + (i - self.i0)
    }

    /// Offsets in `self` of the nodes of `part ⊆ self`, row-major.
    fn offsets<'a>(&'a self, part: &'a Rect) -> impl Iterator<Item = usize> + 'a {
        (part.j0..part.j1).flat_map(move |j| (part.i0..part.i1).map(move |i| self.at(i, j)))
    }
}

/// The box `partition_boxes_2d(nx, nx, px, py)` gives rank `s`.
fn owned_box(nx: usize, [px, py]: [usize; 2], s: usize) -> Rect {
    let (bi, bj) = (s % px, s / px);
    // Node i is in box b iff ⌊i·parts/nx⌋ = b.
    let from = |b: usize, parts: usize| (b * nx).div_ceil(parts);
    Rect {
        i0: from(bi, px),
        i1: from(bi + 1, px),
        j0: from(bj, py),
        j1: from(bj + 1, py),
    }
}

/// Subdomain `s`: its box over the interior lattice `1..nx-1`, widened by
/// ⌈5 %⌉ of its side (at least one node) per direction, clipped to the
/// interior.
fn subdomain(nx: usize, [px, py]: [usize; 2], s: usize) -> Rect {
    let (bi, bj) = (s % px, s / px);
    let widen = |b: usize, parts: usize| {
        let lo = 1 + b * (nx - 2) / parts;
        let hi = 1 + (b + 1) * (nx - 2) / parts;
        let o = (((hi - lo) as f64 * OVERLAP_FRAC).ceil() as usize).max(1);
        (lo.saturating_sub(o).max(1), (hi + o).min(nx - 1))
    };
    let ((i0, i1), (j0, j1)) = (widen(bi, px), widen(bj, py));
    Rect { i0, i1, j0, j1 }
}

/// One rank's share of the additive Schwarz preconditioner on an
/// `nx × nx` Test Case 1 lattice.
pub struct SchwarzPrecond {
    nx: usize,
    /// This rank's owned box.
    owned: Rect,
    /// Local index of each owned-box node, row-major.
    local_of: Vec<usize>,
    /// This rank's subdomain and its fast-Poisson solver.
    sub: Rect,
    fp: FastPoisson2d,
    /// Other ranks whose subdomain covers owned nodes, ascending, with the
    /// covered rectangle: this rank sends them the residual there and sums
    /// what they return.
    covered_by: Vec<(usize, Rect)>,
    /// Other ranks owning nodes of this subdomain, ascending, with those
    /// nodes: this rank gathers the residual there and returns its
    /// contribution.
    lenders: Vec<(usize, Rect)>,
    /// The factored coarse operator, with CGC.
    coarse: Option<DenseLu>,
}

impl SchwarzPrecond {
    /// Builds this rank's share. Collective: one all-reduce sums the owned
    /// row counts to the lattice size `n`, before any check can refuse, so
    /// every rank reaches the ladder vote. Refuses unless `n` is a perfect
    /// square and this rank owns exactly its box of the box partition.
    pub fn build(dm: &DistMatrix, comm: &mut Comm, coarse: bool) -> Result<Self> {
        let layout = &dm.layout;
        let no = layout.n_owned();
        let n = comm.allreduce_sum(no as f64, tags::SCHWARZ_SUM) as usize;
        let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
        let refuse = |why: String| Err(Error::InvalidStructure(why.into()));
        let nx = n.isqrt();
        let boxes: [usize; 2] = balanced_box_layout(comm.size(), 2)
            .try_into()
            .expect("two dimensions");
        if nx * nx != n || nx < 2 + boxes[1] {
            return refuse(format!(
                "Schwarz needs a square lattice with a subdomain per rank: \
                 {n} rows, {boxes:?} boxes"
            ));
        }
        let me = comm.rank();
        let owned = owned_box(nx, boxes, me);
        if owned.len() != no {
            return refuse(format!("rank {me} owns {no} rows, its box {}", owned.len()));
        }
        let mut local_of = vec![usize::MAX; no];
        for (l, &g) in layout.local_to_global[..no].iter().enumerate() {
            let (i, j) = (g % nx, g / nx);
            if !(owned.i0..owned.i1).contains(&i) || !(owned.j0..owned.j1).contains(&j) {
                return refuse(format!("row {g} lies outside rank {me}'s box"));
            }
            local_of[owned.at(i, j)] = l;
        }
        let sub = subdomain(nx, boxes, me);
        let p = comm.size();
        let meeting = |mine: &Rect, theirs: fn(usize, [usize; 2], usize) -> Rect| {
            (0..p)
                .filter(|&t| t != me)
                .filter_map(|t| Some((t, mine.meet(&theirs(nx, boxes, t))?)))
                .collect::<Vec<_>>()
        };
        let covered_by = meeting(&owned, subdomain);
        let lenders = meeting(&sub, owned_box);
        Ok(SchwarzPrecond {
            nx,
            owned,
            local_of,
            sub,
            fp: FastPoisson2d::new(sub.width(), sub.j1 - sub.j0, 1.0, 1.0),
            covered_by,
            lenders,
            coarse: coarse.then(coarse_operator),
        })
    }
}

/// The P1 coarse operator on the `5 × 17` grid with Dirichlet rows —
/// structure identical to the fine assembly — factored densely ("Gaussian
/// elimination", paper §5.2).
fn coarse_operator() -> DenseLu {
    let mesh = parapre_grid::structured::unit_square(COARSE.0, COARSE.1);
    let (a, b) = parapre_fem::poisson::assemble_2d(&mesh, |_, _| 0.0);
    let mut sys = parapre_fem::LinearSystem { a, b };
    let fixed: Vec<(usize, f64)> = mesh
        .boundary_nodes()
        .iter()
        .enumerate()
        .filter(|&(_, &on)| on)
        .map(|(i, _)| (i, 0.0))
        .collect();
    parapre_fem::bc::apply_dirichlet(&mut sys, &fixed);
    let n = sys.b.len();
    let mut dense = Dense::zeros(n, n);
    for (i, j, v) in sys.a.iter() {
        dense[(i, j)] = v;
    }
    DenseLu::factor(dense).expect("coarse operator regular")
}

/// One preconditioned CG iteration on the subdomain stencil from zero —
/// the paper's subdomain solver. With the spectrally exact FFT
/// preconditioner a single iteration is an exact solve (α = 1).
fn subdomain_solve(fp: &FastPoisson2d, r: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; r.len()];
    let z = fp.solve(r);
    let az = fp.apply(&z, 1.0, 1.0);
    let rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
    let zaz: f64 = z.iter().zip(&az).map(|(a, b)| a * b).sum();
    if zaz > 0.0 {
        let alpha = rz / zaz;
        for (xi, &zi) in x.iter_mut().zip(&z) {
            *xi += alpha * zi;
        }
    }
    x
}

/// Bilinear interpolation of lattice node `(i, j)` from the coarse grid:
/// the lower-left coarse node and the weights `(tx, ty)`.
fn coarse_cell(nx: usize, i: usize, j: usize) -> (usize, f64, f64) {
    let (cx, cy) = COARSE;
    let sx = (cx - 1) as f64 / (nx - 1) as f64;
    let sy = (cy - 1) as f64 / (nx - 1) as f64;
    let (gx, gy) = (i as f64 * sx, j as f64 * sy);
    let ic = (gx.floor() as usize).min(cx - 2);
    let jc = (gy.floor() as usize).min(cy - 2);
    (jc * cx + ic, gx - ic as f64, gy - jc as f64)
}

impl DistPrecond for SchwarzPrecond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let (nx, owned, sub) = (self.nx, &self.owned, &self.sub);
        let rb: Vec<f64> = self.local_of.iter().map(|&l| r[l]).collect();
        // 1. The residual on the subdomain.
        for (t, part) in &self.covered_by {
            let vals: Vec<f64> = owned.offsets(part).map(|k| rb[k]).collect();
            comm.send_f64s_from(*t, tags::SCHWARZ, &vals);
        }
        let mine = owned.meet(sub);
        let mut rs = vec![0.0; sub.len()];
        for (k, ks) in mine
            .iter()
            .flat_map(|m| owned.offsets(m).zip(sub.offsets(m)))
        {
            rs[ks] = rb[k];
        }
        for (q, part) in &self.lenders {
            let data = comm.recv(*q, tags::SCHWARZ);
            for (ks, v) in sub.offsets(part).zip(&data) {
                rs[ks] = *v;
            }
            comm.recycle_f64s(data);
        }
        // 2. The subdomain solve.
        let zs = subdomain_solve(&self.fp, &rs);
        // 3. Contributions back to their owners, summed at each node in
        //    ascending subdomain order, this rank's own among them.
        for (q, part) in &self.lenders {
            let vals: Vec<f64> = sub.offsets(part).map(|ks| zs[ks]).collect();
            comm.send_f64s_from(*q, tags::SCHWARZ, &vals);
        }
        let mut zb = vec![0.0; owned.len()];
        let me = comm.rank();
        let own_turn = self.covered_by.partition_point(|&(t, _)| t < me);
        for turn in 0..=self.covered_by.len() {
            if turn == own_turn {
                for (k, ks) in mine
                    .iter()
                    .flat_map(|m| owned.offsets(m).zip(sub.offsets(m)))
                {
                    zb[k] += zs[ks];
                }
            }
            if let Some((t, part)) = self.covered_by.get(turn) {
                let data = comm.recv(*t, tags::SCHWARZ);
                for (k, v) in owned.offsets(part).zip(&data) {
                    zb[k] += v;
                }
                comm.recycle_f64s(data);
            }
        }
        // 4. Coarse-grid correction: z += P A_c⁻¹ Pᵀ r.
        if let Some(lu) = &self.coarse {
            let cx = COARSE.0;
            let mut rc = vec![0.0; cx * COARSE.1];
            for j in owned.j0..owned.j1 {
                for i in owned.i0..owned.i1 {
                    let (c, tx, ty) = coarse_cell(nx, i, j);
                    let v = rb[owned.at(i, j)];
                    rc[c] += v * (1.0 - tx) * (1.0 - ty);
                    rc[c + 1] += v * tx * (1.0 - ty);
                    rc[c + cx] += v * (1.0 - tx) * ty;
                    rc[c + cx + 1] += v * tx * ty;
                }
            }
            comm.allreduce_sum_vec(&mut rc, tags::SCHWARZ_SUM);
            // The coarse Dirichlet rows are identity rows: zero right side.
            for (c, v) in rc.iter_mut().enumerate() {
                let (ic, jc) = (c % cx, c / cx);
                if ic == 0 || jc == 0 || ic == cx - 1 || jc == COARSE.1 - 1 {
                    *v = 0.0;
                }
            }
            lu.solve_in_place(&mut rc);
            for j in owned.j0..owned.j1 {
                for i in owned.i0..owned.i1 {
                    let (c, tx, ty) = coarse_cell(nx, i, j);
                    zb[owned.at(i, j)] += (1.0 - tx) * (1.0 - ty) * rc[c]
                        + tx * (1.0 - ty) * rc[c + 1]
                        + (1.0 - tx) * ty * rc[c + cx]
                        + tx * ty * rc[c + cx + 1];
                }
            }
        }
        // 5. Dirichlet (identity) rows of the fine system pass through.
        for j in owned.j0..owned.j1 {
            for i in owned.i0..owned.i1 {
                let k = owned.at(i, j);
                let edge = i == 0 || j == 0 || i == nx - 1 || j == nx - 1;
                z[self.local_of[k]] = if edge { rb[k] } else { zb[k] };
            }
        }
    }
}
