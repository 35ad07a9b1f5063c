//! # parapre-dist
//!
//! The *distributed sparse linear system* of the paper (§1.1, Fig. 1): the
//! global system `Ax = b` exists only logically; every rank holds the rows
//! of its subdomain in a local ordering
//!
//! ```text
//! [ internal | interdomain interface | external interface (ghosts) ]
//!      u_i              y_i                (neighbors' y_j)
//! ```
//!
//! so the local matrix is the paper's block form
//! `A_i = [B_i F_i; E_i C_i]` plus the ghost coupling columns `E_ij`
//! (eq. 4–5). [`LocalLayout`] carries the numbering and the neighbour
//! exchange plan; [`DistMatrix`] the local rows; [`solver`] the distributed
//! right-preconditioned (F)GMRES with restart (the paper's accelerator).
//!
//! Ghost updates ride on structural symmetry of the FEM matrices: the
//! values a rank must *send* to neighbour `q` are exactly its owned nodes
//! appearing as ghosts on `q`, which both sides can derive independently
//! from the global pattern — no handshake needed (mirroring how the paper's
//! communication patterns are precomputed by the Diffpack toolbox).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod solver;

/// The name distributed solves' reports had when they were their own struct.
pub use parapre_krylov::SolveReport as DistSolveReport;
pub use parapre_krylov::{BreakdownKind, SolveBreakdown, SolveReport};
pub use solver::{DistGmres, DistOp, DistPrecond, GmresConfig, IdentityDistPrecond, OrthMethod};

use parapre_mpisim::Comm;
use parapre_sparse::{ops, Csr, RowSplit};
use std::cell::RefCell;

thread_local! {
    /// Per-thread gather scratch for outgoing halo/interface messages, so
    /// the steady-state send path allocates nothing (the message buffers
    /// themselves come from the [`Comm`] pool). Thread-local rather than a
    /// struct field so [`DistMatrix`] stays `Sync` — the engine shares one
    /// matrix across all rank threads.
    static SEND_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Per-thread list of the neighbours an overlapped ghost exchange still
    /// has to block on, kept for the same reason.
    static STRAGGLERS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The message tags: one named constant per exchange protocol and per
/// collective decision, and no tag written as arithmetic anywhere else.
///
/// An all-reduce sends its reduce half on `tag` and its broadcast half on
/// `tag + 1` (`Comm::allreduce_sum_vec`), so every constant reserves the pair
/// `tag, tag + 1`, and no two pairs overlap ([`ALL`](tags::ALL) lists them
/// for the test that checks it). FIFO channels make reusing one tag for
/// successive operations of one protocol safe.
pub mod tags {
    /// Ghost-value exchange during matvec.
    pub const GHOST: u64 = 0x100;
    /// Interface-only exchange during Schur iterations.
    pub const SCHUR: u64 = 0x200;
    /// The build-time exchange of owned rows
    /// ([`DistMatrix::ghost_rows`](crate::DistMatrix::ghost_rows)).
    pub const GHOST_ROWS: u64 = 0x280;
    /// Reductions inside distributed Krylov solvers.
    pub const REDUCE: u64 = 0x300;
    /// `gather_vector`'s gather of the owned values to rank 0.
    pub const GATHER: u64 = REDUCE + 9;
    /// The one vote of a Schur-rung build.
    pub const SCHUR_BUILD_VOTE: u64 = REDUCE + 40;
    /// The fallback ladder's vote: did this rung build on every rank?
    pub const LADDER_VOTE: u64 = REDUCE + 48;
    /// The numeric-only refactorization's vote.
    pub const REFACTOR_VOTE: u64 = REDUCE + 50;
    /// Collectives of test code (e.g. a reference build's own vote), kept
    /// apart from every product decision.
    pub const TEST_VOTE: u64 = REDUCE + 60;

    /// Every constant above, by name.
    pub const ALL: [(&str, u64); 9] = [
        ("GHOST", GHOST),
        ("SCHUR", SCHUR),
        ("GHOST_ROWS", GHOST_ROWS),
        ("REDUCE", REDUCE),
        ("GATHER", GATHER),
        ("SCHUR_BUILD_VOTE", SCHUR_BUILD_VOTE),
        ("LADDER_VOTE", LADDER_VOTE),
        ("REFACTOR_VOTE", REFACTOR_VOTE),
        ("TEST_VOTE", TEST_VOTE),
    ];
}

/// Per-rank numbering and communication plan.
#[derive(Debug, Clone)]
pub struct LocalLayout {
    /// This rank.
    pub rank: usize,
    /// Number of ranks.
    pub n_ranks: usize,
    /// Owned internal nodes (local ids `0..n_internal`).
    pub n_internal: usize,
    /// Owned interdomain-interface nodes
    /// (local ids `n_internal..n_owned()`).
    pub n_interface: usize,
    /// Ghost (external interface) nodes, appended after the owned ones.
    pub n_ghost: usize,
    /// Global id of each local node (owned then ghosts).
    pub local_to_global: Vec<usize>,
    /// Neighbour ranks, sorted.
    pub neighbors: Vec<usize>,
    /// Per neighbour: **local** indices (interface nodes) whose values this
    /// rank sends, sorted by global id.
    pub send_idx: Vec<Vec<usize>>,
    /// Per neighbour: local ghost indices filled by the matching receive
    /// (aligned element-wise with the peer's `send_idx`).
    pub recv_idx: Vec<Vec<usize>>,
}

impl LocalLayout {
    /// Number of owned unknowns (`internal + interface`).
    pub fn n_owned(&self) -> usize {
        self.n_internal + self.n_interface
    }

    /// Total local width including ghosts.
    pub fn n_local(&self) -> usize {
        self.n_owned() + self.n_ghost
    }

    /// Posts the ghost-value sends to every neighbour (pooled buffers, no
    /// per-message allocation). `x` holds `k` columns of length
    /// [`LocalLayout::n_local`] in the column-group layout of
    /// [`ops::pack_columns`] (one column: the plain vector); one message per
    /// neighbour carries all of them. Pair with [`LocalLayout::finish_ghosts`]
    /// to complete the exchange; together they equal
    /// [`LocalLayout::update_ghosts`] but allow interleaving computation.
    pub fn post_ghost_sends(&self, comm: &mut Comm, x: &[f64], k: usize, tag: u64) {
        let n_local = self.n_local();
        SEND_SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            for (q, send_idx) in self.neighbors.iter().zip(&self.send_idx) {
                buf.clear();
                for g in ops::column_groups(k) {
                    let (w, block) = (g.len(), &x[g.start * n_local..g.end * n_local]);
                    for &i in send_idx {
                        buf.extend_from_slice(&block[i * w..(i + 1) * w]);
                    }
                }
                comm.send_f64s_from(*q, tag, &buf);
            }
        });
    }

    /// Completes a ghost exchange of `k` columns started by
    /// [`LocalLayout::post_ghost_sends`]: first polls every neighbour
    /// non-blockingly (counting how many messages were already in flight
    /// under `halo.ready_after_interior` / `halo.wait_after_interior`), then
    /// blocks on the stragglers. Delivered buffers are recycled into the
    /// comm pool.
    pub fn finish_ghosts(&self, comm: &mut Comm, x: &mut [f64], k: usize, tag: u64) {
        STRAGGLERS.with(|s| {
            let mut stragglers = s.borrow_mut();
            stragglers.clear();
            for (nb, &q) in self.neighbors.iter().enumerate() {
                match comm.try_recv(q, tag) {
                    Some(data) => self.store_ghosts(comm, nb, data, x, k),
                    None => stragglers.push(nb),
                }
            }
            let late = stragglers.len() as u64;
            parapre_metrics::count(
                parapre_metrics::names::HALO_READY,
                self.neighbors.len() as u64 - late,
            );
            parapre_metrics::count(parapre_metrics::names::HALO_WAIT, late);
            for &nb in stragglers.iter() {
                let data = comm.recv(self.neighbors[nb], tag);
                self.store_ghosts(comm, nb, data, x, k);
            }
        });
    }

    /// Writes neighbour `nb`'s delivered ghost values of `k` columns into
    /// `x` and hands the buffer back to the comm pool.
    fn store_ghosts(&self, comm: &mut Comm, nb: usize, data: Vec<f64>, x: &mut [f64], k: usize) {
        let recv_idx = &self.recv_idx[nb];
        debug_assert_eq!(data.len(), recv_idx.len() * k);
        let n_local = self.n_local();
        let mut values = data.iter();
        for g in ops::column_groups(k) {
            let (w, block) = (g.len(), &mut x[g.start * n_local..g.end * n_local]);
            for &gi in recv_idx {
                for (slot, &v) in block[gi * w..(gi + 1) * w].iter_mut().zip(&mut values) {
                    *slot = v;
                }
            }
        }
        comm.recycle_f64s(data);
    }

    /// Updates the ghost tail of `x` (length [`LocalLayout::n_local`]) with
    /// the owners' current values.
    pub fn update_ghosts(&self, comm: &mut Comm, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n_local());
        let _span = parapre_metrics::span(parapre_metrics::names::HALO);
        self.post_ghost_sends(comm, x, 1, tags::GHOST);
        for (nb, &q) in self.neighbors.iter().enumerate() {
            let data = comm.recv(q, tags::GHOST);
            self.store_ghosts(comm, nb, data, x, 1);
        }
    }

    /// Exchanges **interface** values: `y` has length `n_interface` (the
    /// owned interface block), `ghosts` receives the neighbours' interface
    /// values in ghost order (length `n_ghost`). Used by the Schur-system
    /// matvec, which iterates only on interface unknowns.
    pub fn exchange_interface(&self, comm: &mut Comm, y: &[f64], ghosts: &mut [f64]) {
        debug_assert_eq!(y.len(), self.n_interface);
        debug_assert_eq!(ghosts.len(), self.n_ghost);
        let _span = parapre_metrics::span(parapre_metrics::names::INTERFACE_EXCHANGE);
        let base = self.n_internal;
        SEND_SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            for (k, &q) in self.neighbors.iter().enumerate() {
                buf.clear();
                buf.extend(self.send_idx[k].iter().map(|&i| y[i - base]));
                comm.send_f64s_from(q, tags::SCHUR, &buf);
            }
        });
        let owned = self.n_owned();
        for (k, &q) in self.neighbors.iter().enumerate() {
            let data = comm.recv(q, tags::SCHUR);
            for (&gi, &v) in self.recv_idx[k].iter().zip(&data) {
                ghosts[gi - owned] = v;
            }
            comm.recycle_f64s(data);
        }
    }

    /// Distributed dot product over owned entries.
    pub fn dot(&self, comm: &mut Comm, x: &[f64], y: &[f64]) -> f64 {
        let local = ops::dot(&x[..self.n_owned()], &y[..self.n_owned()]);
        comm.allreduce_sum(local, tags::REDUCE)
    }

    /// Distributed 2-norm over owned entries.
    pub fn norm2(&self, comm: &mut Comm, x: &[f64]) -> f64 {
        self.dot(comm, x, x).sqrt()
    }
}

/// Precomputed interior/boundary row split of a rank's local matrix,
/// driving the comm/compute-overlapped SpMV.
///
/// *Interior* rows reference owned columns only, so their dot products can
/// run while ghost values are still in flight; *boundary* rows touch at
/// least one ghost column and run after the halo lands. Because the split
/// keeps whole rows (each row's left-to-right accumulation order is
/// untouched), the recombined result is **bitwise identical** to the fused
/// [`Csr::spmv`] — verified by property tests across random meshes and
/// partitions.
#[derive(Debug, Clone)]
pub struct DistSpmvPlan {
    /// Whole-row partition of the local matrix at the owned/ghost column
    /// threshold.
    pub split: RowSplit,
}

impl DistSpmvPlan {
    /// Builds the plan for `a_loc` (owned rows × local cols) under `layout`.
    pub fn new(a_loc: &Csr, layout: &LocalLayout) -> Self {
        DistSpmvPlan {
            split: a_loc.split_rows(layout.n_owned()),
        }
    }

    /// Rows computable before ghost values arrive.
    pub fn n_interior(&self) -> usize {
        self.split.interior_rows.len()
    }

    /// Rows needing at least one ghost value.
    pub fn n_boundary(&self) -> usize {
        self.split.boundary_rows.len()
    }

    /// Computes `y[rows[i]] = part.row(i) · x` for `K` interleaved columns,
    /// each with the exact accumulation order of [`Csr::spmv`].
    fn spmv_scattered<const K: usize>(
        part: &Csr,
        rows: &[usize],
        x: &[[f64; K]],
        y: &mut [[f64; K]],
    ) {
        for (ip, &row) in rows.iter().enumerate() {
            let (cols, vals) = part.row(ip);
            let mut acc = [0.0; K];
            for (&j, &v) in cols.iter().zip(vals) {
                let xj = &x[j];
                for c in 0..K {
                    acc[c] += v * xj[c];
                }
            }
            y[row] = acc;
        }
    }

    /// [`DistSpmvPlan::spmv_scattered`] of `part` over every column group of
    /// `k` packed columns: `x` of `n_local` rows, `y` of `n_owned`.
    fn spmv_columns(part: &Csr, rows: &[usize], x: &[f64], y: &mut [f64], k: usize) {
        let (n_local, n_owned) = (x.len() / k, y.len() / k);
        for g in ops::column_groups(k) {
            let xg = &x[g.start * n_local..g.end * n_local];
            let yg = &mut y[g.start * n_owned..g.end * n_owned];
            match g.len() {
                8 => Self::spmv_scattered::<8>(part, rows, xg.as_chunks().0, yg.as_chunks_mut().0),
                4 => Self::spmv_scattered::<4>(part, rows, xg.as_chunks().0, yg.as_chunks_mut().0),
                2 => Self::spmv_scattered::<2>(part, rows, xg.as_chunks().0, yg.as_chunks_mut().0),
                _ => Self::spmv_scattered::<1>(part, rows, xg.as_chunks().0, yg.as_chunks_mut().0),
            }
        }
    }
}

/// A rank's share of the distributed matrix.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    /// Numbering and exchange plan.
    pub layout: LocalLayout,
    /// Local rows: `n_owned × n_local`, columns in local ordering
    /// (internal, interface, ghosts).
    pub a_loc: Csr,
    /// Interior/boundary row split for the overlapped matvec.
    pub plan: DistSpmvPlan,
}

impl DistMatrix {
    /// Builds rank `rank`'s share from the (logically) global matrix and a
    /// node → rank ownership map.
    ///
    /// This is the row-distribution path; `parapre-fem::submesh` offers the
    /// paper's assembly-side alternative, and the two produce identical
    /// local systems (tested in the workspace integration tests).
    pub fn from_global(a: &Csr, owner: &[u32], rank: usize, n_ranks: usize) -> Self {
        let n = a.n_rows();
        assert_eq!(owner.len(), n);
        let me = rank as u32;
        // Owned nodes and their classification.
        let mut internal = Vec::new();
        let mut interface = Vec::new();
        let mut ghost_set: Vec<usize> = Vec::new();
        for g in 0..n {
            if owner[g] != me {
                continue;
            }
            let (cols, _) = a.row(g);
            let mut is_interface = false;
            for &c in cols {
                if owner[c] != me {
                    is_interface = true;
                    ghost_set.push(c);
                }
            }
            if is_interface {
                interface.push(g);
            } else {
                internal.push(g);
            }
        }
        ghost_set.sort_unstable();
        ghost_set.dedup();
        // Ghosts ordered by (owner, global id) for a deterministic plan.
        ghost_set.sort_by_key(|&g| (owner[g], g));

        let n_internal = internal.len();
        let n_interface = interface.len();
        let n_ghost = ghost_set.len();
        let mut local_to_global = Vec::with_capacity(n_internal + n_interface + n_ghost);
        local_to_global.extend_from_slice(&internal);
        local_to_global.extend_from_slice(&interface);
        local_to_global.extend_from_slice(&ghost_set);
        let mut global_to_local = vec![usize::MAX; n];
        for (l, &g) in local_to_global.iter().enumerate() {
            global_to_local[g] = l;
        }

        // Neighbours = owners of ghosts; recv plan groups ghosts by owner.
        let mut neighbors: Vec<usize> = ghost_set.iter().map(|&g| owner[g] as usize).collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        let mut recv_idx: Vec<Vec<usize>> = vec![Vec::new(); neighbors.len()];
        for &g in &ghost_set {
            let k = neighbors
                .binary_search(&(owner[g] as usize))
                .expect("ghost owner listed");
            recv_idx[k].push(global_to_local[g]);
        }
        // recv order within a neighbour must match the peer's send order:
        // both sort by global id.
        for (k, list) in recv_idx.iter_mut().enumerate() {
            let _ = k;
            list.sort_by_key(|&l| local_to_global[l]);
        }

        // Send plan: owned interface nodes appearing in a neighbour's rows.
        // With a structurally symmetric pattern this is derivable from this
        // rank's own rows: owned g couples to a node of q ⇒ q needs g.
        let mut send_sets: Vec<Vec<usize>> = vec![Vec::new(); neighbors.len()];
        for &g in &interface {
            let (cols, _) = a.row(g);
            let mut sent_to: Vec<usize> = cols
                .iter()
                .filter(|&&c| owner[c] != me)
                .map(|&c| owner[c] as usize)
                .collect();
            sent_to.sort_unstable();
            sent_to.dedup();
            for q in sent_to {
                let k = neighbors.binary_search(&q).expect("neighbor listed");
                send_sets[k].push(global_to_local[g]);
            }
        }
        for list in &mut send_sets {
            list.sort_by_key(|&l| local_to_global[l]);
            list.dedup();
        }

        // Local rows with columns renumbered; ghost columns kept, all other
        // external columns must not exist (they would violate the minimum-
        // overlap invariant).
        let col_map: Vec<Option<usize>> = (0..n)
            .map(|g| (global_to_local[g] != usize::MAX).then(|| global_to_local[g]))
            .collect();
        // Rows in local order: internal then interface.
        let owned_rows: Vec<usize> = local_to_global[..n_internal + n_interface].to_vec();
        let a_loc = a.extract(&owned_rows, &col_map, n_internal + n_interface + n_ghost);
        // Sanity: every entry of an owned row landed in the local matrix.
        debug_assert_eq!(
            a_loc.nnz(),
            owned_rows.iter().map(|&g| a.row(g).0.len()).sum::<usize>()
        );

        let layout = LocalLayout {
            rank,
            n_ranks,
            n_internal,
            n_interface,
            n_ghost,
            local_to_global,
            neighbors,
            send_idx: send_sets,
            recv_idx,
        };
        let plan = DistSpmvPlan::new(&a_loc, &layout);
        DistMatrix {
            layout,
            a_loc,
            plan,
        }
    }

    /// Distributed matvec `y = A x` with **communication/computation
    /// overlap**: posts the ghost sends, computes interior rows while the
    /// values are in flight, then finishes the exchange and the boundary
    /// rows. Bitwise identical to a full exchange followed by
    /// [`Csr::spmv`] because the row split preserves each row's
    /// accumulation order.
    ///
    /// `x` has length `n_local` (ghost tail is scratch), `y` length
    /// `n_owned`.
    pub fn matvec(&self, comm: &mut Comm, x: &mut [f64], y: &mut [f64]) {
        self.matvec_columns(comm, x, y, 1);
    }

    /// [`DistMatrix::matvec`] of `k` columns packed in the column-group
    /// layout of [`ops::pack_columns`] (`x` of `k · n_local`, `y` of
    /// `k · n_owned`): one ghost message per neighbour, each matrix entry
    /// read once per column group, every column bit for bit its own matvec.
    pub(crate) fn matvec_columns(&self, comm: &mut Comm, x: &mut [f64], y: &mut [f64], k: usize) {
        debug_assert_eq!(x.len(), k * self.layout.n_local());
        debug_assert_eq!(y.len(), k * self.layout.n_owned());
        let _span = parapre_metrics::span(parapre_metrics::names::SPMV);
        let split = &self.plan.split;
        self.layout.post_ghost_sends(comm, x, k, tags::GHOST);
        DistSpmvPlan::spmv_columns(&split.interior, &split.interior_rows, x, y, k);
        {
            let _halo = parapre_metrics::span(parapre_metrics::names::HALO);
            self.layout.finish_ghosts(comm, x, k, tags::GHOST);
        }
        DistSpmvPlan::spmv_columns(&split.boundary, &split.boundary_rows, x, y, k);
    }

    /// The paper's local blocks `B_i, F_i, E_i, C_i` (eq. 4) plus the ghost
    /// coupling `E_ext = [E_ij]_j` (interface rows × ghost columns).
    pub fn split_blocks(&self) -> LocalBlocks {
        let [b, f, e, c] = self.owned_split();
        LocalBlocks {
            b,
            f,
            e,
            c,
            e_ext: self.interface_couplings(),
        }
    }

    /// `[B_i, F_i, E_i, C_i]`, the owned block split at the interface: the
    /// first four of [`DistMatrix::split_blocks`].
    pub fn owned_split(&self) -> [Csr; 4] {
        let ni = self.layout.n_internal;
        let nf = self.layout.n_interface;
        let no = ni + nf;
        let nl = self.layout.n_local();
        let internal_rows: Vec<usize> = (0..ni).collect();
        let iface_rows: Vec<usize> = (ni..no).collect();
        let map_b: Vec<Option<usize>> = (0..nl).map(|j| (j < ni).then_some(j)).collect();
        let map_f: Vec<Option<usize>> = (0..nl)
            .map(|j| (j >= ni && j < no).then(|| j - ni))
            .collect();
        [
            self.a_loc.extract(&internal_rows, &map_b, ni),
            self.a_loc.extract(&internal_rows, &map_f, nf),
            self.a_loc.extract(&iface_rows, &map_b, ni),
            self.a_loc.extract(&iface_rows, &map_f, nf),
        ]
    }

    /// `E_ext = [E_ij]_j`, interface rows × ghost columns, extracted alone:
    /// the one block of [`DistMatrix::split_blocks`] every Schur rung keeps.
    pub fn interface_couplings(&self) -> Csr {
        let no = self.layout.n_owned();
        let ng = self.layout.n_ghost;
        let iface_rows: Vec<usize> = (self.layout.n_internal..no).collect();
        let map_g: Vec<Option<usize>> = (0..no + ng).map(|j| (j >= no).then(|| j - no)).collect();
        self.a_loc.extract(&iface_rows, &map_g, ng)
    }

    /// The rows of this rank's ghost nodes, one entry list per ghost in
    /// ghost order, each restricted to the local node set and sorted by
    /// local column — the extra rows of a one-layer-overlap block.
    ///
    /// Collective over the neighbours: one message per neighbour on
    /// [`tags::GHOST_ROWS`] carries the owned rows of its `send_idx` (their
    /// lengths, their global column ids as `f64` — exact below 2⁵³ — and
    /// their values). An owned row of `a_loc` is the complete global row, so
    /// the received rows are the global matrix's. Nothing of global size is
    /// allocated.
    pub fn ghost_rows(&self, comm: &mut Comm) -> Vec<Vec<(usize, f64)>> {
        let lay = &self.layout;
        let l2g = &lay.local_to_global;
        for (&q, sent) in lay.neighbors.iter().zip(&lay.send_idx) {
            let rows = || sent.iter().map(|&l| self.a_loc.row(l));
            let mut msg: Vec<f64> = rows().map(|(cols, _)| cols.len() as f64).collect();
            msg.extend(rows().flat_map(|(cols, _)| cols.iter().map(|&c| l2g[c] as f64)));
            msg.extend(rows().flat_map(|(_, vals)| vals.iter().copied()));
            comm.send(q, tags::GHOST_ROWS, msg);
        }
        let g2l: std::collections::HashMap<usize, usize> =
            l2g.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        let no = lay.n_owned();
        let mut ghost_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); lay.n_ghost];
        for (&q, ghosts) in lay.neighbors.iter().zip(&lay.recv_idx) {
            let msg = comm.recv(q, tags::GHOST_ROWS);
            let (lens, entries) = msg.split_at(ghosts.len());
            let (cols, vals) = entries.split_at(entries.len() / 2);
            let mut at = 0;
            for (&l, &len) in ghosts.iter().zip(lens) {
                let end = at + len as usize;
                let row = &mut ghost_rows[l - no];
                row.extend(
                    cols[at..end]
                        .iter()
                        .zip(&vals[at..end])
                        .filter_map(|(&g, &v)| Some((*g2l.get(&(g as usize))?, v))),
                );
                row.sort_unstable_by_key(|&(c, _)| c);
                at = end;
            }
        }
        ghost_rows
    }

    /// The full owned block `A_i` (owned rows × owned cols) in local order —
    /// the operand of the simple block preconditioners.
    pub fn owned_block(&self) -> Csr {
        let no = self.layout.n_owned();
        let nl = self.layout.n_local();
        let rows: Vec<usize> = (0..no).collect();
        let map: Vec<Option<usize>> = (0..nl).map(|j| (j < no).then_some(j)).collect();
        self.a_loc.extract(&rows, &map, no)
    }
}

/// The block splitting of a subdomain matrix (paper eq. 4–5).
#[derive(Debug, Clone)]
pub struct LocalBlocks {
    /// Internal × internal block `B_i`.
    pub b: Csr,
    /// Internal × interface block `F_i`.
    pub f: Csr,
    /// Interface × internal block `E_i`.
    pub e: Csr,
    /// Interface × interface block `C_i`.
    pub c: Csr,
    /// Interface × ghost couplings `[E_ij]` to neighbouring interfaces.
    pub e_ext: Csr,
}

/// Splits a global vector into the local owned part for `rank` under the
/// layout's ordering.
pub fn scatter_vector(layout: &LocalLayout, global: &[f64]) -> Vec<f64> {
    layout.local_to_global[..layout.n_owned()]
        .iter()
        .map(|&g| global[g])
        .collect()
}

/// Gathers owned parts back into a global vector (rank 0 only, others get
/// `None`); used to verify distributed solves against sequential ones.
pub fn gather_vector(
    comm: &mut Comm,
    layout: &LocalLayout,
    local: &[f64],
    n_global: usize,
) -> Option<Vec<f64>> {
    // Interleave values with their global ids as floats (exact for the
    // mesh sizes used here, < 2^53).
    let mut payload = Vec::with_capacity(2 * layout.n_owned());
    for (l, &v) in local.iter().take(layout.n_owned()).enumerate() {
        payload.push(layout.local_to_global[l] as f64);
        payload.push(v);
    }
    let all = comm.gather_vec(0, &payload, tags::GATHER);
    all.map(|flat| {
        let mut out = vec![0.0; n_global];
        for pair in flat.chunks(2) {
            out[pair[0] as usize] = pair[1];
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_fem::poisson;
    use parapre_grid::structured::unit_square;
    use parapre_mpisim::Universe;
    use parapre_partition::partition_graph;

    fn setup() -> (Csr, Vec<u32>) {
        let mesh = unit_square(12, 12);
        let part = partition_graph(&mesh.adjacency(), 4, 3);
        let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
        (a, part.owner)
    }

    #[test]
    fn reserved_tag_pairs_do_not_overlap() {
        let mut pairs = tags::ALL;
        pairs.sort_by_key(|&(_, tag)| tag);
        for w in pairs.windows(2) {
            let [(a, ta), (b, tb)] = [w[0], w[1]];
            assert!(tb >= ta + 2, "{a} = {ta:#x} and {b} = {tb:#x} share a tag");
        }
    }

    #[test]
    fn layout_partitions_owned_nodes() {
        let (a, owner) = setup();
        let n = a.n_rows();
        let mut total_owned = 0;
        for r in 0..4 {
            let dm = DistMatrix::from_global(&a, &owner, r, 4);
            total_owned += dm.layout.n_owned();
            // Internal nodes have no ghost couplings in their rows.
            for li in 0..dm.layout.n_internal {
                let (cols, _) = dm.a_loc.row(li);
                assert!(cols.iter().all(|&c| c < dm.layout.n_owned()));
            }
            // Interface rows have at least one ghost coupling.
            for li in dm.layout.n_internal..dm.layout.n_owned() {
                let (cols, _) = dm.a_loc.row(li);
                assert!(cols.iter().any(|&c| c >= dm.layout.n_owned()));
            }
        }
        assert_eq!(total_owned, n);
    }

    #[test]
    fn send_and_recv_plans_pair_up() {
        let (a, owner) = setup();
        let dms: Vec<DistMatrix> = (0..4)
            .map(|r| DistMatrix::from_global(&a, &owner, r, 4))
            .collect();
        for p in 0..4 {
            for (k, &q) in dms[p].layout.neighbors.iter().enumerate() {
                // p's send list to q must match q's recv list from p,
                // element-wise in global ids.
                let send_g: Vec<usize> = dms[p].layout.send_idx[k]
                    .iter()
                    .map(|&l| dms[p].layout.local_to_global[l])
                    .collect();
                let kq = dms[q].layout.neighbors.binary_search(&p).expect("symmetry");
                let recv_g: Vec<usize> = dms[q].layout.recv_idx[kq]
                    .iter()
                    .map(|&l| dms[q].layout.local_to_global[l])
                    .collect();
                assert_eq!(send_g, recv_g, "plan mismatch {p}→{q}");
            }
        }
    }

    #[test]
    fn distributed_matvec_matches_global() {
        let (a, owner) = setup();
        let n = a.n_rows();
        let x_glob: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y_glob = a.mul_vec(&x_glob);
        let a_ref = &a;
        let owner_ref = &owner;
        let x_ref = &x_glob;
        let results = Universe::run(4, |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            let mut x = vec![0.0; dm.layout.n_local()];
            let owned = scatter_vector(&dm.layout, x_ref);
            x[..dm.layout.n_owned()].copy_from_slice(&owned);
            let mut y = vec![0.0; dm.layout.n_owned()];
            dm.matvec(comm, &mut x, &mut y);
            gather_vector(comm, &dm.layout, &y, x_ref.len())
        });
        let gathered = results[0].as_ref().expect("rank 0 gathers");
        for (u, v) in gathered.iter().zip(&y_glob) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn overlapped_matvec_bitwise_matches_exchange_then_spmv() {
        let (a, owner) = setup();
        let a_ref = &a;
        let owner_ref = &owner;
        let results = Universe::run(4, |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            // The plan covers every owned row exactly once.
            assert_eq!(
                dm.plan.n_interior() + dm.plan.n_boundary(),
                dm.layout.n_owned()
            );
            // Interior rows are exactly the internal nodes in this layout.
            assert_eq!(dm.plan.n_interior(), dm.layout.n_internal);
            let mut x = vec![0.0; dm.layout.n_local()];
            for (l, v) in x[..dm.layout.n_owned()].iter_mut().enumerate() {
                *v = (dm.layout.local_to_global[l] as f64 * 0.61).cos();
            }
            let mut x2 = x.clone();
            let mut y1 = vec![0.0; dm.layout.n_owned()];
            let mut y2 = vec![0.0; dm.layout.n_owned()];
            dm.matvec(comm, &mut x, &mut y1);
            dm.layout.update_ghosts(comm, &mut x2);
            dm.a_loc.spmv(&x2, &mut y2);
            y1 == y2 && x == x2
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn distributed_dot_matches_global() {
        let (a, owner) = setup();
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let want: f64 = x.iter().map(|v| v * v).sum();
        let a_ref = &a;
        let owner_ref = &owner;
        let x_ref = &x;
        let results = Universe::run(4, |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            let local = scatter_vector(&dm.layout, x_ref);
            dm.layout.dot(comm, &local, &local)
        });
        for v in results {
            assert!((v - want).abs() < 1e-9);
        }
    }

    #[test]
    fn blocks_reassemble_owned_rows() {
        let (a, owner) = setup();
        let dm = DistMatrix::from_global(&a, &owner, 1, 4);
        let blocks = dm.split_blocks();
        let ni = dm.layout.n_internal;
        // Row sums of [B F] must equal row sums of the first ni local rows.
        for i in 0..ni {
            let s_blocks: f64 =
                blocks.b.row(i).1.iter().sum::<f64>() + blocks.f.row(i).1.iter().sum::<f64>();
            let s_row: f64 = dm.a_loc.row(i).1.iter().sum();
            assert!((s_blocks - s_row).abs() < 1e-13);
        }
        // Interface rows: E + C + E_ext.
        for i in 0..dm.layout.n_interface {
            let s_blocks: f64 = blocks.e.row(i).1.iter().sum::<f64>()
                + blocks.c.row(i).1.iter().sum::<f64>()
                + blocks.e_ext.row(i).1.iter().sum::<f64>();
            let s_row: f64 = dm.a_loc.row(ni + i).1.iter().sum();
            assert!((s_blocks - s_row).abs() < 1e-13);
        }
    }

    #[test]
    fn figure1_census_consistent() {
        // Paper Fig. 1: every local node is internal, interdomain interface
        // or external interface; ghosts mirror neighbours' interfaces.
        let (a, owner) = setup();
        let dms: Vec<DistMatrix> = (0..4)
            .map(|r| DistMatrix::from_global(&a, &owner, r, 4))
            .collect();
        for dm in &dms {
            assert_eq!(
                dm.layout.n_local(),
                dm.layout.n_internal + dm.layout.n_interface + dm.layout.n_ghost
            );
            // Every ghost's global id is an interface node of its owner.
            for &g in &dm.layout.local_to_global[dm.layout.n_owned()..] {
                let o = owner[g] as usize;
                let lo = dms[o].layout.local_to_global[..dms[o].layout.n_owned()]
                    .iter()
                    .position(|&gg| gg == g)
                    .expect("ghost owned by neighbor");
                assert!(
                    lo >= dms[o].layout.n_internal,
                    "ghost not an interface node"
                );
            }
        }
    }
}
