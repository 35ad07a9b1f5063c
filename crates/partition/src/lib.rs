//! # parapre-partition
//!
//! Grid/graph partitioners standing in for Metis (paper reference 3).
//!
//! The paper partitions every global grid with "a general grid partitioning
//! scheme (based on Metis)" and notes that *different random number
//! generators on the two parallel machines* produced different partitions —
//! and hence different iteration counts — at the same processor count. Two
//! things matter for reproducing the study:
//!
//! 1. a reasonable general-purpose partitioner (balanced parts, small edge
//!    cut) over an arbitrary nodal graph — [`partition_graph`], a greedy
//!    graph-growing recursive bisection with boundary (KL-style) refinement,
//!    with an explicit RNG `seed` playing the role of the machine-dependent
//!    random number generator;
//! 2. the "simple grid partitioning scheme" of paper §5.1 that cuts uniform
//!    grids into rectangles/boxes — [`partition_boxes_2d`] /
//!    [`partition_boxes_3d`].
//!
//! [`partition_rcb`] (recursive coordinate bisection) is provided as an
//! additional geometric baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops mirror the papers' pseudocode in the numeric kernels.
#![allow(clippy::needless_range_loop)]

use parapre_grid::Adjacency;

/// A disjoint assignment of vertices to `n_parts` subdomains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Owning part of every vertex.
    pub owner: Vec<u32>,
    /// Number of parts.
    pub n_parts: usize,
}

impl Partition {
    /// Vertices per part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_parts];
        for &o in &self.owner {
            sizes[o as usize] += 1;
        }
        sizes
    }

    /// Number of graph edges crossing part boundaries.
    pub fn edge_cut(&self, adj: &Adjacency) -> usize {
        let mut cut = 0;
        for v in 0..adj.n() {
            for &w in adj.neighbors(v) {
                if w > v && self.owner[v] != self.owner[w] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Load imbalance: `max part size / mean part size` (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let mean = self.owner.len() as f64 / self.n_parts as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// For each part, the sorted list of neighbouring parts (parts sharing a
    /// cut edge).
    pub fn part_neighbors(&self, adj: &Adjacency) -> Vec<Vec<usize>> {
        let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); self.n_parts];
        for v in 0..adj.n() {
            let pv = self.owner[v] as usize;
            for &w in adj.neighbors(v) {
                let pw = self.owner[w] as usize;
                if pv != pw {
                    nbrs[pv].push(pw);
                }
            }
        }
        for list in &mut nbrs {
            list.sort_unstable();
            list.dedup();
        }
        nbrs
    }

    /// Number of vertices whose neighbourhood crosses into another part
    /// (interdomain interface points, paper Fig. 1).
    pub fn n_interface_vertices(&self, adj: &Adjacency) -> usize {
        (0..adj.n())
            .filter(|&v| {
                adj.neighbors(v)
                    .iter()
                    .any(|&w| self.owner[w] != self.owner[v])
            })
            .count()
    }
}

/// SplitMix64 — tiny deterministic RNG for seed-dependent partitioning.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E3779B97F4A7C15))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// General graph partitioner: recursive greedy-growing bisection with
/// KL-style boundary refinement. `seed` selects the random growth seeds
/// (the paper's machine-dependent RNG).
pub fn partition_graph(adj: &Adjacency, n_parts: usize, seed: u64) -> Partition {
    assert!(n_parts >= 1);
    let n = adj.n();
    let mut owner = vec![0u32; n];
    if n_parts > 1 {
        let all: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(seed);
        recurse(adj, &all, 0, n_parts, &mut owner, &mut rng);
    }
    Partition { owner, n_parts }
}

/// Recursively bisects `verts` into parts `[base, base + k)`.
fn recurse(
    adj: &Adjacency,
    verts: &[usize],
    base: u32,
    k: usize,
    owner: &mut [u32],
    rng: &mut Rng,
) {
    if k == 1 {
        for &v in verts {
            owner[v] = base;
        }
        return;
    }
    let k_left = k / 2;
    let target_left = verts.len() * k_left / k;
    let (left, right) = bisect(adj, verts, target_left, rng);
    recurse(adj, &left, base, k_left, owner, rng);
    recurse(adj, &right, base + k_left as u32, k - k_left, owner, rng);
}

/// Splits `verts` into (`≈target_left`, rest) by greedy BFS growth from a
/// pseudo-peripheral seed, followed by boundary refinement sweeps.
fn bisect(
    adj: &Adjacency,
    verts: &[usize],
    target_left: usize,
    rng: &mut Rng,
) -> (Vec<usize>, Vec<usize>) {
    let n = adj.n();
    // Local membership: MAX = not in this subproblem, 0 = left, 1 = right.
    let mut side = vec![u8::MAX; n];
    for &v in verts {
        side[v] = 1;
    }
    if verts.is_empty() || target_left == 0 {
        return (Vec::new(), verts.to_vec());
    }

    // Pseudo-peripheral start: random vertex, then the farthest vertex from
    // it (one BFS), which tends to sit on the subdomain periphery.
    let start0 = verts[rng.below(verts.len())];
    let start = bfs_farthest(adj, &side, start0);

    // Greedy growth of the left side.
    let mut in_left = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut grown = 0usize;
    in_left[start] = true;
    queue.push_back(start);
    grown += 1;
    while grown < target_left {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Disconnected remainder: restart from any right vertex.
                match verts.iter().find(|&&u| !in_left[u]) {
                    Some(&u) => {
                        in_left[u] = true;
                        grown += 1;
                        queue.push_back(u);
                        continue;
                    }
                    None => break,
                }
            }
        };
        for &w in adj.neighbors(v) {
            if grown >= target_left {
                break;
            }
            if side[w] != u8::MAX && !in_left[w] {
                in_left[w] = true;
                grown += 1;
                queue.push_back(w);
            }
        }
    }
    for &v in verts {
        side[v] = if in_left[v] { 0 } else { 1 };
    }

    // KL-style refinement sweeps: move vertices with positive gain while
    // keeping the split within a small imbalance band.
    let mut left_size = grown;
    let tol = (verts.len() / 20).max(1); // ±5 %
    for _pass in 0..8 {
        let mut moved = 0usize;
        for &v in verts {
            let s = side[v];
            let mut same = 0i64;
            let mut other = 0i64;
            for &w in adj.neighbors(v) {
                if side[w] == u8::MAX {
                    continue;
                }
                if side[w] == s {
                    same += 1;
                } else {
                    other += 1;
                }
            }
            let gain = other - same;
            if gain > 0 {
                let (new_left, ok) = if s == 0 {
                    (left_size - 1, left_size > target_left.saturating_sub(tol))
                } else {
                    (left_size + 1, left_size < target_left + tol)
                };
                if ok {
                    side[v] = 1 - s;
                    left_size = new_left;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }

    let mut left = Vec::with_capacity(left_size);
    let mut right = Vec::with_capacity(verts.len() - left_size);
    for &v in verts {
        if side[v] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    (left, right)
}

/// BFS over the sub-graph flagged in `side`, returning the farthest vertex.
fn bfs_farthest(adj: &Adjacency, side: &[u8], start: usize) -> usize {
    let mut visited = vec![false; adj.n()];
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    let mut last = start;
    while let Some(v) = queue.pop_front() {
        last = v;
        for &w in adj.neighbors(v) {
            if side[w] != u8::MAX && !visited[w] {
                visited[w] = true;
                queue.push_back(w);
            }
        }
    }
    last
}

/// Recursive coordinate bisection over `D`-dimensional point coordinates.
pub fn partition_rcb<const D: usize>(coords: &[[f64; D]], n_parts: usize) -> Partition {
    assert!(n_parts >= 1);
    let n = coords.len();
    let mut owner = vec![0u32; n];
    if n_parts > 1 {
        let all: Vec<usize> = (0..n).collect();
        rcb_recurse(coords, all, 0, n_parts, &mut owner);
    }
    Partition { owner, n_parts }
}

fn rcb_recurse<const D: usize>(
    coords: &[[f64; D]],
    mut verts: Vec<usize>,
    base: u32,
    k: usize,
    owner: &mut [u32],
) {
    if k == 1 {
        for &v in &verts {
            owner[v] = base;
        }
        return;
    }
    // Split along the widest extent.
    let mut best_axis = 0;
    let mut best_span = f64::NEG_INFINITY;
    for axis in 0..D {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &verts {
            lo = lo.min(coords[v][axis]);
            hi = hi.max(coords[v][axis]);
        }
        if hi - lo > best_span {
            best_span = hi - lo;
            best_axis = axis;
        }
    }
    let k_left = k / 2;
    let split = verts.len() * k_left / k;
    verts.select_nth_unstable_by(split, |&a, &b| {
        coords[a][best_axis]
            .partial_cmp(&coords[b][best_axis])
            .expect("coordinates are finite")
    });
    let right = verts.split_off(split);
    rcb_recurse(coords, verts, base, k_left, owner);
    rcb_recurse(coords, right, base + k_left as u32, k - k_left, owner);
}

/// The paper's "simple grid partitioning": cut an `nx × ny`-node uniform
/// grid into `px × py` rectangles. Node `(i, j)` (index `j·nx + i`) goes to
/// box `(i·px/nx, j·py/ny)`.
pub fn partition_boxes_2d(nx: usize, ny: usize, px: usize, py: usize) -> Partition {
    let mut owner = vec![0u32; nx * ny];
    for j in 0..ny {
        let bj = (j * py / ny).min(py - 1);
        for i in 0..nx {
            let bi = (i * px / nx).min(px - 1);
            owner[j * nx + i] = (bj * px + bi) as u32;
        }
    }
    Partition {
        owner,
        n_parts: px * py,
    }
}

/// 3-D box partitioning of an `nx × ny × nz`-node grid into
/// `px × py × pz` boxes.
pub fn partition_boxes_3d(
    nx: usize,
    ny: usize,
    nz: usize,
    px: usize,
    py: usize,
    pz: usize,
) -> Partition {
    let mut owner = vec![0u32; nx * ny * nz];
    for k in 0..nz {
        let bk = (k * pz / nz).min(pz - 1);
        for j in 0..ny {
            let bj = (j * py / ny).min(py - 1);
            for i in 0..nx {
                let bi = (i * px / nx).min(px - 1);
                owner[(k * ny + j) * nx + i] = ((bk * py + bj) * px + bi) as u32;
            }
        }
    }
    Partition {
        owner,
        n_parts: px * py * pz,
    }
}

/// Picks a near-square/cubic processor box layout for `p` parts in `dims`
/// dimensions (used by the shape-study harness): returns factors of `p`
/// whose product is `p`, as equal as possible.
pub fn balanced_box_layout(p: usize, dims: usize) -> Vec<usize> {
    assert!((1..=3).contains(&dims));
    let mut layout = vec![1usize; dims];
    let mut rem = p;
    // Repeatedly peel the smallest prime factor onto the smallest dimension.
    let mut d = 2usize;
    let mut factors = Vec::new();
    while d * d <= rem {
        while rem.is_multiple_of(d) {
            factors.push(d);
            rem /= d;
        }
        d += 1;
    }
    if rem > 1 {
        factors.push(rem);
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let argmin = (0..dims).min_by_key(|&i| layout[i]).expect("dims >= 1");
        layout[argmin] *= f;
    }
    layout.sort_unstable();
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_grid::structured::{unit_cube, unit_square};

    #[test]
    fn graph_partition_covers_and_balances() {
        let m = unit_square(20, 20);
        let adj = m.adjacency();
        for p in [2, 3, 4, 7, 8] {
            let part = partition_graph(&adj, p, 1);
            assert_eq!(part.owner.len(), 400);
            assert!(part.owner.iter().all(|&o| (o as usize) < p));
            let sizes = part.part_sizes();
            assert!(sizes.iter().all(|&s| s > 0), "{p} parts: {sizes:?}");
            assert!(
                part.imbalance() < 1.25,
                "p={p} imbalance {}",
                part.imbalance()
            );
        }
    }

    #[test]
    fn graph_partition_beats_random_cut() {
        let m = unit_square(24, 24);
        let adj = m.adjacency();
        let part = partition_graph(&adj, 4, 3);
        // Striped assignment as a poor baseline.
        let bad = Partition {
            owner: (0..adj.n()).map(|v| (v % 4) as u32).collect(),
            n_parts: 4,
        };
        assert!(part.edge_cut(&adj) * 3 < bad.edge_cut(&adj));
    }

    #[test]
    fn same_seed_same_partition_different_seed_differs() {
        let m = unit_square(16, 16);
        let adj = m.adjacency();
        let a = partition_graph(&adj, 4, 11);
        let b = partition_graph(&adj, 4, 11);
        let c = partition_graph(&adj, 4, 12);
        assert_eq!(a, b);
        assert_ne!(a, c, "different machine RNGs should partition differently");
    }

    #[test]
    fn single_part_is_trivial() {
        let m = unit_square(5, 5);
        let part = partition_graph(&m.adjacency(), 1, 0);
        assert!(part.owner.iter().all(|&o| o == 0));
        assert_eq!(part.edge_cut(&m.adjacency()), 0);
    }

    #[test]
    fn boxes_2d_exact_rectangles() {
        let part = partition_boxes_2d(8, 8, 2, 2);
        assert_eq!(part.part_sizes(), vec![16; 4]);
        // Node (0,0) in part 0; node (7,7) in part 3.
        assert_eq!(part.owner[0], 0);
        assert_eq!(part.owner[63], 3);
    }

    #[test]
    fn boxes_3d_balanced() {
        let part = partition_boxes_3d(8, 8, 8, 2, 2, 2);
        assert_eq!(part.part_sizes(), vec![64; 8]);
    }

    #[test]
    fn box_partition_cut_is_low_on_uniform_grid() {
        let m = unit_square(32, 32);
        let adj = m.adjacency();
        let boxes = partition_boxes_2d(32, 32, 4, 4);
        let general = partition_graph(&adj, 16, 5);
        // Boxes are near-optimal for uniform grids: within 2x of the general
        // scheme (usually better).
        assert!(boxes.edge_cut(&adj) <= 2 * general.edge_cut(&adj));
        assert!((boxes.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rcb_balances_points() {
        let m = unit_cube(10, 10, 10);
        let part = partition_rcb(&m.coords, 8);
        let sizes = part.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes.iter().all(|&s| s == 125), "{sizes:?}");
    }

    #[test]
    fn part_neighbors_symmetric() {
        let m = unit_square(20, 20);
        let adj = m.adjacency();
        let part = partition_graph(&adj, 6, 9);
        let nbrs = part.part_neighbors(&adj);
        for (p, list) in nbrs.iter().enumerate() {
            for &q in list {
                assert!(nbrs[q].contains(&p), "part adjacency not symmetric");
            }
        }
    }

    #[test]
    fn interface_vertex_count_reasonable() {
        let m = unit_square(20, 20);
        let adj = m.adjacency();
        let part = partition_boxes_2d(20, 20, 2, 2);
        let n_if = part.n_interface_vertices(&adj);
        // Two cutting lines of 20 nodes each, doubled for both sides ≈ 80.
        assert!((40..=120).contains(&n_if), "{n_if}");
    }

    #[test]
    fn balanced_layout_products() {
        assert_eq!(balanced_box_layout(16, 2).iter().product::<usize>(), 16);
        assert_eq!(balanced_box_layout(16, 2), vec![4, 4]);
        assert_eq!(balanced_box_layout(8, 3), vec![2, 2, 2]);
        assert_eq!(balanced_box_layout(12, 2), vec![3, 4]);
        assert_eq!(balanced_box_layout(7, 2), vec![1, 7]);
    }
}
