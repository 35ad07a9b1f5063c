//! `DistMatrix::from_global` against the body it replaced, kept here
//! verbatim as `reference`: that body gave every rank a length-`n`
//! `global_to_local` and `col_map`; the product reads only the rank's own
//! rows. The one edit to the reference is its `extract` call, whose column
//! map is now a function (`|j| col_map[j]`).
//!
//! Every `LocalLayout` field and `a_loc` (`row_ptr`, `col_idx` and the bits
//! of every value) must be equal on TC1–TC6 tiny at P ∈ {1, 2, 3, 4, 8}
//! under each partition scheme the case supports, on a general matrix whose
//! pattern `partition_matrix` symmetrized, and on the hostile block-owner
//! cells. The file also holds the refusal the layout's precondition needs:
//! `SolverSession::build` names the first unpaired entry of a structurally
//! unsymmetric pattern instead of solving the wrong system.

use parapre::core::cases::hostile_suite;
use parapre::core::{build_case, partition_case, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre::dist::{DistMatrix, LocalLayout};
use parapre::engine::session::partition_matrix;
use parapre::engine::{EngineError, SessionConfig, SolverSession};
use parapre::mpisim::MachineModel;
use parapre::sparse::{Coo, Csr};

/// The `from_global` body as it was, returning the layout and `a_loc`.
fn reference(a: &Csr, owner: &[u32], rank: usize, n_ranks: usize) -> (LocalLayout, Csr) {
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
    let a_loc = a.extract(
        &owned_rows,
        |j| col_map[j],
        n_internal + n_interface + n_ghost,
    );
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
    (layout, a_loc)
}

/// Asserts that every rank's share of `a` under `owner` is the reference's,
/// field by field and bit for bit.
fn assert_same_shares(what: &str, a: &Csr, owner: &[u32], p: usize) {
    for rank in 0..p {
        let (lay, a_loc) = reference(a, owner, rank, p);
        let dm = DistMatrix::from_global(a, owner, rank, p);
        let got = &dm.layout;
        let at = format!("{what} rank {rank}");
        assert_eq!((got.rank, got.n_ranks), (lay.rank, lay.n_ranks), "{at}");
        assert_eq!(
            (got.n_internal, got.n_interface, got.n_ghost),
            (lay.n_internal, lay.n_interface, lay.n_ghost),
            "{at}: block sizes"
        );
        assert_eq!(
            got.local_to_global, lay.local_to_global,
            "{at}: local_to_global"
        );
        assert_eq!(got.neighbors, lay.neighbors, "{at}: neighbors");
        assert_eq!(got.send_idx, lay.send_idx, "{at}: send_idx");
        assert_eq!(got.recv_idx, lay.recv_idx, "{at}: recv_idx");
        assert_eq!(dm.a_loc.n_cols(), a_loc.n_cols(), "{at}: a_loc width");
        assert_eq!(dm.a_loc.row_ptr(), a_loc.row_ptr(), "{at}: a_loc row_ptr");
        assert_eq!(dm.a_loc.col_idx(), a_loc.col_idx(), "{at}: a_loc col_idx");
        let bits = |m: &Csr| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dm.a_loc), bits(&a_loc), "{at}: a_loc value bits");
    }
}

const RANKS: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn every_share_is_the_reference_share_bit_for_bit() {
    let seed = MachineModel::linux_cluster().partition_seed;
    let mut grids = 0;
    for id in CaseId::ALL {
        let case = build_case(id, CaseSize::Tiny);
        for scheme in PartitionScheme::ALL {
            if scheme == PartitionScheme::Boxes && case.structured_dims.is_none() {
                continue;
            }
            for p in RANKS {
                let owner = case.dof_owner(&partition_case(&case, scheme, p, seed).owner);
                let what = format!("{} tiny {} P={p}", id.name(), scheme.key());
                assert_same_shares(&what, &case.sys.a, &owner, p);
                grids += 1;
            }
        }
    }
    // Boxes need a structured grid: all cases but TC3 have one.
    assert_eq!(grids, (6 * 3 - 1) * RANKS.len());
}

#[test]
fn a_symmetrized_general_matrix_and_the_hostile_cells_share_alike() {
    // A general matrix: a chain plus one-way couplings, so its pattern is
    // structurally unsymmetric until `partition_matrix` symmetrizes it.
    let n = 300;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + (i % 7) as f64);
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
        coo.push(i, (i * 37 + 11) % n, 0.5);
    }
    let general = coo.to_csr();
    for p in RANKS {
        let (a_sym, owner) = partition_matrix(&general, p, 3);
        assert_same_shares(&format!("symmetrized general P={p}"), &a_sym, &owner, p);
    }
    for cell in hostile_suite() {
        let p = 1 + *cell.owner.iter().max().expect("rows") as usize;
        assert_same_shares(&format!("hostile s{}", cell.s), &cell.a, &cell.owner, p);
    }
}

#[test]
fn an_unsymmetric_pattern_is_refused_naming_its_first_unpaired_entry() {
    let rows: [[f64; 4]; 4] = [
        [4.0, -1.0, 0.0, -1.0],
        [-1.0, 4.0, -1.0, 0.0],
        [0.0, 0.0, 4.0, -1.0],
        [-1.0, 0.0, -1.0, 4.0],
    ];
    let mut coo = Coo::new(4, 4);
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                coo.push(i, j, v);
            }
        }
    }
    let a = coo.to_csr();
    let cfg = SessionConfig::paper(PrecondKind::Jacobi, 2);
    match SolverSession::build(&a, &[0, 0, 1, 1], &cfg) {
        Err(EngineError::UnsymmetricPattern(1, 2)) => {}
        Err(e) => panic!("refused for the wrong reason: {e}"),
        Ok(_) => panic!("an unsymmetric pattern was accepted"),
    }
    // The same matrix through the path that symmetrizes its pattern solves
    // the system it was given.
    let b = [1.0, 2.0, 3.0, 4.0];
    let rep = SolverSession::from_matrix(&a, &cfg)
        .expect("builds")
        .solve(&b)
        .expect("solves");
    let mut r = b;
    a.spmv(&rep.x, &mut r);
    let (res, norm_b) = (
        r.iter()
            .zip(&b)
            .map(|(ax, b)| (b - ax).powi(2))
            .sum::<f64>(),
        30.0,
    );
    assert!(rep.converged && (res / norm_b).sqrt() < 1e-8, "{rep:?}");
}
