//! The overlap rung's extended block — owned rows plus one layer of ghost
//! rows — is built from rows the neighbours send
//! (`DistMatrix::ghost_rows`), never from the global matrix. This test keeps
//! the global-matrix construction it replaced as the reference and asserts
//! that the block assembled from the exchanged rows is the same matrix, bit
//! for bit: the same `row_ptr`, the same `col_idx`, the same bits in every
//! value. It also counts the exchange: one message per neighbour.
//!
//! Cases: TC1, TC3 and TC6 tiny at P ∈ {2, 3, 4, 8} on the general
//! partition, each with its assembled values and with
//! `cases::perturbed` values.

use parapre::core::block::overlap_block;
use parapre::core::cases::perturbed;
use parapre::core::{build_case, partition_case, CaseId, CaseSize, PartitionScheme};
use parapre::dist::DistMatrix;
use parapre::mpisim::{MachineModel, Universe};
use parapre::sparse::Csr;

/// The extended block read out of the global matrix: owned rows verbatim,
/// ghost rows taken from `a_global` and restricted to the local node set,
/// sorted by local column.
fn reference_block(dm: &DistMatrix, a_global: &Csr) -> Csr {
    let lay = &dm.layout;
    let nl = lay.n_local();
    let no = lay.n_owned();
    let mut g2l = vec![usize::MAX; a_global.n_rows()];
    for (l, &g) in lay.local_to_global.iter().enumerate() {
        g2l[g] = l;
    }
    let mut row_ptr = Vec::with_capacity(nl + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for l in 0..nl {
        if l < no {
            let (cols, vs) = dm.a_loc.row(l);
            col_idx.extend_from_slice(cols);
            vals.extend_from_slice(vs);
        } else {
            let g = lay.local_to_global[l];
            let (cols, vs) = a_global.row(g);
            let mut entries: Vec<(usize, f64)> = cols
                .iter()
                .zip(vs)
                .filter(|&(&c, &_v)| g2l[c] != usize::MAX)
                .map(|(&c, &v)| (g2l[c], v))
                .collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in entries {
                col_idx.push(c);
                vals.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts(nl, nl, row_ptr, col_idx, vals).expect("a valid reference block")
}

#[test]
fn exchanged_ghost_rows_give_the_global_matrix_block_bit_for_bit() {
    let seed = MachineModel::linux_cluster().partition_seed;
    let mut checked = 0;
    for id in [CaseId::Tc1, CaseId::Tc3, CaseId::Tc6] {
        let case = build_case(id, CaseSize::Tiny);
        let perturbed_a = perturbed(&case.sys.a);
        for (values, a) in [("assembled", &case.sys.a), ("perturbed", &perturbed_a)] {
            for p in [2, 3, 4, 8] {
                let what = format!("{} {values} P={p}", id.name());
                let owner =
                    case.dof_owner(&partition_case(&case, PartitionScheme::General, p, seed).owner);
                let owner = &owner;
                let ghosts = Universe::run(p, |comm| {
                    let rank = comm.rank();
                    let dm = DistMatrix::from_global(a, owner, rank, p);
                    let before = comm.stats().msgs_sent;
                    let got = overlap_block(&dm, comm)
                        .unwrap_or_else(|e| panic!("{what} rank {rank}: {e}"));
                    let sent = comm.stats().msgs_sent - before;
                    assert_eq!(
                        sent,
                        dm.layout.neighbors.len() as u64,
                        "{what} rank {rank}: one message per neighbour"
                    );
                    let want = reference_block(&dm, a);
                    assert_eq!(got.n_rows(), want.n_rows(), "{what} rank {rank}: rows");
                    assert_eq!(got.row_ptr(), want.row_ptr(), "{what} rank {rank}: row_ptr");
                    assert_eq!(got.col_idx(), want.col_idx(), "{what} rank {rank}: col_idx");
                    let bits = |m: &Csr| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{what} rank {rank}: value bits");
                    dm.layout.n_ghost
                });
                assert!(
                    ghosts.iter().all(|&g| g > 0),
                    "{what}: every rank has ghost rows to receive"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24);
}
