//! The linear system a traced run works on: one cell of the workload, in
//! the product's types, partitioned the way netd's registered-matrix path
//! partitions it.

use parapre_bench_e2e::inputs::{case_matrix, Matrix};
use parapre_bench_e2e::workloads::{Cell, RANKS, RHS_FILES};
use parapre_core::PrecondKind;
use parapre_engine::session::partition_matrix;
use parapre_engine::SessionConfig;
use parapre_sparse::Csr;

pub struct System {
    pub cell: Cell,
    /// The benchmark's own copy: the residual check multiplies with this.
    pub own: Matrix,
    /// Pattern-symmetrized matrix, as sessions hold it.
    pub a: Csr,
    pub owner: Vec<u32>,
    pub cfg: SessionConfig,
    /// The gate's right-hand sides for this seed.
    pub rhs: Vec<Vec<f64>>,
}

pub fn to_csr(m: &Matrix) -> Csr {
    Csr::from_parts(
        m.n,
        m.n,
        m.row_ptr.clone(),
        m.col_idx.clone(),
        m.vals.clone(),
    )
    .expect("the assembled case is a valid CSR matrix")
}

impl System {
    pub fn prepare(cell: &Cell, seed: u64) -> System {
        let own = case_matrix(cell.case, cell.extent);
        let precond = PrecondKind::parse(cell.precond).expect("cells name known preconditioners");
        let cfg = SessionConfig::paper(precond, RANKS);
        let (a, owner) = partition_matrix(&to_csr(&own), RANKS, cfg.partition_seed);
        let rhs = (0..RHS_FILES).map(|k| own.rhs(seed, k)).collect();
        System {
            cell: *cell,
            own,
            a,
            owner,
            cfg,
            rhs,
        }
    }

    /// `‖b − A·x‖ / ‖b‖` with the benchmark's own CSR loop.
    pub fn true_relres(&self, b: &[f64], x: &[f64]) -> f64 {
        let ax = self.own.mul(x);
        let num: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai).powi(2)).sum();
        let den: f64 = b.iter().map(|bi| bi * bi).sum();
        (num / den).sqrt()
    }
}
