//! # parapre
//!
//! A from-scratch Rust reproduction of **Cai & Sosonkina, *A Numerical
//! Study of Some Parallel Algebraic Preconditioners* (IPPS 2003)** — a
//! study of parallel block (`Block 1`/`Block 2`) and Schur-complement
//! (`Schur 1`/`Schur 2`) preconditioners for distributed FGMRES on six FEM
//! test problems, plus an additive-Schwarz comparison.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`sparse`] — CSR/COO/dense storage and kernels;
//! * [`transform`] — FFT / DST-I / fast Poisson solvers;
//! * [`grid`] — structured, curvilinear and Delaunay meshes;
//! * [`partition`] — graph / box / RCB partitioners (Metis stand-in);
//! * [`fem`] — P1 assembly of the paper's four PDEs;
//! * [`mpisim`] — the SPMD message-passing runtime (MPI stand-in) with
//!   α–β machine models;
//! * [`krylov`] — sequential GMRES/FGMRES/CG, ILU(0), ILUT, ARMS;
//! * [`metrics`] — the instrumentation: per-rank event recorder (spans,
//!   counts, comm events → JSONL and phase summaries), the live registry
//!   (counters, latency histograms), convergence-event ring, per-rank
//!   load-imbalance reports;
//! * [`dist`] — distributed sparse systems and distributed (F)GMRES;
//! * [`core`] — the paper's preconditioners, test cases and partition
//!   schemes;
//! * [`engine`] — cached solver sessions and what runs on them: the
//!   paper's table cells (`run_case`), batched multi-RHS solves, and the
//!   bounded concurrent solve service;
//! * [`net`] — `parapre-netd`, the persistent network solve service
//!   (length-framed JSONL over TCP / unix sockets).
//!
//! ## Quickstart
//!
//! ```
//! use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
//! use parapre::engine::{run_case, SessionConfig};
//! use parapre::mpisim::MachineModel;
//!
//! // Paper Test Case 1 (2-D Poisson), tiny grid, 4 ranks, Schur 1: one
//! // solver-session build and one FGMRES(20) solve to a 1e-6 reduction.
//! let case = build_case(CaseId::Tc1, CaseSize::Tiny);
//! let result = run_case(&case, &SessionConfig::paper(PrecondKind::Schur1, 4));
//! assert!(result.converged);
//! let modeled = result.modeled_seconds(&MachineModel::linux_cluster());
//! println!("{} iterations, {modeled:.3} s on the paper's cluster", result.iterations);
//! ```

#![forbid(unsafe_code)]

pub use parapre_core as core;
pub use parapre_dist as dist;
pub use parapre_engine as engine;
pub use parapre_fem as fem;
pub use parapre_grid as grid;
pub use parapre_krylov as krylov;
pub use parapre_metrics as metrics;
pub use parapre_mpisim as mpisim;
pub use parapre_net as net;
pub use parapre_partition as partition;
pub use parapre_sparse as sparse;
pub use parapre_transform as transform;
