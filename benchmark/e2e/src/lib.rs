//! The gate of the parapre benchmark: four workloads driven through a real
//! `parapre-netd` child over its wire protocol, reported as the end-to-end
//! metrics `BENCHMARK.json` names. See `benchmark/README.md`.

pub mod host;
pub mod inputs;
pub mod json;
pub mod netd;
pub mod report;
pub mod rng;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod wire;
pub mod workloads;
