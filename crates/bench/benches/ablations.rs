//! Ablation benches for the design choices called out in DESIGN.md §8:
//! inner Schur iterations, ILUT parameters, ARMS depth, overlap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_engine::{run_case, SessionConfig};
use parapre_krylov::{ArmsConfig, IlutConfig};
use std::hint::black_box;

fn ablate_schur_inner(c: &mut Criterion) {
    // How many distributed GMRES iterations to spend on the Schur system.
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let mut g = c.benchmark_group("ablate_schur_inner");
    g.sample_size(10);
    for k in [1usize, 3, 5, 10] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut cfg = SessionConfig::paper(PrecondKind::Schur1, 4);
            cfg.params.schur1_iters = k;
            b.iter(|| run_case(black_box(&case), &cfg).iterations)
        });
    }
    g.finish();
}

fn ablate_ilut_params(c: &mut Criterion) {
    // Drop tolerance / fill trade-off of the Block 2 subdomain solver.
    let case = build_case(CaseId::Tc5, CaseSize::Tiny);
    let mut g = c.benchmark_group("ablate_ilut_params");
    g.sample_size(10);
    for (tol, fill) in [(1e-1, 5usize), (1e-2, 10), (1e-3, 30), (1e-4, 60)] {
        let name = format!("tol{tol:.0e}_fill{fill}");
        g.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(tol, fill),
            |b, &(t, f)| {
                let mut cfg = SessionConfig::paper(PrecondKind::Block2, 4);
                cfg.params.ilut = IlutConfig {
                    drop_tol: t,
                    fill: f,
                };
                b.iter(|| run_case(black_box(&case), &cfg).iterations)
            },
        );
    }
    g.finish();
}

fn ablate_arms_levels(c: &mut Criterion) {
    // Depth and group size of the ARMS hierarchy inside Schur 2.
    let case = build_case(CaseId::Tc2, CaseSize::Tiny);
    let mut g = c.benchmark_group("ablate_arms_levels");
    g.sample_size(10);
    for (levels, group) in [(2usize, 4usize), (2, 8), (3, 8), (2, 16)] {
        let name = format!("lev{levels}_grp{group}");
        g.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(levels, group),
            |b, &(l, gs)| {
                let mut cfg = SessionConfig::paper(PrecondKind::Schur2, 4);
                cfg.params.schur2.arms = ArmsConfig {
                    n_levels: l,
                    group_size: gs,
                    ..ArmsConfig::default()
                };
                b.iter(|| run_case(black_box(&case), &cfg).iterations)
            },
        );
    }
    g.finish();
}

fn ablate_schur_matvec(c: &mut Criterion) {
    // Approximate-vs-stronger B solve inside the Schur 1 matvec, expressed
    // through the inner B-solve iteration count.
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let mut g = c.benchmark_group("ablate_schur_matvec");
    g.sample_size(10);
    for k in [1usize, 3, 5, 10] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut cfg = SessionConfig::paper(PrecondKind::Schur1, 4);
            cfg.params.schur1_b_iters = k;
            b.iter(|| run_case(black_box(&case), &cfg).iterations)
        });
    }
    g.finish();
}

fn ablate_block_overlap(c: &mut Criterion) {
    // Paper §1.1: "an increased overlap may help to produce better parallel
    // preconditioner" — Block 2 versus the one-layer-overlap RAS variant.
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let mut g = c.benchmark_group("ablate_block_overlap");
    g.sample_size(10);
    for (kind, name) in [
        (PrecondKind::Block2, "minimum_overlap"),
        (PrecondKind::BlockOverlap, "one_layer_overlap"),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &k| {
            let cfg = SessionConfig::paper(k, 6);
            b.iter(|| {
                let res = run_case(black_box(&case), &cfg);
                assert!(res.converged);
                res.iterations
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_schur_inner,
    ablate_ilut_params,
    ablate_arms_levels,
    ablate_schur_matvec,
    ablate_block_overlap
);
criterion_main!(benches);
