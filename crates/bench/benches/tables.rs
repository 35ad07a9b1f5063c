//! Reduced-size end-to-end benches: one per paper table (E1–E8), so
//! `cargo bench` exercises every experiment path. The `table_*` binaries
//! regenerate the full paper-format tables; these benches time the same
//! pipeline on small grids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parapre_core::{build_case, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre_engine::{run_case, SessionConfig};
use std::hint::black_box;

fn bench_case(c: &mut Criterion, id: CaseId, label: &str) {
    let case = build_case(id, CaseSize::Tiny);
    let mut g = c.benchmark_group(label);
    g.sample_size(10);
    for kind in PrecondKind::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &k| {
            let cfg = SessionConfig::paper(k, 4);
            b.iter(|| {
                let res = run_case(black_box(&case), &cfg);
                assert!(res.iterations > 0);
                res.iterations
            })
        });
    }
    g.finish();
}

fn e1_tc1(c: &mut Criterion) {
    bench_case(c, CaseId::Tc1, "table_e1_tc1");
}

fn e2_tc2(c: &mut Criterion) {
    bench_case(c, CaseId::Tc2, "table_e2_tc2");
}

fn e3_tc3(c: &mut Criterion) {
    bench_case(c, CaseId::Tc3, "table_e3_tc3");
}

fn e4_tc4(c: &mut Criterion) {
    bench_case(c, CaseId::Tc4, "table_e4_tc4");
}

fn e5_tc5(c: &mut Criterion) {
    bench_case(c, CaseId::Tc5, "table_e5_tc5");
}

fn e6_tc6(c: &mut Criterion) {
    let case = build_case(CaseId::Tc6, CaseSize::Tiny);
    let mut g = c.benchmark_group("table_e6_tc6");
    g.sample_size(10);
    for kind in [PrecondKind::Schur1, PrecondKind::Schur2] {
        g.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &k| {
            let cfg = SessionConfig::paper(k, 4);
            b.iter(|| run_case(black_box(&case), &cfg).iterations)
        });
    }
    g.finish();
}

fn e7_shape(c: &mut Criterion) {
    let case = build_case(CaseId::Tc2, CaseSize::Tiny);
    let mut g = c.benchmark_group("table_e7_shape");
    g.sample_size(10);
    for (scheme, name) in [
        (PartitionScheme::General, "general"),
        (PartitionScheme::Boxes, "boxes"),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, &s| {
            let mut cfg = SessionConfig::paper(PrecondKind::Block2, 4);
            cfg.scheme = s;
            b.iter(|| run_case(black_box(&case), &cfg).iterations)
        });
    }
    g.finish();
}

fn e8_schwarz(c: &mut Criterion) {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let mut g = c.benchmark_group("table_e8_schwarz");
    g.sample_size(10);
    for (coarse, name) in [(false, "without_cgc"), (true, "with_cgc")] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &coarse, |b, &coarse| {
            let mut cfg = SessionConfig::paper(PrecondKind::Schwarz { coarse }, 4);
            cfg.scheme = PartitionScheme::Boxes;
            b.iter(|| run_case(black_box(&case), &cfg).iterations)
        });
    }
    g.finish();
}

criterion_group!(benches, e1_tc1, e2_tc2, e3_tc3, e4_tc4, e5_tc5, e6_tc6, e7_shape, e8_schwarz);
criterion_main!(benches);
