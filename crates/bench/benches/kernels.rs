//! Kernel benchmarks: the per-iteration costs behind the paper's timing
//! columns (SpMV, incomplete-factor sweeps, Schur extraction, FFT Poisson
//! solve, partitioning).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parapre_fem::poisson;
use parapre_grid::structured::unit_square;
use parapre_krylov::{Ilu0, Ilut, IlutConfig};
use parapre_partition::{partition_boxes_2d, partition_graph};
use parapre_sparse::Csr;
use parapre_transform::FastPoisson2d;
use std::hint::black_box;

fn tc1_matrix(nx: usize) -> Csr {
    let mesh = unit_square(nx, nx);
    let (a, _) = poisson::assemble_2d(&mesh, |_, _| 1.0);
    a
}

fn bench_spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmv");
    g.sample_size(20);
    for nx in [64usize, 128] {
        let a = tc1_matrix(nx);
        let x: Vec<f64> = (0..a.n_cols()).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; a.n_rows()];
        g.bench_with_input(BenchmarkId::new("serial", nx * nx), &nx, |b, _| {
            b.iter(|| a.spmv(black_box(&x), &mut y))
        });
    }
    g.finish();
}

fn bench_factorizations(c: &mut Criterion) {
    let mut g = c.benchmark_group("factor");
    g.sample_size(10);
    let a = tc1_matrix(96);
    g.bench_function("ilu0", |b| b.iter(|| Ilu0::factor(black_box(&a)).unwrap()));
    g.bench_function("ilut", |b| {
        b.iter(|| Ilut::factor(black_box(&a), &IlutConfig::default()).unwrap())
    });
    let f = Ilut::factor(&a, &IlutConfig::default()).unwrap();
    let mut z: Vec<f64> = (0..a.n_rows()).map(|i| (i % 7) as f64).collect();
    g.bench_function("lu_sweep", |b| {
        b.iter(|| {
            f.solve_in_place(black_box(&mut z));
        })
    });
    g.bench_function("schur_extraction", |b| {
        b.iter(|| black_box(&f).trailing_block(a.n_rows() - 96))
    });
    g.finish();
}

fn bench_fft_poisson(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft_poisson");
    g.sample_size(20);
    for n in [31usize, 63, 100] {
        let fp = FastPoisson2d::new(n, n, 1.0, 1.0);
        let mut f: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.1).cos()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n * n), &n, |b, _| {
            b.iter(|| fp.solve_in_place(black_box(&mut f)))
        });
    }
    g.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let mut g = c.benchmark_group("partition");
    g.sample_size(10);
    let mesh = unit_square(101, 101);
    let adj = mesh.adjacency();
    g.bench_function("general_p16", |b| {
        b.iter(|| partition_graph(black_box(&adj), 16, 7))
    });
    g.bench_function("boxes_p16", |b| {
        b.iter(|| partition_boxes_2d(101, 101, 4, 4))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_spmv,
    bench_factorizations,
    bench_fft_poisson,
    bench_partitioning
);
criterion_main!(benches);
