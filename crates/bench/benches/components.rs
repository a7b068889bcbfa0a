//! Criterion microbenchmarks of the substrates: simulator primitives,
//! linear algebra, and dataset generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipu_sim::poplib::{reduce_to_scalar, ReduceOp};
use ipu_sim::{DType, Graph, IpuConfig, Program};
use linalg::{symmetric_eigen, DenseMatrix};
use std::hint::black_box;

fn ipu_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipu_sim");
    group.sample_size(20);
    for len in [1024usize, 8192] {
        group.bench_with_input(BenchmarkId::new("reduce_min", len), &len, |b, &len| {
            // Build once, run repeatedly: the run is what loops on device.
            let mut g = Graph::new(IpuConfig::tiny(16));
            let t = g.add_tensor("t", DType::F32, len);
            g.map_evenly(t).unwrap();
            let (_, prog) = reduce_to_scalar(&mut g, "min", t, ReduceOp::Min, 0, None).unwrap();
            let mut e = g.compile(prog).unwrap();
            let data: Vec<f32> = (0..len).map(|i| (i % 97) as f32).collect();
            e.write_f32(t, &data).unwrap();
            b.iter(|| {
                e.run().unwrap();
                black_box(e.stats().supersteps)
            });
        });
    }
    group.bench_function("graph_compile_512_vertices", |b| {
        b.iter(|| {
            let mut g = Graph::new(IpuConfig::tiny(64));
            let t = g.add_tensor("t", DType::F32, 512);
            g.map_evenly(t).unwrap();
            let cs = g.add_compute_set("w");
            for i in 0..512 {
                let tile = g.tile_of(t, i).unwrap();
                let v = g.add_vertex(cs, tile, "v", |_| 1).unwrap();
                g.connect(v, t.element(i), ipu_sim::Access::Read).unwrap();
            }
            black_box(g.compile(Program::execute(cs)).unwrap());
        })
    });
    group.finish();
}

fn eigensolver(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    group.sample_size(10);
    for n in [32usize, 64] {
        let a = DenseMatrix::from_fn(n, n, |i, j| {
            let x = ((i * 31 + j * 17) % 101) as f64 / 10.0;
            if i <= j {
                x
            } else {
                ((j * 31 + i * 17) % 101) as f64 / 10.0
            }
        });
        group.bench_with_input(BenchmarkId::new("symmetric_eigen", n), &a, |b, a| {
            b.iter(|| symmetric_eigen(black_box(a)).unwrap().values[0])
        });
    }
    group.finish();
}

fn generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("datasets");
    group.sample_size(20);
    group.bench_function("gaussian_256", |b| {
        b.iter(|| datasets::gaussian_cost_matrix(256, 100, black_box(1)).rows())
    });
    group.bench_function("chung_lu_1000_nodes", |b| {
        b.iter(|| {
            let w = graphs::power_law_weights(1000, 2.5, 1);
            graphs::chung_lu(&w, 5000, black_box(2)).m()
        })
    });
    group.finish();
}

criterion_group!(benches, ipu_reduce, eigensolver, generators);
criterion_main!(benches);
