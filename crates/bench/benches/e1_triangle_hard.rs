//! Criterion bench for experiment E1 (Example 2.2): binary plans vs
//! LW/NPRR on the empty-output hard triangle family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_baselines::plan::execute_left_deep;
use wcoj_core::lw::join_lw;
use wcoj_core::{join_with, Algorithm, JoinQuery};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_triangle_hard");
    g.sample_size(10);
    for n in [128u64, 512, 2048] {
        let rels = wcoj_datagen::example_2_2(n);
        g.bench_with_input(BenchmarkId::new("binary_plan", n), &rels, |b, rels| {
            b.iter(|| {
                execute_left_deep(rels, &[0, 1, 2])
                    .unwrap()
                    .1
                    .max_intermediate
            });
        });
        g.bench_with_input(BenchmarkId::new("lw", n), &rels, |b, rels| {
            b.iter(|| {
                join_lw(&JoinQuery::new(rels).unwrap())
                    .unwrap()
                    .relation
                    .len()
            });
        });
        g.bench_with_input(BenchmarkId::new("nprr", n), &rels, |b, rels| {
            b.iter(|| {
                join_with(rels, Algorithm::Nprr, None)
                    .unwrap()
                    .relation
                    .len()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
