//! Criterion bench for experiment E2: enumerating the AGM-tight grid
//! triangle (output = N^{3/2}, so runtime is output-bound).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::lw::join_lw;
use wcoj_core::{join_with, Algorithm, JoinQuery};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_agm_tight");
    g.sample_size(10);
    for k in [8u64, 16, 24] {
        let rels = wcoj_datagen::agm_tight_triangle(k);
        g.bench_with_input(BenchmarkId::new("lw", k), &rels, |b, rels| {
            b.iter(|| {
                join_lw(&JoinQuery::new(rels).unwrap())
                    .unwrap()
                    .relation
                    .len()
            });
        });
        g.bench_with_input(BenchmarkId::new("nprr", k), &rels, |b, rels| {
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
