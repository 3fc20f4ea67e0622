//! Criterion bench for experiment E7 (Lemmas 6.1/6.2): the asymptotic gap
//! between the best binary plan and NPRR on "simple" LW instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_baselines::plan::execute_left_deep;
use wcoj_core::lw::join_lw;
use wcoj_core::{join_with, Algorithm, JoinQuery};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_lower_bound_gap");
    g.sample_size(10);
    for n in [128u64, 512, 1024] {
        let rels = wcoj_datagen::simple_lw(3, n);
        // all left-deep orders are symmetric on this family; use identity.
        g.bench_with_input(BenchmarkId::new("binary_plan", n), &rels, |b, rels| {
            b.iter(|| execute_left_deep(rels, &[0, 1, 2]).unwrap().0.len());
        });
        g.bench_with_input(BenchmarkId::new("nprr", n), &rels, |b, rels| {
            b.iter(|| {
                join_with(rels, Algorithm::Nprr, None)
                    .unwrap()
                    .relation
                    .len()
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
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
