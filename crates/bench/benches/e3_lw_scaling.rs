//! Criterion bench for experiment E3 (Theorem 4.1): LW algorithm scaling
//! on random Loomis–Whitney instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::lw::join_lw;
use wcoj_core::{join_with, Algorithm, JoinQuery};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_lw_scaling");
    g.sample_size(10);
    for n_attr in [3usize, 4] {
        for rows in [500usize, 2000] {
            let dom = (rows as f64).powf(1.0 / (n_attr as f64 - 1.0)).ceil() as u64 * 2;
            let rels = wcoj_datagen::random_lw(7, n_attr, rows, dom.max(4));
            let id = format!("n{n_attr}_rows{rows}");
            g.bench_with_input(BenchmarkId::new("lw", &id), &rels, |b, rels| {
                b.iter(|| {
                    join_lw(&JoinQuery::new(rels).unwrap())
                        .unwrap()
                        .relation
                        .len()
                });
            });
            g.bench_with_input(BenchmarkId::new("nprr", &id), &rels, |b, rels| {
                b.iter(|| {
                    join_with(rels, Algorithm::Nprr, None)
                        .unwrap()
                        .relation
                        .len()
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
