//! Criterion bench for experiment E10 (Theorem 7.3): mixed arity-≤2
//! queries through the half-integral star/cycle path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_baselines::graph_join::join_graph;
use wcoj_core::{naive, JoinQuery};
use wcoj_storage::Relation;

fn bench(c: &mut Criterion) {
    let shapes: &[&[u32]] = &[&[0, 1], &[1, 2], &[0, 2], &[2, 3], &[3, 4], &[0, 5]];
    let mut g = c.benchmark_group("e10_graph_queries");
    g.sample_size(10);
    for rows in [200usize, 600] {
        let rels: Vec<Relation> = shapes
            .iter()
            .enumerate()
            .map(|(i, attrs)| wcoj_datagen::random_relation(i as u64, attrs, rows, 10))
            .collect();
        g.bench_with_input(BenchmarkId::new("graph_join", rows), &rels, |b, rels| {
            b.iter(|| {
                join_graph(&JoinQuery::new(rels).unwrap())
                    .unwrap()
                    .relation
                    .len()
            });
        });
        g.bench_with_input(BenchmarkId::new("naive", rows), &rels, |b, rels| {
            b.iter(|| naive::join(rels).len());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
