//! Criterion bench for experiment E9 (Lemma 7.1): cycle queries via the
//! star/odd-cycle decomposition vs binary plans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_baselines::plan::execute_left_deep;
use wcoj_core::graph_join::join_graph;
use wcoj_core::JoinQuery;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_cycles");
    g.sample_size(10);
    for m in [4usize, 5, 7] {
        let n: usize = match m {
            4 => 600,
            5 => 300,
            _ => 80,
        };
        let dom = (n as f64).sqrt().ceil() as u64 * 2;
        let rels = wcoj_datagen::cycle_instance(m as u64, m, n, dom);
        let order: Vec<usize> = (0..m).collect();
        g.bench_with_input(BenchmarkId::new("graph_join", m), &rels, |b, rels| {
            b.iter(|| {
                join_graph(&JoinQuery::new(rels).unwrap())
                    .unwrap()
                    .relation
                    .len()
            });
        });
        g.bench_with_input(
            BenchmarkId::new("binary_plan", m),
            &(rels, order),
            |b, (rels, order)| {
                b.iter(|| execute_left_deep(rels, order).unwrap().0.len());
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
