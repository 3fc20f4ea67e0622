//! Ablation: the sorted (flat columnar) counted trie vs the hash trie
//! realisation of the paper's search tree (§5.1 offers them as
//! interchangeable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::nprr::{join_nprr, PreparedQuery};
use wcoj_core::JoinQuery;
use wcoj_storage::HashTrieIndex;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_index");
    g.sample_size(10);
    for rows in [1_000usize, 4_000] {
        let rels = [
            wcoj_datagen::random_relation(1, &[0, 1], rows, 48),
            wcoj_datagen::random_relation(2, &[1, 2], rows, 48),
            wcoj_datagen::random_relation(3, &[0, 2], rows, 48),
        ];
        let q = JoinQuery::new(&rels).unwrap();
        let sol = q.optimal_cover().unwrap();
        g.bench_with_input(BenchmarkId::new("flat_trie", rows), &(), |b, ()| {
            b.iter(|| join_nprr(&q, &sol.x).unwrap().relation.len());
        });
        g.bench_with_input(BenchmarkId::new("hash_trie", rows), &(), |b, ()| {
            b.iter(|| {
                PreparedQuery::<HashTrieIndex>::from_query(q.clone())
                    .unwrap()
                    .evaluate(Some(&sol.x))
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
