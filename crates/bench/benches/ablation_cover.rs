//! Ablations of two design choices behind the engine:
//!
//! 1. **Cover quality** — NPRR run with the LP-optimal fractional cover vs
//!    the always-feasible all-ones cover (§2: the bound, and hence the
//!    work budget, degrades from `N^{3/2}` to `N³` on triangles);
//! 2. **Preparation amortisation** — one-shot `join_nprr` (which builds
//!    the QP tree and all tries per call) vs [`PreparedQuery`] evaluation
//!    (Remark 5.2's "index in advance", removing the `O(n²ΣN)` term).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_core::nprr::PreparedQuery;
use wcoj_core::{join_with, Algorithm};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_cover");
    g.sample_size(10);
    for n in [512u64, 2048] {
        let rels = wcoj_datagen::example_2_2(n);
        g.bench_with_input(BenchmarkId::new("optimal_cover", n), &rels, |b, rels| {
            b.iter(|| {
                join_with(rels, Algorithm::Nprr, None)
                    .unwrap()
                    .relation
                    .len()
            });
        });
        g.bench_with_input(BenchmarkId::new("all_ones_cover", n), &rels, |b, rels| {
            b.iter(|| {
                join_with(rels, Algorithm::Nprr, Some(&[1.0, 1.0, 1.0]))
                    .unwrap()
                    .relation
                    .len()
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("ablation_prepare");
    g.sample_size(10);
    for rows in [2_000usize, 8_000] {
        let rels = [
            wcoj_datagen::random_relation(1, &[0, 1], rows, 64),
            wcoj_datagen::random_relation(2, &[1, 2], rows, 64),
            wcoj_datagen::random_relation(3, &[0, 2], rows, 64),
        ];
        g.bench_with_input(BenchmarkId::new("one_shot", rows), &rels, |b, rels| {
            b.iter(|| {
                join_with(rels, Algorithm::Nprr, None)
                    .unwrap()
                    .relation
                    .len()
            });
        });
        let prepared = PreparedQuery::new(&rels).unwrap();
        let cover = prepared.query().optimal_cover().unwrap().x;
        g.bench_with_input(
            BenchmarkId::new("prepared", rows),
            &(prepared, cover),
            |b, (prepared, cover)| {
                b.iter(|| prepared.evaluate(Some(cover)).unwrap().relation.len());
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
