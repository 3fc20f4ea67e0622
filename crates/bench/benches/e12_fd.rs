//! Criterion bench for experiment E12 (§7.3): FD-aware joining vs the
//! FD-blind worst join order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcoj_baselines::fd::{join_with_fds, Fd};
use wcoj_baselines::plan::execute_left_deep;
use wcoj_storage::Attr;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_fd");
    g.sample_size(10);
    for k in [2u32, 3] {
        let n = 256usize;
        let (rels, triples) = wcoj_datagen::fd_family(11, k, n);
        let fds: Vec<Fd> = triples
            .iter()
            .map(|&(edge, from, to)| Fd {
                edge,
                from: Attr(from),
                to: Attr(to),
            })
            .collect();
        let wrong_order: Vec<usize> = (k as usize..2 * k as usize).chain(0..k as usize).collect();
        g.bench_with_input(
            BenchmarkId::new("fd_aware", k),
            &(rels.clone(), fds),
            |b, (rels, fds)| {
                b.iter(|| join_with_fds(rels, fds).unwrap().relation.len());
            },
        );
        g.bench_with_input(
            BenchmarkId::new("fd_blind_wrong_order", k),
            &(rels, wrong_order),
            |b, (rels, order)| {
                b.iter(|| execute_left_deep(rels, order).unwrap().0.len());
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
