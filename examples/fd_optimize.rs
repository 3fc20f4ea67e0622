//! Functional-dependency-aware joining (§7.3): when `A → Bᵢ` holds, the
//! paper's expansion collapses the AGM bound from `N^k` to `N²` and saves
//! the engine from catastrophic join orders.
//!
//! The schema is the paper's own family:
//! `q = (⋈ᵢ Rᵢ(A, Bᵢ)) ⋈ (⋈ᵢ Sᵢ(Bᵢ, C))` with FDs `A → Bᵢ` on each `Rᵢ`.
//!
//! ```sh
//! cargo run --release --example fd_optimize
//! ```

use std::time::Instant;
use wcoj::baselines::fd::{expanded_log2_bound, join_with_fds, Fd};
use wcoj::baselines::plan::execute_left_deep;
use wcoj::prelude::*;

fn main() {
    let k = 3u32;
    let n = 512usize;
    let (rels, fd_triples) = wcoj::datagen::fd_family(7, k, n);
    let fds: Vec<Fd> = fd_triples
        .iter()
        .map(|&(edge, from, to)| Fd {
            edge,
            from: Attr(from),
            to: Attr(to),
        })
        .collect();
    println!(
        "family: k = {k}, N = {n} → {} relations, {} declared FDs",
        rels.len(),
        fds.len()
    );

    // FD-blind AGM bound vs FD-aware bound.
    let q = JoinQuery::new(&rels).expect("query");
    let blind = q.optimal_cover().expect("LP").log2_bound;
    let aware = expanded_log2_bound(&rels, &fds).expect("LP");
    println!("FD-blind AGM bound:  2^{blind:.1}");
    println!("FD-aware AGM bound:  2^{aware:.1}");

    // FD-aware evaluation.
    let start = Instant::now();
    let out = join_with_fds(&rels, &fds).expect("fd join");
    let t_fd = start.elapsed();
    println!(
        "FD-aware join: {} tuples in {:.1} ms",
        out.relation.len(),
        t_fd.as_secs_f64() * 1e3
    );

    // The paper's warning: join the Sᵢ half first and the intermediate can
    // blow up to ~N^k before the Rᵢ constraints bite.
    let wrong_order: Vec<usize> = (k as usize..2 * k as usize).chain(0..k as usize).collect();
    let start = Instant::now();
    let (bout, stats) = execute_left_deep(&rels, &wrong_order).expect("plan");
    let t_wrong = start.elapsed();
    println!(
        "FD-blind wrong-order plan: {} tuples in {:.1} ms (max intermediate: {})",
        bout.len(),
        t_wrong.as_secs_f64() * 1e3,
        stats.max_intermediate
    );
    assert_eq!(out.relation.len(), bout.len());
    println!(
        "intermediate blow-up avoided: {:.0}×",
        stats.max_intermediate as f64 / out.relation.len().max(1) as f64
    );
}
