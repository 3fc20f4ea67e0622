//! Triangle listing in a social graph — the workload the paper's
//! introduction motivates (and the `n = 3` Loomis–Whitney instance, which
//! `join` runs with NPRR like every other shape).
//!
//! Enumerates all triangles of a power-law graph twice — with the
//! worst-case-optimal join and with a binary hash-join plan — and compares
//! the intermediate sizes: on skewed graphs the binary plan's first join
//! materialises far more wedges than there are triangles.
//!
//! ```sh
//! cargo run --release --example triangles
//! ```

use std::time::Instant;
use wcoj::baselines::plan::execute_left_deep;
use wcoj::prelude::*;
use wcoj::storage::ops::rename;

fn main() {
    // An undirected preferential-attachment graph as a sorted edge list
    // E(u, v) with u < v; triangles are (x < y < z) with all three edges.
    let edges = wcoj::datagen::preferential_attachment_edges(42, 2_000, 4);
    println!("graph: {} edges", edges.len());

    // Triangle query: E(x,y) ⋈ E(y,z) ⋈ E(x,z) over attrs x=0, y=1, z=2.
    let exy = edges.clone(); // schema (0, 1)
    let eyz = rename(&edges, &[(Attr(0), Attr(1)), (Attr(1), Attr(2))]).expect("rename");
    let exz = rename(&edges, &[(Attr(1), Attr(2))]).expect("rename");
    let rels = [exy, eyz, exz];

    // worst-case optimal (NPRR, §5)
    let start = Instant::now();
    let out = PreparedQuery::new(&rels)
        .and_then(|p| p.evaluate(None))
        .expect("join");
    let t_wcoj = start.elapsed();
    println!(
        "wcoj ({}): {} triangles in {:.1} ms (intermediates: {})",
        out.stats.algorithm_used,
        out.relation.len(),
        t_wcoj.as_secs_f64() * 1e3,
        out.stats.intermediate_tuples,
    );

    // binary plan: (E ⋈ E) ⋈ E — materialises every wedge first
    let start = Instant::now();
    let (bout, stats) = execute_left_deep(&rels, &[0, 1, 2]).expect("plan");
    let t_bin = start.elapsed();
    println!(
        "binary plan: {} triangles in {:.1} ms (max intermediate: {} wedges)",
        bout.len(),
        t_bin.as_secs_f64() * 1e3,
        stats.max_intermediate,
    );
    assert_eq!(out.relation.len(), bout.len());

    let blow_up = stats.max_intermediate as f64 / out.relation.len().max(1) as f64;
    println!("wedge blow-up factor over the output: {blow_up:.1}×");

    // AGM bound context
    let cover = agm_cover(&rels).expect("cover");
    println!(
        "AGM bound: {:.0} (output is {:.1}% of the worst case)",
        cover.bound(),
        100.0 * out.relation.len() as f64 / cover.bound()
    );

    // On friendly graphs the classical plan can win — worst-case optimality
    // is not instance optimality (the paper proves instance optimality is
    // impossible unless NP = RP, §7.1). The guarantee bites on adversarial
    // inputs: the paper's Example 2.2 family.
    println!("\n--- adversarial instance (Example 2.2, N = 4096) ---");
    let hard = wcoj::datagen::example_2_2(4096);
    let start = Instant::now();
    let out = join(&hard).expect("join");
    let t_wcoj = start.elapsed();
    let start = Instant::now();
    let (bout, stats) = execute_left_deep(&hard, &[0, 1, 2]).expect("plan");
    let t_bin = start.elapsed();
    assert!(out.is_empty() && bout.is_empty());
    println!(
        "wcoj: {:.1} ms | binary plan: {:.1} ms (forced through a {}-tuple intermediate)",
        t_wcoj.as_secs_f64() * 1e3,
        t_bin.as_secs_f64() * 1e3,
        stats.max_intermediate,
    );
}
