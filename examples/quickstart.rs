//! Quickstart: the paper's motivating triangle query, three ways.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wcoj::prelude::*;

fn main() {
    // --- 1. the programmatic API -----------------------------------------
    // R(A,B) ⋈ S(B,C) ⋈ T(A,C) with A=0, B=1, C=2.
    let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3], &[2, 3]]);
    let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 4], &[3, 4], &[3, 5]]);
    let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[1, 4], &[2, 4], &[2, 5]]);

    let out = join(&[r.clone(), s.clone(), t.clone()]).expect("well-formed query");
    println!("triangle join has {} tuples:", out.len());
    for row in out.iter_rows() {
        println!("  (A={}, B={}, C={})", row[0].0, row[1].0, row[2].0);
    }

    // --- 2. inspecting the fractional cover and AGM bound ----------------
    let cover = agm_cover(&[r.clone(), s.clone(), t.clone()]).expect("cover LP solves");
    println!(
        "\noptimal fractional cover = {:?}, AGM bound = {:.1} tuples",
        cover.x,
        cover.bound()
    );

    // --- 3. execution stats, and the paper's reproductions ----------------
    // `join` runs NPRR (§5) on every shape. Algorithm 1 (§4) and Theorem
    // 7.3 (§7.1) are special cases it subsumes; `wcoj::baselines` keeps
    // them as reproductions to call directly.
    let rels = [r.clone(), s.clone(), t.clone()];
    let q = JoinQuery::new(&rels).expect("well-formed query");
    for res in [
        join_with(&rels, Algorithm::Nprr, None),
        wcoj::baselines::lw::join_lw(&q),
        wcoj::baselines::graph_join::join_graph(&q),
    ] {
        let res = res.expect("evaluates");
        println!(
            "{:<12} → {} tuples (case_a={}, case_b={}, intermediates={})",
            res.stats.algorithm_used,
            res.relation.len(),
            res.stats.case_a,
            res.stats.case_b,
            res.stats.intermediate_tuples,
        );
    }

    // --- 4. the text front-end --------------------------------------------
    let mut catalog = Catalog::new();
    catalog.insert("R", r);
    catalog.insert("S", s);
    catalog.insert("T", t);
    // note: the text query joins by *variable position*, so R/S/T column
    // attr ids don't matter here.
    let q = parse_query("Ans(a, b, c) :- R(a, b), S(b, c), T(a, c).").expect("parses");
    let res = execute(&q, &catalog).expect("executes");
    println!("\ntext query returned {} tuples", res.relation.len());
}
