//! The algorithmic Loomis–Whitney / Bollobás–Thomason inequality (§3,
//! Corollary 5.3): reconstruct a hidden 3-D point set from its 2-D
//! "shadows" (projections onto the coordinate planes), never doing more
//! work than the geometric bound `(∏|shadow|)^{1/2}` allows.
//!
//! ```sh
//! cargo run --release --example bt_inequality
//! ```

use wcoj::baselines::bt;
use wcoj::prelude::*;
use wcoj::storage::ops::project;

fn main() {
    // A hidden set S ⊂ ℤ³: a hollow cube shell.
    let k = 8u64;
    let schema = Schema::of(&[0, 1, 2]);
    let mut rows = Vec::new();
    for x in 0..k {
        for y in 0..k {
            for z in 0..k {
                let on_face = [x, y, z].iter().any(|&c| c == 0 || c == k - 1);
                if on_face {
                    rows.push(vec![Value(x), Value(y), Value(z)]);
                }
            }
        }
    }
    let s = Relation::from_rows(schema, rows).expect("shell");
    println!("hidden set: {} points (a {k}³ cube shell)", s.len());

    // Its three axis-aligned shadows.
    let shadows: Vec<Relation> = [(1u32, 2u32), (0, 2), (0, 1)]
        .iter()
        .map(|&(a, b)| project(&s, &[Attr(a), Attr(b)]).expect("projection"))
        .collect();
    for (i, sh) in shadows.iter().enumerate() {
        println!("shadow ⊥ axis {i}: {} points", sh.len());
    }

    // Reconstruct: the join of the shadows is the smallest "box hull"
    // containing S, and the LW inequality |S|² ≤ ∏|shadows| caps its size.
    let out = bt::reconstruct(&shadows).expect("2-regular family");
    let bound = out.log2_bound.exp2();
    println!(
        "\njoin of shadows: {} points   (LW bound: {:.0})",
        out.relation.len(),
        bound
    );
    println!(
        "inequality |S|^2 ≤ ∏|S_F|:  {}² = {} ≤ {:.0}  ✓",
        s.len(),
        s.len() * s.len(),
        shadows.iter().map(|r| r.len() as f64).product::<f64>()
    );
    assert!(s.iter_rows().all(|row| out.relation.contains_row(row)));
    assert!(bt::inequality_holds(
        out.relation.len(),
        out.d,
        &shadows.iter().map(Relation::len).collect::<Vec<_>>()
    ));
    println!("every hidden point is inside the reconstruction  ✓");
}
