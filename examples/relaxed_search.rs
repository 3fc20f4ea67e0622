//! Relaxed joins (§7.2) as "forgiving search": find candidate matches that
//! satisfy *most* of a query's constraints, ranked by how many they
//! satisfy.
//!
//! Scenario: match people to job postings on three criteria — skill, city,
//! and seniority. A strict join returns only perfect matches; the relaxed
//! join `q_r` also surfaces near-misses that fail up to `r` criteria.
//!
//! ```sh
//! cargo run --release --example relaxed_search
//! ```

use wcoj::baselines::relaxed::relaxed_join;
use wcoj::prelude::*;

fn main() {
    let dict = Dictionary::new();
    let enc = |s: &str| dict.encode_str(s);

    // Attributes: person=0, job=1.
    // Three "criteria" relations over (person, job):
    let mk = |pairs: &[(&str, &str)]| {
        let rows: Vec<Vec<Value>> = pairs.iter().map(|&(p, j)| vec![enc(p), enc(j)]).collect();
        Relation::from_rows(Schema::of(&[0, 1]), rows).expect("pairs")
    };

    let skill_ok = mk(&[
        ("ada", "compiler"),
        ("ada", "database"),
        ("grace", "compiler"),
        ("alan", "database"),
    ]);
    let city_ok = mk(&[
        ("ada", "compiler"),
        ("grace", "compiler"),
        ("grace", "database"),
        ("alan", "database"),
    ]);
    let seniority_ok = mk(&[
        ("ada", "compiler"),
        ("alan", "compiler"),
        ("alan", "database"),
    ]);

    let rels = [skill_ok, city_ok, seniority_ok];

    for r in 0..=2usize {
        let out = relaxed_join(&rels, r).expect("relaxed join");
        println!(
            "q_{r} (≥ {} of 3 criteria): {} matches over {} LP classes",
            3 - r,
            out.relation.len(),
            out.classes
        );
        for row in out.relation.iter_rows() {
            // count which criteria the pair satisfies
            let agree = rels.iter().filter(|rel| rel.contains_row(row)).count();
            assert!(
                agree >= 3 - r,
                "q_{r} returned a pair meeting {agree} criteria"
            );
            let p = dict.decode(row[0]).expect("interned");
            let j = dict.decode(row[1]).expect("interned");
            println!("  {p} → {j}  ({agree}/3 criteria)");
        }
    }
}
