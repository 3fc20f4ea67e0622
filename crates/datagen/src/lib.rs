//! Instance generators for every construction in NPRR 2012.
//!
//! Each generator corresponds to a specific piece of the paper (cited on
//! the item) and is deterministic given its seed, so experiments are
//! reproducible tuple-for-tuple.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcoj_storage::{Relation, Schema, Value};

/// Uniform random relation over the given attributes: `n` rows drawn from
/// `[0, dom)` per column (duplicates collapse — the returned cardinality
/// can be below `n`).
#[must_use]
pub fn random_relation(seed: u64, attrs: &[u32], n: usize, dom: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| attrs.iter().map(|_| Value(rng.gen_range(0..dom))).collect())
        .collect();
    Relation::from_rows(Schema::of(attrs), rows).expect("generator arity consistent")
}

/// Random relation with exactly `n` distinct rows (rejection sampling;
/// requires `dom^arity ≥ n`).
///
/// # Panics
/// Panics if the domain cannot hold `n` distinct rows.
#[must_use]
pub fn random_relation_exact(seed: u64, attrs: &[u32], n: usize, dom: u64) -> Relation {
    let capacity = (dom as f64).powi(attrs.len() as i32);
    assert!(
        capacity >= n as f64,
        "domain too small for {n} distinct rows"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < n {
        let row: Vec<Value> = attrs.iter().map(|_| Value(rng.gen_range(0..dom))).collect();
        seen.insert(row);
    }
    Relation::from_rows(Schema::of(attrs), seen.into_iter().collect())
        .expect("generator arity consistent")
}

/// Zipf-skewed relation: column values are drawn from `[0, dom)` with
/// probability `∝ 1/(rank+1)^s`. Used for the skew-sensitivity ablations.
#[must_use]
pub fn zipf_relation(seed: u64, attrs: &[u32], n: usize, dom: u64, s: f64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    // Precompute the CDF once.
    let weights: Vec<f64> = (0..dom).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(dom as usize);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let sample = |rng: &mut StdRng| -> u64 {
        let x: f64 = rng.gen();
        cdf.partition_point(|&c| c < x) as u64
    };
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| attrs.iter().map(|_| Value(sample(&mut rng))).collect())
        .collect();
    Relation::from_rows(Schema::of(attrs), rows).expect("generator arity consistent")
}

/// **Example 2.2** (and §1): the pathological triangle family. Returns
/// `[R(A,B), S(B,C), T(A,C)]`, each of cardinality `n` (`n` even), such
/// that every pairwise join has `n²/4 + n/2` tuples while the triangle
/// join is empty.
///
/// # Panics
/// Panics if `n` is odd or zero.
#[must_use]
pub fn example_2_2(n: u64) -> Vec<Relation> {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "Example 2.2 needs even n ≥ 2"
    );
    let rows: Vec<Vec<Value>> = (1..=n / 2)
        .map(|j| vec![Value(0), Value(j)])
        .chain((1..=n / 2).map(|j| vec![Value(j), Value(0)]))
        .collect();
    [(0u32, 1u32), (1, 2), (0, 2)]
        .iter()
        .map(|&(a, b)| Relation::from_rows(Schema::of(&[a, b]), rows.clone()).expect("pairs"))
        .collect()
}

/// AGM-tightness instance for the triangle query: `R = S = T = [k] × [k]`
/// (as (A,B), (B,C), (A,C) respectively), so `N = k²` and
/// `|R ⋈ S ⋈ T| = k³ = N^{3/2}` — the AGM bound with equality (§1/§2).
#[must_use]
pub fn agm_tight_triangle(k: u64) -> Vec<Relation> {
    let grid: Vec<Vec<Value>> = (0..k)
        .flat_map(|a| (0..k).map(move |b| vec![Value(a), Value(b)]))
        .collect();
    [(0u32, 1u32), (1, 2), (0, 2)]
        .iter()
        .map(|&(a, b)| Relation::from_rows(Schema::of(&[a, b]), grid.clone()).expect("grid"))
        .collect()
}

/// **Lemma 6.1**: "simple" relations for the LW lower-bound family. For
/// each `i ∈ [n]`, the relation on attributes `[n] ∖ {i}` contains every
/// tuple over domain `{0..⌊(N−1)/(n−1)⌋}` with **at most one non-zero
/// coordinate**, giving `|R_i| ≈ N`. Any join-project plan pays
/// `Ω(N²/n²)` on these, while the full join has only `≈ N + N/(n−1)`
/// tuples.
#[must_use]
pub fn simple_lw(n: usize, cap: u64) -> Vec<Relation> {
    assert!(n >= 3, "the lower bound family needs n ≥ 3");
    let d = (cap - 1) / (n as u64 - 1); // domain max
    (0..n)
        .map(|omit| {
            let attrs: Vec<u32> = (0..n as u32).filter(|&v| v != omit as u32).collect();
            let arity = attrs.len();
            let mut rows: Vec<Vec<Value>> = vec![vec![Value(0); arity]];
            for pos in 0..arity {
                for v in 1..=d {
                    let mut row = vec![Value(0); arity];
                    row[pos] = Value(v);
                    rows.push(row);
                }
            }
            Relation::from_rows(Schema::of(&attrs), rows).expect("simple rows")
        })
        .collect()
}

/// The paper's §5.2 worked example (Figure 1/2 query): five relations over
/// six attributes with the incidence matrix `M` given in the paper, filled
/// with random data.
#[must_use]
pub fn worked_example(seed: u64, n: usize, dom: u64) -> Vec<Relation> {
    // The incidence matrix M of §5.2 (attributes 1..6, edges a..e),
    // 0-based: a={1,2,4,5}→{0,1,3,4}, b={1,3,4,6}→{0,2,3,5},
    // c={1,2,3}→{0,1,2}, d={2,4,6}→{1,3,5}, e={3,5,6}→{2,4,5}.
    let shapes: [&[u32]; 5] = [
        &[0, 1, 3, 4], // R_a
        &[0, 2, 3, 5], // R_b
        &[0, 1, 2],    // R_c
        &[1, 3, 5],    // R_d
        &[2, 4, 5],    // R_e
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, attrs)| random_relation(seed.wrapping_add(i as u64), attrs, n, dom))
        .collect()
}

/// Cycle query instance: `m` binary relations forming the cycle
/// `A_0 — A_1 — … — A_{m−1} — A_0`, each with `n` random rows over
/// `[0, dom)` (Lemma 7.1 / experiment E9).
#[must_use]
pub fn cycle_instance(seed: u64, m: usize, n: usize, dom: u64) -> Vec<Relation> {
    (0..m)
        .map(|i| {
            random_relation(
                seed.wrapping_add(i as u64),
                &[i as u32, ((i + 1) % m) as u32],
                n,
                dom,
            )
        })
        .collect()
}

/// §7.3's functional-dependency family:
/// `q = (⋈ᵢ Rᵢ(A, Bᵢ)) ⋈ (⋈ᵢ Sᵢ(Bᵢ, C))` with FDs `A → Bᵢ` — each
/// `Rᵢ` maps `a ↦ bᵢ(a) = a·k + i` functionally; each `Sᵢ` is random.
/// Returns `(relations, fd list as (edge, from_attr, to_attr))`.
/// Attributes: `A = 0`, `Bᵢ = i + 1`, `C = k + 1`.
#[must_use]
pub fn fd_family(seed: u64, k: u32, n: usize) -> (Vec<Relation>, Vec<(usize, u32, u32)>) {
    let mut rels = Vec::new();
    let mut fds = Vec::new();
    for i in 0..k {
        let rows: Vec<Vec<Value>> = (0..n as u64)
            .map(|a| vec![Value(a), Value(a * u64::from(k) + u64::from(i))])
            .collect();
        rels.push(Relation::from_rows(Schema::of(&[0, i + 1]), rows).expect("fd rows"));
        fds.push((i as usize, 0u32, i + 1));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..k {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                vec![
                    Value(rng.gen_range(0..(n as u64) * u64::from(k))),
                    Value(rng.gen_range(0..16u64)),
                ]
            })
            .collect();
        rels.push(Relation::from_rows(Schema::of(&[i + 1, k + 1]), rows).expect("fd rows"));
    }
    (rels, fds)
}

/// §7.2's relaxed-join tightness instance: unary relations `R_{eᵢ} = [N]`
/// for `i ∈ [n]` plus `R_{e_{n+1}} = {(N+i, …, N+i)}ᵢ` over all `n`
/// attributes. For `r = n`, `q_r = R_{e_{n+1}} ∪ [N]ⁿ` with `N + Nⁿ`
/// tuples.
#[must_use]
pub fn relaxed_tight(n: u32, cap: u64) -> Vec<Relation> {
    let mut rels: Vec<Relation> = (0..n)
        .map(|i| {
            let rows: Vec<Vec<Value>> = (1..=cap).map(|v| vec![Value(v)]).collect();
            Relation::from_rows(Schema::of(&[i]), rows).expect("unary")
        })
        .collect();
    let attrs: Vec<u32> = (0..n).collect();
    let rows: Vec<Vec<Value>> = (1..=cap)
        .map(|i| vec![Value(cap + i); n as usize])
        .collect();
    rels.push(Relation::from_rows(Schema::of(&attrs), rows).expect("diag"));
    rels
}

/// **Lemma 6.3**'s embedded-gap family: the Lemma 6.1 simple-LW core on
/// `k` attributes, plus one pendant relation attaching a fresh attribute
/// with the constant value `c₀` — binary plans still must join two core
/// relations (Ω(N²/k²)), while the fractional cover `1/(k−1)` on the core
/// keeps NPRR at `O(N^{1+1/(k−1)})`.
#[must_use]
pub fn embedded_gap(k: usize, cap: u64) -> Vec<Relation> {
    let mut rels = simple_lw(k, cap);
    // pendant P(A_0, A_k) = π_{A0}(core values) × {c0 = 0}
    let d = (cap - 1) / (k as u64 - 1);
    let rows: Vec<Vec<Value>> = (0..=d).map(|v| vec![Value(v), Value(0)]).collect();
    rels.push(Relation::from_rows(Schema::of(&[0, k as u32]), rows).expect("pendant"));
    rels
}

/// Erdős–Rényi-style random graph as an edge relation `E(src=0, dst=1)`
/// with `n_edges` distinct directed edges over `n_vertices` (self-loops
/// removed). Used by the triangle-listing example.
#[must_use]
pub fn random_graph_edges(seed: u64, n_vertices: u64, n_edges: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    let max_possible = (n_vertices * n_vertices.saturating_sub(1)) as usize;
    let target = n_edges.min(max_possible);
    while seen.len() < target {
        let a = rng.gen_range(0..n_vertices);
        let b = rng.gen_range(0..n_vertices);
        if a != b {
            seen.insert(vec![Value(a), Value(b)]);
        }
    }
    Relation::from_rows(Schema::of(&[0, 1]), seen.into_iter().collect()).expect("edges")
}

/// A power-law ("social") graph via preferential attachment: each new
/// vertex attaches `out_degree` edges to earlier vertices with probability
/// proportional to current degree — triangle-dense, the workload class the
/// paper's introduction motivates.
#[must_use]
pub fn preferential_attachment_edges(seed: u64, n_vertices: u64, out_degree: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut targets: Vec<u64> = vec![0, 1]; // degree-weighted pool
    let mut rows: Vec<Vec<Value>> = vec![vec![Value(0), Value(1)]];
    for v in 2..n_vertices {
        for _ in 0..out_degree {
            let idx = rand::distributions::Uniform::new(0, targets.len()).sample(&mut rng);
            let u = targets[idx];
            if u != v {
                rows.push(vec![Value(v.min(u)), Value(v.max(u))]);
                targets.push(u);
                targets.push(v);
            }
        }
    }
    Relation::from_rows(Schema::of(&[0, 1]), rows).expect("edges")
}

/// Random Loomis–Whitney instance: `n` relations on the `(n−1)`-subsets of
/// `[n]`, each with `rows` random tuples over `[0, dom)`.
#[must_use]
pub fn random_lw(seed: u64, n: usize, rows: usize, dom: u64) -> Vec<Relation> {
    (0..n)
        .map(|omit| {
            let attrs: Vec<u32> = (0..n as u32).filter(|&v| v != omit as u32).collect();
            random_relation(seed.wrapping_add(omit as u64), &attrs, rows, dom)
        })
        .collect()
}

/// Single-hot-key triangle `R(0,1) ⋈ S(1,2) ⋈ T(0,2)`: attribute 0 (the
/// root of the triangle's NPRR total order, which is the output order
/// `(0, 1, 2)`) has one **hot** value `0` with `hot` distinct extensions
/// in both `R` and `T`, plus `light` further values `1..=light` with a
/// single extension each. A root value's estimated work is `1 +` its
/// fanout in `R` and `T`, so the hot value weighs `2·hot + 1` and each
/// light one `3`: a `(2·hot + 1) / (2·hot + 1 + 3·light)` share, ≥ 90%
/// whenever `hot ≥ 14·light`. `S` holds `4·hot` random pairs over the hot
/// key's candidate grid, keeping the per-pair probes non-trivial.
///
/// This is the workload intra-value parallelism exists for: without
/// anchor sub-shards the hot root value is one singleton shard pinning a
/// single worker while the rest of the pool drains.
#[must_use]
pub fn hot_key_triangle(seed: u64, hot: usize, light: usize) -> Vec<Relation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot_u = hot as u64;
    // R(0,1): hot value 0 of attribute 0 pairs with every b ∈ [0, hot).
    let mut r_rows: Vec<Vec<Value>> = (0..hot_u).map(|b| vec![Value(0), Value(b)]).collect();
    // T(0,2): hot value 0 of attribute 0 pairs with every c ∈ [0, hot).
    let mut t_rows: Vec<Vec<Value>> = (0..hot_u).map(|c| vec![Value(0), Value(c)]).collect();
    // Light values 1..=light of attribute 0: one extension each.
    for i in 1..=light as u64 {
        r_rows.push(vec![Value(i), Value(rng.gen_range(0..hot_u.max(1)))]);
        t_rows.push(vec![Value(i), Value(rng.gen_range(0..hot_u.max(1)))]);
    }
    let r = Relation::from_rows(Schema::of(&[0, 1]), r_rows).expect("arity 2");
    let s = random_relation(seed.wrapping_add(1), &[1, 2], 4 * hot, hot_u.max(1));
    let t = Relation::from_rows(Schema::of(&[0, 2]), t_rows).expect("arity 2");
    vec![r, s, t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::ops::natural_join;

    #[test]
    fn example_2_2_properties() {
        for n in [4u64, 8, 16, 32] {
            let rels = example_2_2(n);
            for r in &rels {
                assert_eq!(r.len(), n as usize, "cardinality is N");
            }
            // pairwise join size = N²/4 + N/2 (paper Example 2.2 property 2)
            let rs = natural_join(&rels[0], &rels[1]);
            assert_eq!(rs.len(), (n * n / 4 + n / 2) as usize);
            // triangle is empty (property 3)
            let j = natural_join(&rs, &rels[2]);
            assert!(j.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn example_2_2_odd_rejected() {
        let _ = example_2_2(5);
    }

    #[test]
    fn hot_key_triangle_is_skewed() {
        let rels = hot_key_triangle(9, 64, 4);
        assert_eq!(rels.len(), 3);
        // hot value 0 of attribute 0 has 64 extensions in R and T
        let hot_in_r = rels[0].iter_rows().filter(|r| r[0] == Value(0)).count();
        let hot_in_t = rels[2].iter_rows().filter(|r| r[0] == Value(0)).count();
        assert_eq!(hot_in_r, 64);
        assert_eq!(hot_in_t, 64);
        // light values have exactly one extension each
        for i in 1..=4u64 {
            assert_eq!(rels[0].iter_rows().filter(|r| r[0] == Value(i)).count(), 1);
            assert_eq!(rels[2].iter_rows().filter(|r| r[0] == Value(i)).count(), 1);
        }
        // the hot key carries ≥ 90% of the level-1 fanout work
        let hot_work = (1 + hot_in_r + hot_in_t) as f64;
        let total: f64 = hot_work + (3 * 4) as f64;
        assert!(hot_work / total >= 0.9, "{hot_work}/{total}");
        // deterministic given the seed
        let again = hot_key_triangle(9, 64, 4);
        for (a, b) in rels.iter().zip(&again) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn agm_tight_triangle_attains_bound() {
        for k in [2u64, 3, 4, 6] {
            let rels = agm_tight_triangle(k);
            let n = (k * k) as usize;
            assert!(rels.iter().all(|r| r.len() == n));
            let j = natural_join(&natural_join(&rels[0], &rels[1]), &rels[2]);
            assert_eq!(j.len(), (k * k * k) as usize, "output = N^(3/2)");
        }
    }

    #[test]
    fn simple_lw_shapes() {
        for n in [3usize, 4, 6] {
            let cap = 61u64;
            let rels = simple_lw(n, cap);
            assert_eq!(rels.len(), n);
            let d = (cap - 1) / (n as u64 - 1);
            let expect = (n - 1) as u64 * d + 1;
            for r in &rels {
                assert_eq!(r.arity(), n - 1);
                assert_eq!(r.len() as u64, expect, "|R_i| = (n−1)·d + 1 ≈ N");
            }
            // every tuple has ≤ 1 non-zero coordinate
            for r in &rels {
                for row in r.iter_rows() {
                    let nz = row.iter().filter(|v| v.0 != 0).count();
                    assert!(nz <= 1);
                }
            }
        }
    }

    #[test]
    fn simple_lw_join_is_linear_not_quadratic() {
        let n = 3usize;
        let cap = 41u64;
        let rels = simple_lw(n, cap);
        let d = (cap - 1) / (n as u64 - 1);
        // pairwise join of two simple relations with crossing attr sets is
        // ~ (d+1)² (the Ω(N²/n²) blow-up)…
        let pair = natural_join(&rels[0], &rels[1]);
        assert!(pair.len() as u64 >= (d + 1) * (d + 1));
        // …but the full join stays ≈ N + d (all-zero + axis points).
        let full = natural_join(&pair, &rels[2]);
        assert_eq!(full.len() as u64, n as u64 * d + 1);
    }

    #[test]
    fn relaxed_tight_shape() {
        let rels = relaxed_tight(3, 4);
        assert_eq!(rels.len(), 4);
        assert!(rels[..3].iter().all(|r| r.len() == 4 && r.arity() == 1));
        assert_eq!(rels[3].arity(), 3);
        assert_eq!(rels[3].len(), 4);
    }

    #[test]
    fn fd_family_is_functional() {
        let (rels, fds) = fd_family(5, 3, 10);
        assert_eq!(rels.len(), 6);
        assert_eq!(fds.len(), 3);
        for &(e, from, to) in &fds {
            let rel = &rels[e];
            let fpos = rel.schema().position(wcoj_storage::Attr(from)).unwrap();
            let tpos = rel.schema().position(wcoj_storage::Attr(to)).unwrap();
            let mut map = std::collections::HashMap::new();
            for row in rel.iter_rows() {
                let prev = map.insert(row[fpos], row[tpos]);
                assert!(prev.is_none() || prev == Some(row[tpos]));
            }
        }
    }

    #[test]
    fn graphs_have_requested_shape() {
        let g = random_graph_edges(3, 50, 200);
        assert_eq!(g.len(), 200);
        for row in g.iter_rows() {
            assert_ne!(row[0], row[1], "no self loops");
        }
        let pa = preferential_attachment_edges(4, 100, 3);
        assert!(pa.len() > 100);
    }

    #[test]
    fn determinism() {
        assert_eq!(
            random_relation(9, &[0, 1], 50, 10),
            random_relation(9, &[0, 1], 50, 10)
        );
        assert_ne!(
            random_relation(9, &[0, 1], 50, 10),
            random_relation(10, &[0, 1], 50, 10)
        );
    }

    #[test]
    fn exact_cardinality() {
        let r = random_relation_exact(5, &[0, 1], 64, 10);
        assert_eq!(r.len(), 64);
    }

    #[test]
    fn zipf_is_skewed() {
        let r = zipf_relation(6, &[0], 2000, 100, 1.4);
        // value 0 should dominate: appears, and distinct count far below 100
        assert!(r.contains_row(&[Value(0)]));
        assert!(r.len() < 100);
    }

    #[test]
    fn cycle_instances_shape() {
        let rels = cycle_instance(7, 5, 30, 6);
        assert_eq!(rels.len(), 5);
        for (i, r) in rels.iter().enumerate() {
            assert_eq!(r.schema(), &Schema::of(&[i as u32, ((i + 1) % 5) as u32]));
        }
    }

    #[test]
    fn embedded_gap_shape() {
        let rels = embedded_gap(3, 31);
        assert_eq!(rels.len(), 4);
        assert_eq!(rels[3].arity(), 2);
        // pendant uses the fresh attribute k
        assert!(rels[3].schema().contains(wcoj_storage::Attr(3)));
    }

    #[test]
    fn worked_example_shapes() {
        let rels = worked_example(1, 20, 5);
        assert_eq!(rels.len(), 5);
        assert_eq!(rels[0].arity(), 4);
        assert_eq!(rels[2].arity(), 3);
    }
}
