//! Arity-≤2 queries (paper §7.1, Lemma 7.1 + Theorem 7.3).
//!
//! When every relation has at most two attributes, the optimal basic
//! feasible cover is half-integral (Lemma 7.2) and decomposes into
//! vertex-disjoint **stars** (`x_e = 1`) and **odd cycles** (`x_e = 1/2`).
//! Theorem 7.3 computes the join in `O(m · ∏ N_e^{x_e})`:
//!
//! * each star is joined with plain hash joins (bound = product of its
//!   edge sizes, which is exactly its AGM factor);
//! * each odd cycle is evaluated by the **Cycle Lemma 7.1**:
//!   - a triangle is a Loomis–Whitney `n = 3` instance (Algorithm 1);
//!   - an even cycle takes the cross product of its cheaper alternating
//!     edge class and filters with the other class;
//!   - a longer odd cycle is *reduced to a triangle* by bundling a run of
//!     attributes into one mega-attribute and calling Algorithm 1;
//! * the components' results are glued by cross product (they share no
//!   vertices) and every zero-weight relation filters the result per
//!   tuple.
//!
//! This is a **reproduction** of §7.1, not an engine anything dispatches
//! to: `wcoj_core::join` runs NPRR on arity-≤2 queries too. Call
//! [`join_graph`] directly; the e9 and e10 experiments and this crate's
//! tests do.

use crate::half_integral::{decompose, Cycle};
use crate::lw::join_lw;
use wcoj_core::{JoinOutput, JoinQuery, JoinStats, QueryError};
use wcoj_storage::hash::{map_with_capacity, FxHashMap};
use wcoj_storage::ops::{natural_join, project, reorder, semijoin};
use wcoj_storage::{Attr, Relation, Schema, Value};

/// Evaluates an arity-≤2 query via the half-integral cover structure.
///
/// # Errors
/// [`QueryError::AlgorithmMismatch`] when some edge has arity > 2;
/// otherwise propagates LP/storage errors.
pub fn join_graph(q: &JoinQuery) -> Result<JoinOutput, QueryError> {
    if !q.hypergraph().is_graph() {
        return Err(QueryError::AlgorithmMismatch(
            "join_graph requires every relation to have ≤ 2 attributes",
        ));
    }
    let sol = q.optimal_cover()?;
    let d = decompose(q.hypergraph(), &sol.exact()?)?;

    let mut stats = JoinStats {
        algorithm_used: "graph-join",
        cover: sol.x.clone(),
        log2_agm_bound: sol.log2_bound,
        ..JoinStats::default()
    };

    // Join each component; components are vertex-disjoint so the glue is a
    // cross product (a natural join over disjoint schemas).
    let mut acc = Relation::nullary_true();
    for star in &d.stars {
        let mut sj = Relation::nullary_true();
        for &e in &star.edges {
            sj = natural_join(&sj, &q.relations()[e]);
        }
        stats.intermediate_tuples += sj.len() as u64;
        acc = natural_join(&acc, &sj);
    }
    for cyc in &d.cycles {
        let cj = cycle_join(q, cyc, &mut stats)?;
        stats.intermediate_tuples += cj.len() as u64;
        acc = natural_join(&acc, &cj);
    }

    // Filter against the zero-weight relations (each check is O(1)).
    let out = d
        .zero_edges
        .iter()
        .fold(acc, |j, &e| semijoin(&j, &q.relations()[e]));
    let relation = reorder(&out, &q.output_schema())?;
    Ok(JoinOutput { relation, stats })
}

/// Lemma 7.1: joins the relations of one cycle in
/// `O(m · √(∏_{e∈cycle} N_e))`.
fn cycle_join(q: &JoinQuery, cyc: &Cycle, stats: &mut JoinStats) -> Result<Relation, QueryError> {
    let len = cyc.edges.len();
    debug_assert_eq!(len % 2, 1, "decompose() only yields odd cycles");
    if len == 3 {
        return triangle_join(q, &cyc.edges);
    }
    odd_cycle_join(q, cyc, stats)
}

/// A 3-cycle is the `n = 3` Loomis–Whitney instance: run Algorithm 1.
fn triangle_join(q: &JoinQuery, edges: &[usize]) -> Result<Relation, QueryError> {
    let rels: Vec<Relation> = edges.iter().map(|&e| q.relations()[e].clone()).collect();
    let sub = JoinQuery::new(&rels)?;
    Ok(join_lw(&sub)?.relation)
}

/// Joins an even cycle (not produced by `decompose`, but exposed for the
/// §7.1 lemma's even case via [`even_cycle_join`]): cross-product one
/// alternating class, filter with the other.
fn alternating_join(q: &JoinQuery, cross_edges: &[usize], filter_edges: &[usize]) -> Relation {
    let mut x = Relation::nullary_true();
    for &e in cross_edges {
        x = natural_join(&x, &q.relations()[e]); // disjoint attrs → cross
    }
    filter_edges
        .iter()
        .fold(x, |x, &e| semijoin(&x, &q.relations()[e]))
}

/// Lemma 7.1, even case, exposed for direct use (the decomposition never
/// produces even cycles, but arbitrary cycle *queries* may be even):
/// cross-product the cheaper alternating class, filter with the other.
///
/// `edges` must be in traversal order.
#[must_use]
pub fn even_cycle_join(q: &JoinQuery, edges: &[usize]) -> Relation {
    debug_assert_eq!(edges.len() % 2, 0);
    let evens: Vec<usize> = edges.iter().copied().step_by(2).collect();
    let odds: Vec<usize> = edges.iter().copied().skip(1).step_by(2).collect();
    let log_prod = |es: &[usize]| -> f64 {
        es.iter()
            .map(|&e| (q.relations()[e].len().max(1) as f64).ln())
            .sum()
    };
    if log_prod(&evens) <= log_prod(&odds) {
        alternating_join(q, &evens, &odds)
    } else {
        alternating_join(q, &odds, &evens)
    }
}

/// Lemma 7.1, odd case with `2k' + 1 ≥ 5` edges: rotate so the alternating
/// "odd class" is cheapest, build `X` (cross product of the odd class),
/// `W` (its interior filtered by the even class), `Y = W × R_{e_last}` for
/// the cheaper of the two remaining edges, then **bundle** the interior
/// attributes and finish with a Loomis–Whitney `n = 3` join.
fn odd_cycle_join(
    q: &JoinQuery,
    cyc: &Cycle,
    stats: &mut JoinStats,
) -> Result<Relation, QueryError> {
    let l = cyc.edges.len();
    let kp = l / 2; // k' (l = 2k' + 1)

    // --- choose the rotation whose odd class is cheapest ---------------
    // Rotation r: edge sequence cyc.edges[r], cyc.edges[r+1], …
    // Odd class (paper's e1, e3, …, e_{2k'−1}) = positions 0, 2, …, 2k'−2.
    let log_n = |e: usize| (q.relations()[e].len().max(1) as f64).ln();
    let class_cost = |r: usize| -> f64 { (0..kp).map(|j| log_n(cyc.edges[(r + 2 * j) % l])).sum() };
    let best_r = (0..l)
        .min_by(|&a, &b| {
            class_cost(a)
                .partial_cmp(&class_cost(b))
                .expect("finite costs")
        })
        .expect("non-empty cycle");
    // min over rotations guarantees odd-class cost ≤ even-class cost
    // (the even class of rotation r is the odd class of rotation r+1).
    let at = |i: usize| cyc.edges[(best_r + i) % l]; // 0-based position i
    let vat = |i: usize| cyc.vertices[(best_r + i) % l]; // vertex i (1-based v_{i+1})

    // Edge classes in paper numbering (1-based): e_i = at(i-1).
    let odd_class: Vec<usize> = (0..kp).map(|j| at(2 * j)).collect(); // e1,e3,…,e_{2k'−1}
    let even_interior: Vec<usize> = (1..kp).map(|j| at(2 * j - 1)).collect(); // e2,…,e_{2k'−2}
    let e_2kp = at(2 * kp - 1); // e_{2k'}
    let e_last = at(2 * kp); // e_{2k'+1}

    // X = cross product of the odd class (spans v1..v_{2k'}).
    let mut x = Relation::nullary_true();
    for &e in &odd_class {
        x = natural_join(&x, &q.relations()[e]);
    }
    stats.intermediate_tuples += x.len() as u64;

    // S = {v2, …, v_{2k'−1}}; W = π_S(X) filtered by the even interior.
    let s_attrs: Vec<Attr> = (1..2 * kp - 1).map(|i| q.attr_of_vertex(vat(i))).collect();
    let w = even_interior.iter().fold(project(&x, &s_attrs)?, |w, &e| {
        semijoin(&w, &q.relations()[e])
    });
    stats.intermediate_tuples += w.len() as u64;

    // Pick the cheaper of e_{2k'} and e_{2k'+1} to extend W with — the
    // paper proves |W|·min(N_{2k'}, N_{2k'+1}) ≤ √(∏ N_e).
    let use_2kp = q.relations()[e_2kp].len() <= q.relations()[e_last].len();

    // The three LW(3) corner attribute sets:
    //   case use_2kp:  A = {v1},    B = S ∪ {v_{2k'}},  C = {v_{2k'+1}}
    //     X over A∪B, Y = W × R_{e_{2k'}} over B∪C, R_{e_{2k'+1}} over C∪A.
    //   else:          A = {v_{2k'}}, B = S ∪ {v1},     C = {v_{2k'+1}}
    //     X over A∪B, Y = W × R_{e_{2k'+1}} over B∪C, R_{e_{2k'}} over A∪C.
    let v1 = q.attr_of_vertex(vat(0));
    let v_2kp = q.attr_of_vertex(vat(2 * kp - 1));
    let v_last = q.attr_of_vertex(vat(2 * kp));

    let (a_attr, bundle_attrs, c_attr, y, third) = if use_2kp {
        let y = natural_join(&w, &q.relations()[e_2kp]); // disjoint → cross
        let mut b: Vec<Attr> = s_attrs.clone();
        b.push(v_2kp);
        (v1, b, v_last, y, q.relations()[e_last].clone())
    } else {
        let y = natural_join(&w, &q.relations()[e_last]);
        let mut b: Vec<Attr> = s_attrs.clone();
        b.push(v1);
        (v_2kp, b, v_last, y, q.relations()[e_2kp].clone())
    };
    stats.intermediate_tuples += y.len() as u64;

    // --- bundle B into one attribute and run LW(3) -----------------------
    let mut bundler = Bundler::new();
    let max_attr = q.attrs().iter().map(|a| a.0).max().unwrap_or(0);
    let b_attr = Attr(max_attr + 1);

    let xb = bundler.bundle(&x, &bundle_attrs, b_attr)?;
    let yb = bundler.bundle(&y, &bundle_attrs, b_attr)?;
    // third is already binary over {A, C} (no bundling needed).
    debug_assert!(third.schema().contains(a_attr) && third.schema().contains(c_attr));

    let sub = JoinQuery::new(&[xb, yb, third])?;
    let joined = join_lw(&sub)?.relation;
    stats.intermediate_tuples += joined.len() as u64;

    // --- unbundle --------------------------------------------------------
    let result = bundler.unbundle(&joined, b_attr, &bundle_attrs)?;
    // canonical layout over the cycle's vertices
    let mut attrs: Vec<Attr> = cyc.vertices.iter().map(|&v| q.attr_of_vertex(v)).collect();
    attrs.sort_unstable();
    Ok(reorder(&result, &Schema::new(attrs)?)?)
}

/// Interns sub-tuples over a fixed attribute list as fresh bundle values.
struct Bundler {
    codes: FxHashMap<Vec<Value>, Value>,
    rev: Vec<Vec<Value>>,
}

impl Bundler {
    fn new() -> Bundler {
        Bundler {
            codes: map_with_capacity(64),
            rev: Vec::new(),
        }
    }

    fn code(&mut self, key: Vec<Value>) -> Value {
        if let Some(&v) = self.codes.get(&key) {
            return v;
        }
        let v = Value(self.rev.len() as u64);
        self.rev.push(key.clone());
        self.codes.insert(key, v);
        v
    }

    /// Replaces columns `attrs` of `rel` by a single column `bundle_attr`
    /// carrying an interned code for the sub-tuple.
    fn bundle(
        &mut self,
        rel: &Relation,
        attrs: &[Attr],
        bundle_attr: Attr,
    ) -> Result<Relation, QueryError> {
        let pos = rel.schema().positions_of(attrs)?;
        let keep: Vec<usize> = rel
            .schema()
            .attrs()
            .iter()
            .enumerate()
            .filter(|(_, a)| !attrs.contains(a))
            .map(|(i, _)| i)
            .collect();
        let mut out_attrs: Vec<Attr> = keep.iter().map(|&i| rel.schema().attrs()[i]).collect();
        out_attrs.push(bundle_attr);
        let mut out = Relation::empty(Schema::new(out_attrs)?);
        let mut buf = Vec::with_capacity(keep.len() + 1);
        for row in rel.iter_rows() {
            buf.clear();
            buf.extend(keep.iter().map(|&i| row[i]));
            let key: Vec<Value> = pos.iter().map(|&p| row[p]).collect();
            buf.push(self.code(key));
            out.push_row(&buf).expect("arity consistent");
        }
        out.sort_dedup();
        Ok(out)
    }

    /// Expands `bundle_attr` back into `attrs` columns.
    fn unbundle(
        &self,
        rel: &Relation,
        bundle_attr: Attr,
        attrs: &[Attr],
    ) -> Result<Relation, QueryError> {
        let bpos = rel
            .schema()
            .position(bundle_attr)
            .ok_or(QueryError::AlgorithmMismatch("bundle attr missing"))?;
        let keep: Vec<usize> = (0..rel.arity()).filter(|&i| i != bpos).collect();
        let mut out_attrs: Vec<Attr> = keep.iter().map(|&i| rel.schema().attrs()[i]).collect();
        out_attrs.extend_from_slice(attrs);
        let mut out = Relation::empty(Schema::new(out_attrs)?);
        let mut buf = Vec::with_capacity(keep.len() + attrs.len());
        for row in rel.iter_rows() {
            buf.clear();
            buf.extend(keep.iter().map(|&i| row[i]));
            let sub = &self.rev[row[bpos].0 as usize];
            buf.extend_from_slice(sub);
            out.push_row(&buf).expect("arity consistent");
        }
        out.sort_dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wcoj_core::naive;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    fn check_matches_naive(rels: &[Relation]) {
        let q = JoinQuery::new(rels).unwrap();
        let out = join_graph(&q).unwrap();
        let expect = naive::join(rels);
        let expect = reorder(&expect, out.relation.schema()).unwrap();
        assert_eq!(out.relation, expect);
    }

    fn random_binary(rng: &mut rand::rngs::StdRng, a: u32, b: u32, n: usize, dom: u64) -> Relation {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| vec![Value(rng.gen_range(0..dom)), Value(rng.gen_range(0..dom))])
            .collect();
        Relation::from_rows(Schema::of(&[a, b]), rows).unwrap()
    }

    #[test]
    fn star_query() {
        // R(0,1), S(0,2), T(0,3): a star centered at 0.
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let s = rel(&[0, 2], &[&[1, 11], &[2, 21], &[1, 12]]);
        let t = rel(&[0, 3], &[&[1, 13], &[3, 33]]);
        check_matches_naive(&[r, s, t]);
    }

    #[test]
    fn triangle_as_graph_join() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = random_binary(&mut rng, 0, 1, 40, 8);
        let s = random_binary(&mut rng, 1, 2, 40, 8);
        let t = random_binary(&mut rng, 0, 2, 40, 8);
        check_matches_naive(&[r, s, t]);
    }

    #[test]
    fn five_cycle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let rels: Vec<Relation> = (0..5)
            .map(|i| random_binary(&mut rng, i, (i + 1) % 5, 30, 5))
            .collect();
        check_matches_naive(&rels);
    }

    #[test]
    fn seven_cycle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rels: Vec<Relation> = (0..7)
            .map(|i| random_binary(&mut rng, i, (i + 1) % 7, 25, 4))
            .collect();
        check_matches_naive(&rels);
    }

    #[test]
    fn four_cycle_via_matching_cover() {
        // decompose() yields two stars (a matching) for an even cycle.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let rels: Vec<Relation> = (0..4)
            .map(|i| random_binary(&mut rng, i, (i + 1) % 4, 30, 6))
            .collect();
        check_matches_naive(&rels);
    }

    #[test]
    fn even_cycle_join_direct() {
        // Exercise the explicit even-cycle path of Lemma 7.1.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rels: Vec<Relation> = (0..6)
            .map(|i| random_binary(&mut rng, i, (i + 1) % 6, 20, 4))
            .collect();
        let q = JoinQuery::new(&rels).unwrap();
        let edges: Vec<usize> = (0..6).collect();
        let j = even_cycle_join(&q, &edges);
        let expect = naive::join(&rels);
        let expect = reorder(&expect, j.schema()).unwrap();
        assert_eq!(j, expect);
    }

    #[test]
    fn mixed_star_cycle_and_zero_edges() {
        // triangle on {0,1,2} + pendant edges (3,4) & chords that end up
        // zero-weighted.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let rels = vec![
            random_binary(&mut rng, 0, 1, 30, 5),
            random_binary(&mut rng, 1, 2, 30, 5),
            random_binary(&mut rng, 0, 2, 30, 5),
            random_binary(&mut rng, 3, 4, 10, 5),
            random_binary(&mut rng, 4, 5, 10, 5),
        ];
        check_matches_naive(&rels);
    }

    #[test]
    fn unary_relations() {
        let u = rel(&[0], &[&[1], &[2], &[3]]);
        let r = rel(&[0, 1], &[&[1, 5], &[4, 6], &[3, 7]]);
        check_matches_naive(&[u, r]);
    }

    #[test]
    fn rejects_hyperedges() {
        let r = Relation::from_u32_rows(Schema::of(&[0, 1, 2]), &[&[1, 2, 3]]);
        let q = JoinQuery::new(&[r]).unwrap();
        assert!(matches!(
            join_graph(&q),
            Err(QueryError::AlgorithmMismatch(_))
        ));
    }

    #[test]
    fn random_graph_queries_match_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..15 {
            let n_attr = rng.gen_range(3..7u32);
            let n_edges = rng.gen_range(2..7usize);
            let mut rels = Vec::new();
            let mut covered: Vec<u32> = Vec::new();
            for _ in 0..n_edges {
                let a = rng.gen_range(0..n_attr);
                let mut b = rng.gen_range(0..n_attr);
                if b == a {
                    b = (b + 1) % n_attr;
                }
                covered.push(a);
                covered.push(b);
                rels.push(random_binary(&mut rng, a, b, 25, 5));
            }
            // ensure every attribute in the query is covered (it is, by
            // construction — attrs not used simply don't exist).
            let _ = covered;
            let q = JoinQuery::new(&rels).unwrap();
            let out = join_graph(&q);
            match out {
                Ok(o) => {
                    let expect = naive::join(&rels);
                    let expect = reorder(&expect, o.relation.schema()).unwrap();
                    assert_eq!(o.relation, expect, "trial {trial}");
                }
                Err(e) => panic!("trial {trial}: {e}"),
            }
        }
    }
}
