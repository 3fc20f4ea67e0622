//! Algorithm 1 (paper §4): the worst-case optimal join for
//! **Loomis–Whitney instances** — queries whose edges are all the
//! `(n−1)`-subsets of an `n`-attribute universe.
//!
//! The algorithm builds a binary tree whose leaves are the attributes;
//! `label(x) = V∖{x}` at a leaf and `label(x) = label(lc) ∩ label(rc)`
//! inside. Bottom-up it maintains, per node `x`:
//!
//! * `C(x)` — candidate *full* tuples already safely materialised
//!   (`|C(x)| ≤ (|leaves(x)|−1)·P` where `P = (∏N_e)^{1/(n−1)}` is the LW
//!   bound), and
//! * `D(x)` — a relation over `label(x)` of **postponed join keys**: a
//!   superset of `π_{label(x)}(J ∖ C(x))`.
//!
//! The key twist (the paper's "heavy/light" partitioning, Example 4.2): at
//! each node the shared keys `F` are split into the *light* set `G` — keys
//! whose fan-out is small enough that joining them now stays within the
//! size budget `P` — and the *heavy* remainder `F∖G`, which is postponed
//! into `D(x)` for an ancestor to resolve against a different relation.
//! The root joins whatever is left and a final **prune** against all input
//! relations yields exactly `J`.
//!
//! This is a **reproduction** of §4, not an engine anything dispatches to:
//! `wcoj_core::join` runs NPRR on LW instances too (Theorem 5.1 subsumes
//! Theorem 4.1). Call [`join_lw`] directly; the e1–e3 and e7 experiments
//! and this crate's tests do.

use wcoj_core::{JoinOutput, JoinQuery, JoinStats, QueryError};
use wcoj_hypergraph::lw::lw_omitted_vertices;
use wcoj_storage::hash::{map_with_capacity, FxHashMap};
use wcoj_storage::ops::{natural_join, reorder, semijoin, union};
use wcoj_storage::{Attr, Relation, Schema, Value};

/// Evaluates an LW-instance query with Algorithm 1.
///
/// # Errors
/// [`QueryError::AlgorithmMismatch`] when the query is not an LW instance.
pub fn join_lw(q: &JoinQuery) -> Result<JoinOutput, QueryError> {
    let Some(omitted) = lw_omitted_vertices(q.hypergraph()) else {
        return Err(QueryError::AlgorithmMismatch(
            "join_lw requires a Loomis-Whitney instance",
        ));
    };
    let n = q.hypergraph().num_vertices();

    // relation index for each leaf (the edge omitting that vertex).
    let mut rel_of_leaf = vec![usize::MAX; n];
    for (e, &v) in omitted.iter().enumerate() {
        rel_of_leaf[v] = e;
    }

    // P = (∏ N_e)^{1/(n−1)}, computed in log space.
    let log_p: f64 = q
        .sizes()
        .iter()
        .map(|&s| (s.max(1) as f64).ln())
        .sum::<f64>()
        / (n as f64 - 1.0);
    let p = log_p.exp();

    let mut stats = JoinStats {
        algorithm_used: "lw",
        cover: vec![1.0 / (n as f64 - 1.0); n],
        log2_agm_bound: log_p / std::f64::consts::LN_2,
        ..JoinStats::default()
    };

    let full_schema = q.output_schema();
    let leaves: Vec<usize> = (0..n).collect();
    let (c, _d) = lw_rec(q, &rel_of_leaf, &leaves, p, &full_schema, true, &mut stats)?;

    // Prune: `J = {t ∈ C : π_e(t) ∈ R_e ∀e}`, one semijoin per edge.
    let relation = q.relations().iter().fold(c, |j, rel| semijoin(&j, rel));
    Ok(JoinOutput { relation, stats })
}

/// Recursive LW step over a set of leaves. Returns `(C, D)`.
fn lw_rec(
    q: &JoinQuery,
    rel_of_leaf: &[usize],
    leaves: &[usize],
    p: f64,
    full_schema: &Schema,
    is_root: bool,
    stats: &mut JoinStats,
) -> Result<(Relation, Relation), QueryError> {
    if leaves.len() == 1 {
        // Leaf: C = ∅ (over V), D = R_{V∖{leaf}}.
        let rel = q.relations()[rel_of_leaf[leaves[0]]].clone();
        return Ok((Relation::empty(full_schema.clone()), rel));
    }
    let mid = leaves.len() / 2;
    let (cl, dl) = lw_rec(q, rel_of_leaf, &leaves[..mid], p, full_schema, false, stats)?;
    let (cr, dr) = lw_rec(q, rel_of_leaf, &leaves[mid..], p, full_schema, false, stats)?;

    // label(x) = V ∖ leaves(x) = shared attributes of D_L and D_R.
    let label: Vec<Attr> = dl.schema().intersection(dr.schema());

    let (joined, d) = if is_root {
        // Root: label = ∅; C gets the full join, D = ∅.
        let j = natural_join(&dl, &dr);
        (j, Relation::empty(Schema::new(label).expect("distinct")))
    } else {
        split_heavy_light(&dl, &dr, &label, p)?
    };
    stats.intermediate_tuples += joined.len() as u64 + d.len() as u64;

    // C = joined ∪ C_L ∪ C_R, canonicalised to the full schema's layout.
    let joined = reorder(&joined, full_schema)?;
    let c = union(&union(&joined, &cl)?, &cr)?;
    Ok((c, d))
}

/// The heavy/light split at an internal, non-root node:
/// `F = π_label(D_L) ∩ π_label(D_R)`,
/// `G = {t ∈ F : |D_L[t]| + 1 ≤ ⌈P/|D_R|⌉}`,
/// returns `(D_L ⋈_G D_R, F ∖ G)` where `⋈_G` joins only on keys in `G`.
fn split_heavy_light(
    dl: &Relation,
    dr: &Relation,
    label: &[Attr],
    p: f64,
) -> Result<(Relation, Relation), QueryError> {
    let label_schema = Schema::new(label.to_vec())?;
    let out_schema = dl.schema().union(dr.schema());

    if dr.is_empty() || dl.is_empty() {
        // F = G = ∅ (paper's comment on line 5).
        return Ok((Relation::empty(out_schema), Relation::empty(label_schema)));
    }

    // Group rows by label key.
    let lpos = dl.schema().positions_of(label)?;
    let rpos = dr.schema().positions_of(label)?;
    let mut lgroups: FxHashMap<Vec<Value>, Vec<usize>> = map_with_capacity(dl.len());
    for (i, row) in dl.iter_rows().enumerate() {
        lgroups
            .entry(lpos.iter().map(|&p| row[p]).collect())
            .or_default()
            .push(i);
    }
    let mut rgroups: FxHashMap<Vec<Value>, Vec<usize>> = map_with_capacity(dr.len());
    for (i, row) in dr.iter_rows().enumerate() {
        rgroups
            .entry(rpos.iter().map(|&p| row[p]).collect())
            .or_default()
            .push(i);
    }

    // Fan-out threshold: |D_L[t]| + 1 ≤ ⌈P / |D_R|⌉.
    let threshold = (p / dr.len() as f64).ceil();

    // Output plan: D_L's columns then D_R's new ones.
    let out_attrs = out_schema.attrs().to_vec();
    let l_from: Vec<Option<usize>> = out_attrs.iter().map(|&a| dl.schema().position(a)).collect();
    let r_from: Vec<Option<usize>> = out_attrs.iter().map(|&a| dr.schema().position(a)).collect();

    let mut joined = Relation::empty(out_schema);
    let mut heavy = Relation::empty(label_schema);
    let mut buf = vec![Value(0); out_attrs.len()];
    for (key, lrows) in &lgroups {
        let Some(rrows) = rgroups.get(key) else {
            continue; // key not in F
        };
        let light = (lrows.len() as f64 + 1.0) <= threshold;
        if light {
            for &li in lrows {
                let lrow = dl.row(li);
                for &ri in rrows {
                    let rrow = dr.row(ri);
                    for (slot, (lf, rf)) in buf.iter_mut().zip(l_from.iter().zip(&r_from)) {
                        *slot = match (lf, rf) {
                            (Some(pl), _) => lrow[*pl],
                            (None, Some(pr)) => rrow[*pr],
                            (None, None) => unreachable!("attr in one side"),
                        };
                    }
                    joined.push_row(&buf).expect("arity consistent");
                }
            }
        } else {
            heavy.push_row(key).expect("label arity");
        }
    }
    joined.sort_dedup();
    heavy.sort_dedup();
    Ok((joined, heavy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_core::naive;
    use wcoj_storage::ops::reorder as ops_reorder;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    fn check_matches_naive(rels: &[Relation]) {
        let q = JoinQuery::new(rels).unwrap();
        let out = join_lw(&q).unwrap();
        let expect = naive::join(rels);
        let expect = ops_reorder(&expect, out.relation.schema()).unwrap();
        assert_eq!(out.relation, expect);
    }

    #[test]
    fn triangle_small() {
        let r = rel(&[0, 1], &[&[1, 2], &[1, 3], &[2, 2]]);
        let s = rel(&[1, 2], &[&[2, 4], &[3, 4], &[2, 5]]);
        let t = rel(&[0, 2], &[&[1, 4], &[2, 5], &[1, 5]]);
        check_matches_naive(&[r, s, t]);
    }

    #[test]
    fn triangle_empty_output() {
        // Example 2.2's pathological instance (N = 4): all pairwise joins
        // are large but the triangle join is empty.
        let rows: Vec<Vec<Value>> = (1..=2u64)
            .map(|j| vec![Value(0), Value(j)])
            .chain((1..=2u64).map(|j| vec![Value(j), Value(0)]))
            .collect();
        let r = Relation::from_rows(Schema::of(&[0, 1]), rows.clone()).unwrap();
        let s = Relation::from_rows(Schema::of(&[1, 2]), rows.clone()).unwrap();
        let t = Relation::from_rows(Schema::of(&[0, 2]), rows).unwrap();
        let q = JoinQuery::new(&[r, s, t]).unwrap();
        let out = join_lw(&q).unwrap();
        assert!(out.relation.is_empty());
    }

    #[test]
    fn lw4_instance() {
        // n = 4: relations on all 3-subsets of {0,1,2,3}.
        let r123 = rel(&[1, 2, 3], &[&[1, 1, 1], &[1, 2, 1], &[2, 2, 2]]);
        let r023 = rel(&[0, 2, 3], &[&[5, 1, 1], &[5, 2, 1], &[6, 2, 2]]);
        let r013 = rel(&[0, 1, 3], &[&[5, 1, 1], &[6, 2, 2], &[5, 1, 2]]);
        let r012 = rel(&[0, 1, 2], &[&[5, 1, 1], &[5, 1, 2], &[6, 2, 2]]);
        check_matches_naive(&[r123, r023, r013, r012]);
    }

    #[test]
    fn lw2_is_cross_product() {
        // n = 2: R({1}) × S({0}).
        let r1 = rel(&[1], &[&[10], &[20]]);
        let r0 = rel(&[0], &[&[1], &[2], &[3]]);
        let q = JoinQuery::new(&[r1, r0]).unwrap();
        let out = join_lw(&q).unwrap();
        assert_eq!(out.relation.len(), 6);
    }

    #[test]
    fn rejects_non_lw() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let s = rel(&[1, 2], &[&[2, 3]]);
        let q = JoinQuery::new(&[r, s]).unwrap();
        assert!(matches!(join_lw(&q), Err(QueryError::AlgorithmMismatch(_))));
    }

    #[test]
    fn heavy_keys_are_postponed_not_lost() {
        // Construct skew: every relation gets the same rows, in which
        // value 0 of the first column has fan-out 20 (a heavy key) and
        // values 1..=20 have fan-out 1.
        let mut rr = Vec::new();
        for j in 0..20u32 {
            rr.push(vec![Value(0), Value(u64::from(j))]);
            rr.push(vec![Value(u64::from(j + 1)), Value(50)]);
        }
        let r = Relation::from_rows(Schema::of(&[0, 1]), rr.clone()).unwrap();
        let s = Relation::from_rows(Schema::of(&[1, 2]), rr.clone()).unwrap();
        let t = Relation::from_rows(Schema::of(&[0, 2]), rr).unwrap();
        check_matches_naive(&[r, s, t]);
    }

    #[test]
    fn output_within_agm_budget_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..10 {
            let n = 60usize;
            let mk = |rng: &mut rand::rngs::StdRng| {
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|_| {
                        vec![
                            Value(rng.gen_range(0..12u64)),
                            Value(rng.gen_range(0..12u64)),
                        ]
                    })
                    .collect();
                rows
            };
            let r = Relation::from_rows(Schema::of(&[0, 1]), mk(&mut rng)).unwrap();
            let s = Relation::from_rows(Schema::of(&[1, 2]), mk(&mut rng)).unwrap();
            let t = Relation::from_rows(Schema::of(&[0, 2]), mk(&mut rng)).unwrap();
            let sizes = [r.len(), s.len(), t.len()];
            let bound = (sizes.iter().map(|&x| x as f64).product::<f64>()).sqrt();
            let q = JoinQuery::new(&[r.clone(), s.clone(), t.clone()]).unwrap();
            let out = join_lw(&q).unwrap();
            assert!(
                (out.relation.len() as f64) <= bound + 1e-9,
                "trial {trial}: AGM violated"
            );
            check_matches_naive(&[r, s, t]);
        }
    }
}
