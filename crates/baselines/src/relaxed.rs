//! Relaxed joins (paper §7.2, Algorithm 6).
//!
//! Given `q = ⋈_{e∈E} R_e` with `m` relations and a relaxation `0 ≤ r ≤ m`,
//! compute every tuple (over all attributes) that agrees with at least
//! `m − r` of the input relations:
//!
//! ```text
//! q_r = ∪ { ⋈_{e∈S} R_e  :  S ⊆ E, |S| ≥ m − r, ∪S = V }
//! ```
//!
//! Algorithm 6 avoids evaluating every such `S`:
//! 1. only *containment-minimal* members of `C(q, r)` matter (supersets
//!    produce subsets of output — the paper's `Ĉ(q, r)`);
//! 2. two subsets whose cover LPs share the same optimal **basic feasible
//!    solution support** `BFS(S)` produce output inside the same join
//!    `⋈_{e∈BFS(S)} R_e`, so one representative per equivalence class —
//!    `C*(q, r)` — suffices;
//! 3. for each class, run the worst-case-optimal join on the support `T`
//!    with the optimal cover `x*_T`, then keep tuples agreeing with at
//!    least `m − r` relations of the *full* query.

use wcoj_core::nprr::join_nprr;
use wcoj_core::{JoinQuery, QueryError};
use wcoj_hypergraph::agm;
use wcoj_hypergraph::Hypergraph;
use wcoj_storage::ops::{reorder, union};
use wcoj_storage::Relation;

/// Output of a relaxed join evaluation.
#[derive(Debug, Clone)]
pub struct RelaxedOutput {
    /// `q_r` over all query attributes (sorted schema).
    pub relation: Relation,
    /// Number of containment-minimal covering subsets `|Ĉ(q, r)|`.
    pub minimal_subsets: usize,
    /// Number of `BFS`-equivalence classes `|C*(q, r)|` actually evaluated.
    pub classes: usize,
}

/// Evaluates the relaxed join `q_r`.
///
/// # Errors
/// * [`QueryError::AlgorithmMismatch`] when the subset enumeration would be
///   infeasibly large (`C(m, ≤r)` capped at 100 000);
/// * LP/storage failures.
pub fn relaxed_join(relations: &[Relation], r: usize) -> Result<RelaxedOutput, QueryError> {
    let q = JoinQuery::new(relations)?;
    let m = relations.len();
    let r = r.min(m);

    // Enumerate subsets S with |S| ≥ m − r by choosing the ≤ r removed
    // edges; guard combinatorial blow-up.
    let mut combos = 0usize;
    {
        let mut c = 1usize;
        combos = combos.saturating_add(c); // the i = 0 term
        for i in 1..=r {
            c = c
                .saturating_mul(m - i + 1)
                .checked_div(i)
                .unwrap_or(usize::MAX);
            combos = combos.saturating_add(c);
        }
    }
    if combos > 100_000 {
        return Err(QueryError::AlgorithmMismatch(
            "relaxed join: too many subsets to enumerate; reduce r or m",
        ));
    }

    let h = q.hypergraph();
    let n = h.num_vertices();

    // C(q, r): subsets (as bitmasks) of size ≥ m − r covering V.
    let covers_all = |mask: u64| -> bool {
        let mut covered = vec![false; n];
        for e in 0..m {
            if mask >> e & 1 == 1 {
                for &v in h.edge(e) {
                    covered[v] = true;
                }
            }
        }
        covered.iter().all(|&c| c)
    };
    let mut c_sets: Vec<u64> = Vec::new();
    enumerate_supersets(m, m - r, &mut |mask| {
        if covers_all(mask) {
            c_sets.push(mask);
        }
    });

    // Ĉ(q, r): containment-minimal members (smaller sets dominate — any
    // tuple in ⋈_S for S ⊇ S' is also in ⋈_{S'}).
    let minimal: Vec<u64> = c_sets
        .iter()
        .copied()
        .filter(|&s| !c_sets.iter().any(|&t| t != s && (t & s) == t))
        .collect();

    // C*(q, r): group by BFS(S) support.
    let sizes = q.sizes();
    let mut class_supports: Vec<Vec<usize>> = Vec::new();
    for &mask in &minimal {
        let edge_ids: Vec<usize> = (0..m).filter(|&e| mask >> e & 1 == 1).collect();
        let sub_edges: Vec<Vec<usize>> = edge_ids.iter().map(|&e| h.edge(e).to_vec()).collect();
        let sub_sizes: Vec<usize> = edge_ids.iter().map(|&e| sizes[e]).collect();
        let sub_h = Hypergraph::new(n, sub_edges)?;
        let sol = agm::optimal_cover(&sub_h, &sub_sizes)?;
        // Map the support back to original edge indices.
        let mut support: Vec<usize> = sol.support()?.iter().map(|&i| edge_ids[i]).collect();
        support.sort_unstable();
        if !class_supports.contains(&support) {
            class_supports.push(support);
        }
    }

    // Evaluate one representative per class; prune by agreement count.
    let out_schema = q.output_schema();
    let mut result = Relation::empty(out_schema.clone());
    let checkers: Vec<(Vec<usize>, wcoj_storage::RowSet)> = relations
        .iter()
        .map(|rel| {
            let pos = out_schema
                .positions_of(rel.schema().attrs())
                .expect("relation attrs in output schema");
            (pos, rel.row_set())
        })
        .collect();

    for support in &class_supports {
        let t_rels: Vec<Relation> = support.iter().map(|&e| relations[e].clone()).collect();
        let sub_q = JoinQuery::new(&t_rels)?;
        // The support covers V by cover feasibility, so the sub-join spans
        // all attributes.
        debug_assert_eq!(sub_q.attrs().len(), n, "support must cover V");
        let sol = sub_q.optimal_cover()?;
        let phi = join_nprr(&sub_q, &sol.x)?.relation;

        let mut kept = Relation::empty(out_schema.clone());
        let phi = reorder(&phi, &out_schema)?;
        let mut key = Vec::new();
        for row in phi.iter_rows() {
            let agree = checkers
                .iter()
                .filter(|(pos, set)| {
                    key.clear();
                    key.extend(pos.iter().map(|&p| row[p]));
                    set.contains(&key)
                })
                .count();
            if agree >= m - r {
                kept.push_row(row).expect("same arity");
            }
        }
        kept.sort_dedup();
        result = union(&result, &kept)?;
    }

    Ok(RelaxedOutput {
        relation: result,
        minimal_subsets: minimal.len(),
        classes: class_supports.len(),
    })
}

/// Calls `f` with every bitmask over `m` edges with at least `lo` bits set.
fn enumerate_supersets(m: usize, lo: usize, f: &mut impl FnMut(u64)) {
    debug_assert!(m <= 63);
    // Choose the removed set (size ≤ m − lo) by recursion.
    fn go(m: usize, start: usize, left: usize, removed: u64, f: &mut impl FnMut(u64)) {
        let full = (1u64 << m) - 1;
        f(full & !removed);
        if left == 0 {
            return;
        }
        for i in start..m {
            go(m, i + 1, left - 1, removed | (1 << i), f);
        }
    }
    go(m, 0, m - lo, 0, f);
}

/// Reference implementation: evaluates every `S ∈ C(q, r)` by brute force
/// (naive joins) and unions. Exponentially slower; used as the test oracle.
///
/// # Errors
/// Storage errors only.
pub fn relaxed_join_bruteforce(relations: &[Relation], r: usize) -> Result<Relation, QueryError> {
    let q = JoinQuery::new(relations)?;
    let m = relations.len();
    let r = r.min(m);
    let h = q.hypergraph();
    let n = h.num_vertices();
    let out_schema = q.output_schema();
    let mut result = Relation::empty(out_schema.clone());
    let mut masks = Vec::new();
    enumerate_supersets(m, m - r, &mut |mask| masks.push(mask));
    masks.sort_unstable();
    masks.dedup();
    for mask in masks {
        let subset: Vec<Relation> = (0..m)
            .filter(|&e| mask >> e & 1 == 1)
            .map(|e| relations[e].clone())
            .collect();
        // must cover all attributes
        let mut covered = vec![false; n];
        for rel in &subset {
            for a in rel.schema().attrs() {
                covered[q.vertex_of_attr(*a).expect("attr known")] = true;
            }
        }
        if !covered.iter().all(|&c| c) {
            continue;
        }
        let j = wcoj_core::naive::join(&subset);
        let j = reorder(&j, &out_schema)?;
        result = union(&result, &j)?;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{Schema, Value};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    #[test]
    fn r_zero_is_plain_join() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[1, 2], &[&[2, 5], &[4, 6]]);
        let out = relaxed_join(&[r.clone(), s.clone()], 0).unwrap();
        let plain = wcoj_core::join(&[r, s]).unwrap();
        assert_eq!(out.relation, plain);
        assert_eq!(out.classes, 1);
    }

    #[test]
    fn triangle_with_one_relaxation() {
        let r = rel(&[0, 1], &[&[1, 2], &[7, 8]]);
        let s = rel(&[1, 2], &[&[2, 3], &[8, 9]]);
        let t = rel(&[0, 2], &[&[1, 3]]); // only supports (1,2,3)
                                          // r = 1: tuples agreeing with ≥ 2 of {R, S, T} — but every pair of
                                          // edges already covers all three attributes, so C has all pairs.
        let out = relaxed_join(&[r.clone(), s.clone(), t.clone()], 1).unwrap();
        let brute = relaxed_join_bruteforce(&[r, s, t], 1).unwrap();
        assert_eq!(out.relation, brute);
        // (1,2,3) agrees with all 3; (7,8,9) agrees with R,S only.
        assert!(out.relation.contains_row(&[Value(1), Value(2), Value(3)]));
        assert!(out.relation.contains_row(&[Value(7), Value(8), Value(9)]));
    }

    #[test]
    fn uncovering_subsets_are_skipped() {
        // R(0,1), S(1,2): removing either loses an attribute, so q_1 = q_0.
        let r = rel(&[0, 1], &[&[1, 2]]);
        let s = rel(&[1, 2], &[&[2, 3], &[9, 9]]);
        let out = relaxed_join(&[r.clone(), s.clone()], 1).unwrap();
        let plain = wcoj_core::join(&[r, s]).unwrap();
        assert_eq!(out.relation, plain);
    }

    #[test]
    fn paper_lower_bound_instance_shape() {
        // §7.2's tightness instance (n = 2, N = 3): e_i = {i} for i ∈ {0,1},
        // e_3 = {0,1}; R_{e_i} = [N], R_{e_3} = {(N+i, N+i)}.
        let n = 3u32;
        let r0 = rel(&[0], &[&[1], &[2], &[3]]);
        let r1 = rel(&[1], &[&[1], &[2], &[3]]);
        let big: Vec<Vec<Value>> = (1..=n as u64)
            .map(|i| vec![Value(n as u64 + i), Value(n as u64 + i)])
            .collect();
        let r01 = Relation::from_rows(Schema::of(&[0, 1]), big).unwrap();
        let rels = vec![r0, r1, r01];
        for r in 1..=2usize {
            let fast = relaxed_join(&rels, r).unwrap();
            let brute = relaxed_join_bruteforce(&rels, r).unwrap();
            assert_eq!(fast.relation, brute, "r = {r}");
        }
        // For r = n (= 2): the singleton {e₃} enters C(q, r), so
        // q_2 = R_{e3} ∪ [N]² → N + N² tuples — the paper's tight bound.
        // (The paper states this "for any r > 0", but its own Algorithm 6
        // only admits the singleton subset once |S| = 1 ≥ m − r, i.e.
        // r ≥ n; for r = 1 the answer is just [N]².)
        let q2 = relaxed_join(&rels, 2).unwrap();
        assert_eq!(q2.relation.len(), (n + n * n) as usize);
        let q1 = relaxed_join(&rels, 1).unwrap();
        assert_eq!(q1.relation.len(), (n * n) as usize);
    }

    #[test]
    fn matches_bruteforce_on_random_queries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..8 {
            let rels: Vec<Relation> = vec![
                random(&mut rng, &[0, 1]),
                random(&mut rng, &[1, 2]),
                random(&mut rng, &[0, 2]),
                random(&mut rng, &[2, 3]),
            ];
            for r in 0..=2usize {
                let fast = relaxed_join(&rels, r).unwrap();
                let brute = relaxed_join_bruteforce(&rels, r).unwrap();
                assert_eq!(fast.relation, brute, "trial {trial}, r = {r}");
            }
        }
        fn random(rng: &mut rand::rngs::StdRng, attrs: &[u32]) -> Relation {
            let rows: Vec<Vec<Value>> = (0..15)
                .map(|_| {
                    attrs
                        .iter()
                        .map(|_| Value(rng.gen_range(0..5u64)))
                        .collect()
                })
                .collect();
            Relation::from_rows(Schema::of(attrs), rows).unwrap()
        }
    }

    #[test]
    fn enumerate_counts() {
        let mut count = 0usize;
        enumerate_supersets(4, 2, &mut |_| count += 1);
        // subsets of size ≥ 2 chosen via removed ≤ 2: C(4,0)+C(4,1)+C(4,2)
        assert_eq!(count, 1 + 4 + 6);
    }
}
