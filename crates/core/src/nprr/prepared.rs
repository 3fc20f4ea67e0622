//! Ahead-of-time preparation (paper Remark 5.2).
//!
//! Remark 5.2 observes that everything `Recursive-Join` needs besides the
//! tuples themselves can be paid for once, which removes the
//! `O(n² Σ N_e)` term from subsequent evaluations. [`PreparedQuery`]
//! packages that split in three tiers:
//!
//! * **compiled once, at construction** — the data-independent plan (QP
//!   tree and total order, folded into one `NodePlan` per tree node: its
//!   `W`/`W⁻` ranges, section descents, check-edge offsets, case-a
//!   soundness, leaf covering edges) and the per-relation search trees;
//!   plus, memoized on first use, the LP-optimal cover and the root
//!   candidate weights;
//! * **resolved once per run** ([`PreparedQuery::run_shard`]) — the
//!   per-node cover vectors for the run's cover `x`, and the per-level
//!   row buffers every `Recursive-Join` call of the run reuses;
//! * **per tuple** — the `O(mn·∏N^x)` evaluation itself, allocation-free.
//!
//! Build once, evaluate many times (e.g. with different covers, for
//! every `C*(q, r)` class of a relaxed join, or — the partition-parallel
//! executor's use — once per root shard on a worker pool, sharing the
//! plan and the indexes across threads).
//!
//! The preparation is generic over the [`SearchTree`] realisation
//! ([`FlatIndex`] by default; the served path holds shared
//! `Arc<FlatIndex>`es, a relation's merged view among them, through
//! [`PreparedQuery::from_shared`]).

use super::plan::{JoinPlan, SLOT_ATTRIBUTES};
use super::{run_plan, RootShard};
use crate::query::{JoinQuery, QueryError};
use crate::{JoinOutput, JoinStats};
use std::sync::{Arc, OnceLock};
use wcoj_hypergraph::cover::validate_cover;
use wcoj_storage::{gallop, Attr, FlatIndex, Relation, RowBuf, SearchTree, StorageError, Value};

/// A query prepared for repeated NPRR evaluation: the compiled plan (QP
/// tree, total order, per-node `Recursive-Join` layout) and all search
/// trees, built once.
///
/// Two data-dependent planning products are memoized on first use (the
/// indexes are immutable, so both are fixed at construction): the optimal
/// fractional cover (an LP solve) and the root candidate weights (a full
/// level-0 sweep) — with these cached, a stored `PreparedQuery` makes
/// repeat submissions pay only the `O(mn·∏N^x)` evaluation itself.
pub struct PreparedQuery<S: SearchTree = FlatIndex> {
    q: Arc<JoinQuery>,
    /// Effective per-relation cardinalities, in edge order. Equal to
    /// [`JoinQuery::sizes`] for batch preparations; a delta-backed
    /// preparation supplies merged-view sizes instead, so cover LPs and
    /// emptiness checks see the data the indexes actually serve (the
    /// raw relations inside `q` may then be stale bases).
    sizes: Vec<usize>,
    plan: JoinPlan,
    tries: Vec<S>,
    /// Memoized LP optimum: `(x, log2_bound)` of [`Self::resolve_cover`]
    /// with no user cover.
    opt_cover: OnceLock<(Vec<f64>, f64)>,
    /// Memoized [`Self::root_candidate_weights`] (the shard planner's
    /// per-submission input).
    root_weights: OnceLock<Vec<(Value, u64)>>,
}

impl PreparedQuery {
    /// Builds the plan and [`FlatIndex`]es for `relations`.
    ///
    /// # Errors
    /// [`QueryError`] on malformed input.
    pub fn new(relations: &[Relation]) -> Result<PreparedQuery, QueryError> {
        PreparedQuery::new_indexed(relations)
    }
}

impl<S: SearchTree> PreparedQuery<S> {
    /// Builds the plan and indexes for `relations` with an explicit
    /// [`SearchTree`] backend.
    ///
    /// # Errors
    /// [`QueryError`] on malformed input.
    pub fn new_indexed(relations: &[Relation]) -> Result<PreparedQuery<S>, QueryError> {
        Self::from_query(JoinQuery::new(relations)?)
    }

    /// Builds the plan and indexes for an already-assembled query,
    /// reusing its hypergraph and attribute numbering instead of
    /// re-deriving them.
    ///
    /// # Errors
    /// Storage errors from index construction (none expected for a
    /// well-formed [`JoinQuery`]).
    pub fn from_query(q: JoinQuery) -> Result<PreparedQuery<S>, QueryError> {
        let q = Arc::new(q);
        let rels = Arc::clone(&q);
        Self::from_shared(q, None, |i, order| S::build(&rels.relations()[i], order))
    }

    /// Builds the plan around an `Arc`-shared query, with a caller-supplied
    /// index builder — the delta-backed preparation path. `build` receives
    /// each edge index and its per-atom attribute order (edge vertices
    /// sorted by total-order position) and returns that atom's search
    /// tree; it can compose the index from shared parts instead of
    /// indexing `q`'s raw relations. `sizes`, when given, overrides the
    /// effective per-relation cardinalities (edge order) used for cover
    /// LPs and emptiness checks.
    ///
    /// Sharing the `Arc` reuses the query and its hypergraph by
    /// reference, but every call compiles the plan again
    /// (`JoinPlan::compile`, Algorithm 3's whole edge-order search) and
    /// starts the memoized cover/weights caches cold. Sharing one compiled
    /// plan per query shape is ROADMAP item 25.
    ///
    /// # Errors
    /// Propagates `build` failures.
    pub fn from_shared(
        q: Arc<JoinQuery>,
        sizes: Option<Vec<usize>>,
        mut build: impl FnMut(usize, &[Attr]) -> Result<S, StorageError>,
    ) -> Result<PreparedQuery<S>, QueryError> {
        let plan = JoinPlan::compile(q.hypergraph());
        let mut tries = Vec::with_capacity(q.relations().len());
        for (i, vs) in plan.edge_vertices.iter().enumerate() {
            let attr_order: Vec<Attr> = vs.iter().map(|&v| q.attr_of_vertex(v)).collect();
            tries.push(build(i, &attr_order)?);
        }
        let sizes = sizes.unwrap_or_else(|| q.sizes());
        Ok(PreparedQuery {
            q,
            sizes,
            plan,
            tries,
            opt_cover: OnceLock::new(),
            root_weights: OnceLock::new(),
        })
    }

    /// The underlying query.
    #[must_use]
    pub fn query(&self) -> &JoinQuery {
        &self.q
    }

    /// The `Arc`-shared query, for preparations that reuse the plan shape
    /// (delta rebuilds clone this instead of re-deriving the hypergraph).
    #[must_use]
    pub fn shared_query(&self) -> &Arc<JoinQuery> {
        &self.q
    }

    /// Effective per-relation cardinalities, in edge order (see the field
    /// docs: merged-view sizes for delta-backed preparations).
    #[must_use]
    pub fn input_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// `true` iff some input relation is effectively empty — the
    /// degenerate case every evaluation path short-circuits. Consults the
    /// effective sizes, **not** the raw relations inside the query, so it
    /// stays correct when the indexes serve a delta view over stale bases.
    #[must_use]
    pub fn input_is_empty(&self) -> bool {
        self.sizes.contains(&0)
    }

    /// The per-atom search trees, in edge order.
    #[must_use]
    pub fn indexes(&self) -> &[S] {
        &self.tries
    }

    /// The total order of attributes (vertex ids) this preparation uses.
    #[must_use]
    pub fn total_order(&self) -> &[usize] {
        &self.plan.order
    }

    /// The edge order `e₁, …, e_m` Algorithm 3 built the QP tree from, as
    /// input edge indexes: the first order whose total order is the
    /// output schema; else the first whose total order starts with the
    /// schema's first `min(2, n)` attributes; else input order.
    #[must_use]
    pub fn edge_order(&self) -> &[usize] {
        &self.plan.edge_order
    }

    /// Resolves an optional user cover into `(x, log2_bound)`: validates a
    /// supplied vector, or solves the LP for the optimum.
    ///
    /// # Errors
    /// [`QueryError::BadCover`] for invalid covers; LP errors otherwise.
    pub fn resolve_cover(&self, cover: Option<&[f64]>) -> Result<(Vec<f64>, f64), QueryError> {
        match cover {
            Some(x) => {
                validate_cover(self.q.hypergraph(), x)
                    .map_err(|e| QueryError::BadCover(e.to_string()))?;
                Ok((x.to_vec(), wcoj_hypergraph::agm::log2_bound(&self.sizes, x)))
            }
            None => {
                // Memoized: the LP optimum is a pure function of the
                // (immutable) query, so solve it at most once. Solved
                // over the effective sizes, which for a delta-backed
                // preparation differ from the raw base relations'.
                if let Some(cached) = self.opt_cover.get() {
                    return Ok(cached.clone());
                }
                let sol = wcoj_hypergraph::agm::optimal_cover(self.q.hypergraph(), &self.sizes)?;
                let pair = (sol.x, sol.log2_bound);
                let _ = self.opt_cover.set(pair.clone());
                Ok(pair)
            }
        }
    }

    /// The candidate values of the **root attribute** (total-order position
    /// 0): the sorted intersection of level 0 of every index whose relation
    /// contains that attribute. Every output tuple's root value lies in
    /// this list, so any partition of it induces a partition of the output
    /// — the shard-planning input of `wcoj-exec`'s planner.
    ///
    /// Empty when the query has no attributes.
    #[must_use]
    pub fn root_candidates(&self) -> Vec<Value> {
        let Some(&root_vertex) = self.plan.order.first() else {
            return Vec::new();
        };
        let mut acc: Option<Vec<Value>> = None;
        for (e, vs) in self.plan.edge_vertices.iter().enumerate() {
            if vs.first() != Some(&root_vertex) {
                continue; // relation does not contain the root attribute
            }
            let trie = &self.tries[e];
            let level0 = trie.child_values(trie.root());
            acc = Some(match acc.take() {
                None => level0,
                Some(prev) => gallop::intersect(&prev, &level0),
            });
        }
        acc.unwrap_or_default()
    }

    /// The candidate values of the **anchor attribute** (total-order
    /// position 1) under root binding `root`: the sorted intersection of
    /// the level-1 slices of every index whose trie starts `(root-attr,
    /// anchor-attr)` — the section the case-b anchor scan under a fixed
    /// root value enumerates — with the level-0 lists of every index whose
    /// trie starts with the anchor attribute. Every output tuple with root
    /// value `root` draws its anchor value from this list, so a partition
    /// of it induces a partition of the root value's output — the
    /// planning input for intra-value sub-shards ([`RootShard::anchor`]).
    ///
    /// Empty when the total order has fewer than two attributes (there is
    /// no anchor level to sub-shard on), or when `root` cannot produce
    /// output.
    #[must_use]
    pub fn anchor_candidates(&self, root: Value) -> Vec<Value> {
        let [root_vertex, anchor_vertex] = *self.plan.order.get(..2).unwrap_or(&[]) else {
            return Vec::new();
        };
        let mut acc: Option<Vec<Value>> = None;
        for (e, vs) in self.plan.edge_vertices.iter().enumerate() {
            let trie = &self.tries[e];
            let node = if vs.first() == Some(&anchor_vertex) {
                trie.root()
            } else if vs.first() == Some(&root_vertex) && vs.get(1) == Some(&anchor_vertex) {
                match trie.descend(trie.root(), root) {
                    Some(n) => n,
                    None => return Vec::new(), // root value absent: empty section
                }
            } else {
                continue; // relation does not constrain the anchor level
            };
            let level = trie.child_values(node);
            acc = Some(match acc.take() {
                None => level,
                Some(prev) => gallop::intersect(&prev, &level),
            });
        }
        acc.unwrap_or_default()
    }

    /// Like [`Self::root_candidates`], annotated with a per-candidate
    /// **work estimate**: `1 +` the sum, over all relations containing the
    /// root attribute, of the level-1 fanout of the trie node under that
    /// candidate (its number of distinct one-step extensions, an `O(1)`
    /// lookup from the precomputed counts). The fanout measures how wide
    /// the section `R_e[v]` opens up, which is what `Recursive-Join` pays
    /// for under root binding `v` — a far better cost proxy than "one
    /// candidate = one unit", which lets a single hot key pin a whole
    /// shard to one worker (Zipf-skewed data does exactly this).
    ///
    /// Candidates appear in the same sorted order as
    /// [`Self::root_candidates`]; weights are always `≥ 1`. Fanouts are
    /// summed with saturating arithmetic: an adversarially wide instance
    /// clamps a candidate's weight at `u64::MAX` instead of wrapping to a
    /// tiny value and degenerating the work-based shard plan.
    #[must_use]
    pub fn root_candidate_weights(&self) -> Vec<(Value, u64)> {
        let candidates = self.root_candidates();
        if candidates.is_empty() {
            return Vec::new();
        }
        let Some(&root_vertex) = self.plan.order.first() else {
            return Vec::new();
        };
        // Relations containing the root attribute with at least one more
        // level below it (an arity-1 trie has no level-1 fanout to read).
        let root_edges: Vec<usize> = self
            .plan
            .edge_vertices
            .iter()
            .enumerate()
            .filter(|(_, vs)| vs.first() == Some(&root_vertex) && vs.len() > 1)
            .map(|(e, _)| e)
            .collect();
        candidates
            .into_iter()
            .map(|v| {
                let fanout = root_edges
                    .iter()
                    .map(|&e| {
                        let trie = &self.tries[e];
                        trie.descend(trie.root(), v)
                            .map_or(0, |n| trie.distinct_count(n, 1) as u64)
                    })
                    .fold(0u64, u64::saturating_add);
                (v, fanout.saturating_add(1))
            })
            .collect()
    }

    /// [`Self::root_candidate_weights`], computed at most once per
    /// preparation and borrowed thereafter. The indexes never change after
    /// construction, so the weights can't go stale; the shard planner
    /// reads these on every submission of a cached prepared query.
    #[must_use]
    pub fn cached_root_weights(&self) -> &[(Value, u64)] {
        self.root_weights
            .get_or_init(|| self.root_candidate_weights())
    }

    /// Runs `Recursive-Join` restricted to `shard` (or unrestricted for
    /// `None`), returning the raw rows over the total order — one flat
    /// [`RowBuf`], rows back to back — plus the run's statistics. Does
    /// **not** short-circuit empty inputs or resolve covers — callers
    /// ([`Self::evaluate`], the `wcoj-service` pool) do that once up front.
    ///
    /// Requires a valid cover `x`; shards of one parallel run must all use
    /// the *same* cover so per-tuple size checks are consistent.
    #[must_use]
    pub fn run_shard(
        &self,
        x: &[f64],
        log2_bound: f64,
        shard: Option<RootShard>,
    ) -> (RowBuf, JoinStats) {
        let stats = JoinStats {
            algorithm_used: "nprr",
            log2_agm_bound: log2_bound,
            cover: x.to_vec(),
            ..JoinStats::default()
        };
        run_plan(&self.plan, &self.tries, x, shard, stats)
    }

    /// [`Self::assemble_slots`] with the run's statistics: the whole
    /// output of the slots a query ran, as a [`JoinOutput`].
    ///
    /// # Errors
    /// As [`Self::assemble_slots`].
    pub fn assemble(
        &self,
        slots: impl IntoIterator<Item = RowBuf>,
        stats: JoinStats,
    ) -> Result<JoinOutput, QueryError> {
        let relation = self.assemble_slots(slots)?;
        Ok(JoinOutput { relation, stats })
    }

    /// Moves raw total-order rows — one shard slot's, or consecutive
    /// slots' in slot order — into one relation over the output schema,
    /// sorted in schema order: the one assembly every way out of the
    /// engine takes ([`Self::evaluate`], a streamed slot, a merge of the
    /// remaining slots). `slots` may yield each slot as it settles: a
    /// plan whose total order is the schema copies it in right away.
    ///
    /// `Recursive-Join` emits each slot's rows strictly ascending in the
    /// total order, and slots partition the output by ascending root
    /// ranges (anchor sub-shards by ascending anchor ranges within one
    /// root value), so consecutive slots ascend strictly too. The plan
    /// knows the shortest prefix of the output schema whose removal from
    /// the total order leaves the rest of the schema in order, and how
    /// many leading attributes the two orders share. [`RowBuf::rekey`]
    /// reorders only the rows inside each run of that shared prefix — for
    /// the 4-cycle's (a, b, d, c), each (a, b) run by c — and distinct
    /// rows stay distinct, so nothing is deduplicated. When the total
    /// order is the output schema the rows are adopted as they are.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] (as a [`QueryError`]) if a slot's
    /// rows are not as wide as the total order.
    pub fn assemble_slots(
        &self,
        slots: impl IntoIterator<Item = RowBuf>,
    ) -> Result<Relation, QueryError> {
        let width = self.plan.order.len();
        let mut got = width;
        let mut slots = slots.into_iter().map_while(|s| {
            got = s.arity();
            (got == width).then_some(s)
        });
        let schema = self.q.output_schema();
        let relation = if width == 0 {
            // No attributes: the join of non-empty nullary relations is
            // the single empty tuple, if any shard produced it.
            if slots.all(|s| s.is_empty()) {
                Relation::empty(schema)
            } else {
                Relation::nullary_true()
            }
        } else {
            let plan = &self.plan;
            let rows = RowBuf::rekey(slots, &plan.columns, plan.prefix, plan.key_len);
            Relation::from_flat(schema, rows.into_data())?
        };
        if got != width {
            return Err(StorageError::ArityMismatch {
                expected: width,
                got,
            }
            .into());
        }
        Ok(relation)
    }

    /// `true` iff concatenating [`Self::assemble_slots`] relations of
    /// single slots in slot order reproduces the whole output
    /// **bit-identically, including row order**: the total order starts
    /// with the output schema's first `min(2, n)` attributes. Root slots
    /// cut the total order's first attribute and anchored sub-shards its
    /// second, so slots then follow each other in schema order, and each
    /// slot's assembly sorts the rows inside it. The plan picks its edge
    /// order to make this `true` whenever some order can
    /// ([`Self::edge_order`]): the triangle and every single-relation
    /// query adopt each slot's rows as the engine emitted them, and the
    /// 4-cycle's (a, b, d, c) re-keys each (a, b) run of a slot by c. When
    /// it is `false` (the star and the 2-star, whose center comes after
    /// its leaves under every edge order), a slot's assembly is sorted
    /// within the slot only, and a consumer assembles the slots together
    /// to get the output.
    #[must_use]
    pub fn slots_stream_sorted(&self) -> bool {
        self.plan.prefix >= SLOT_ATTRIBUTES.min(self.plan.order.len())
    }

    /// Evaluates with the given fractional cover, or the LP optimum when
    /// `None`. Only the `O(mn·∏N^x)` evaluation cost is paid here. This is
    /// the sequential NPRR pipeline — [`crate::join`] and
    /// [`super::join_nprr`] both end here — and its one empty-input
    /// short-circuit: an effectively empty relation empties the join
    /// (paper §2) with no cover resolved.
    ///
    /// # Errors
    /// [`QueryError::BadCover`] for invalid covers; LP errors when solving
    /// for the optimum.
    pub fn evaluate(&self, cover: Option<&[f64]>) -> Result<JoinOutput, QueryError> {
        if self.input_is_empty() {
            return Ok(JoinOutput {
                relation: Relation::empty(self.q.output_schema()),
                stats: JoinStats {
                    algorithm_used: "nprr",
                    ..JoinStats::default()
                },
            });
        }
        let (x, log2_bound) = self.resolve_cover(cover)?;
        let (rows, stats) = self.run_shard(&x, log2_bound, None);
        self.assemble([rows], stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{join, naive};
    use wcoj_storage::ops::reorder;
    use wcoj_storage::{DeltaRelation, Schema, Value};

    fn random_rel(seed: u64, attrs: &[u32], n: usize, dom: u64) -> Relation {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| attrs.iter().map(|_| Value(rng.gen_range(0..dom))).collect())
            .collect();
        Relation::from_rows(Schema::of(attrs), rows).unwrap()
    }

    #[test]
    fn prepared_matches_one_shot() {
        let rels = [
            random_rel(1, &[0, 1], 50, 8),
            random_rel(2, &[1, 2], 50, 8),
            random_rel(3, &[0, 2], 50, 8),
        ];
        let prepared = PreparedQuery::new(&rels).unwrap();
        let a = prepared.evaluate(None).unwrap();
        assert_eq!(a.relation, join(&rels).unwrap());
        assert_eq!(a.stats.algorithm_used, "nprr");
    }

    #[test]
    fn owned_and_shared_indexes_agree() {
        let rels = [
            random_rel(11, &[0, 1], 60, 7),
            random_rel(12, &[1, 2], 60, 7),
            random_rel(13, &[0, 2], 60, 7),
        ];
        let sorted = PreparedQuery::new(&rels).unwrap();
        let shared = PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap();
        let a = sorted.evaluate(None).unwrap();
        let b = shared.evaluate(None).unwrap();
        assert_eq!(a.relation, b.relation);
        assert_eq!(sorted.root_candidates(), shared.root_candidates());
    }

    #[test]
    fn repeated_evaluations_with_different_covers() {
        let rels = [
            random_rel(4, &[0, 1], 40, 6),
            random_rel(5, &[1, 2], 40, 6),
            random_rel(6, &[0, 2], 40, 6),
        ];
        let prepared = PreparedQuery::new(&rels).unwrap();
        let expect = naive::join(&rels);
        for cover in [
            None,
            Some(vec![1.0, 1.0, 1.0]),
            Some(vec![0.5, 0.5, 0.5]),
            Some(vec![1.0, 0.5, 0.5]),
        ] {
            let out = prepared.evaluate(cover.as_deref()).unwrap();
            let exp = reorder(&expect, out.relation.schema()).unwrap();
            assert_eq!(out.relation, exp, "cover {cover:?}");
        }
        // bad cover rejected without disturbing the preparation
        assert!(prepared.evaluate(Some(&[0.1, 0.1, 0.1])).is_err());
        assert!(prepared.evaluate(None).is_ok());
    }

    #[test]
    fn prepared_exposes_plan() {
        let rels = [
            random_rel(7, &[0, 1], 10, 4),
            random_rel(8, &[1, 2], 10, 4),
            random_rel(9, &[0, 2], 10, 4),
        ];
        let prepared = PreparedQuery::new(&rels).unwrap();
        assert_eq!(prepared.total_order().len(), 3);
        assert_eq!(prepared.query().relations().len(), 3);
    }

    #[test]
    fn empty_relation_short_circuits() {
        let rels = [
            random_rel(10, &[0, 1], 10, 4),
            Relation::empty(Schema::of(&[1, 2])),
        ];
        let prepared = PreparedQuery::new(&rels).unwrap();
        let out = prepared.evaluate(None).unwrap();
        assert!(out.relation.is_empty());
        assert_eq!(out.relation.arity(), 3);
    }

    #[test]
    fn root_candidates_intersect_level0() {
        // Total order for the triangle is (0, 1, 2): root attribute 0,
        // contained in R(0,1) and T(0,2) but not S(1,2).
        let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 9], &[2, 9], &[3, 9]]);
        let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[9, 9]]);
        let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[2, 9], &[3, 9], &[4, 9]]);
        let prepared = PreparedQuery::new(&[r, s, t]).unwrap();
        assert_eq!(prepared.total_order()[0], 0);
        // π₀(R) = {1,2,3}, π₀(T) = {2,3,4} → intersection {2,3}
        assert_eq!(prepared.root_candidates(), vec![Value(2), Value(3)]);
    }

    #[test]
    fn root_candidate_weights_reflect_fanout() {
        // Triangle total order is (0, 1, 2); R(0,1) and T(0,2) contain the
        // root attribute 0. Give root value 2 a much fatter section than
        // root value 3.
        let rels = || {
            [
                Relation::from_u32_rows(
                    Schema::of(&[0, 1]),
                    &[&[2, 10], &[2, 11], &[2, 12], &[2, 13], &[3, 10]],
                ),
                Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[10, 7]]),
                Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[2, 7], &[2, 8], &[3, 7]]),
            ]
        };
        let prepared = PreparedQuery::new(&rels()).unwrap();
        assert_eq!(prepared.total_order()[0], 0);
        let weights = prepared.root_candidate_weights();
        assert_eq!(
            weights.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            prepared.root_candidates(),
            "aligned with root_candidates"
        );
        // v=2: 4 extensions in R (2 → {10,11,12,13}) plus 2 in T; v=3: 1
        // in R plus 1 in T. Weight = 1 + fanout.
        assert_eq!(weights, vec![(Value(2), 7), (Value(3), 3)]);
        // The served backend, shared indexes, agrees (if the weights
        // diverged, so would shard plans and task budgets).
        let rels = rels();
        let shared = PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap();
        assert_eq!(shared.root_candidate_weights(), weights);
        // the memoized view is identical and stable across calls
        assert_eq!(prepared.cached_root_weights(), weights.as_slice());
        assert_eq!(prepared.cached_root_weights(), weights.as_slice());
    }

    #[test]
    fn root_candidate_weights_differential_across_backends() {
        // Random instances: Work-split weights must be identical across
        // owned and shared indexes, or shard plans silently diverge.
        for seed in 0..8u64 {
            let rels = [
                random_rel(seed * 3 + 100, &[0, 1], 70, 9),
                random_rel(seed * 3 + 101, &[1, 2], 70, 9),
                random_rel(seed * 3 + 102, &[0, 2], 70, 9),
            ];
            let flat = PreparedQuery::new(&rels).unwrap();
            let shared = PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap();
            let want = shared.root_candidate_weights();
            assert_eq!(flat.root_candidate_weights(), want, "seed {seed}");
            assert_eq!(flat.cached_root_weights(), want.as_slice(), "seed {seed}");
            // anchor candidates agree for every root candidate too
            for &(v, _) in &want {
                assert_eq!(
                    flat.anchor_candidates(v),
                    shared.anchor_candidates(v),
                    "seed {seed}, root {v:?}"
                );
            }
        }
    }

    #[test]
    fn delta_backend_matches_flat_over_materialized() {
        // A delta-backed preparation (stale bases in the query, each
        // relation's merged index, merged-view sizes) must be
        // bit-identical to a batch FlatIndex preparation over the
        // materialized relations: same output, same root weights (shard
        // plans), same cover bound.
        for seed in 0..4u64 {
            let bases = [
                random_rel(seed * 7 + 200, &[0, 1], 60, 7),
                random_rel(seed * 7 + 201, &[1, 2], 60, 7),
                random_rel(seed * 7 + 202, &[0, 2], 60, 7),
            ];
            let mut deltas: Vec<DeltaRelation> =
                bases.iter().cloned().map(DeltaRelation::new).collect();
            for (i, d) in deltas.iter_mut().enumerate() {
                let extra = random_rel(seed * 7 + 210 + i as u64, &[0, 1], 25, 7);
                let rows: Vec<Vec<Value>> = extra.iter_rows().map(<[Value]>::to_vec).collect();
                d.insert_rows(&rows[..rows.len() / 2]).unwrap();
                d.delete_rows(&rows[rows.len() / 3..]).unwrap();
            }
            let merged: Vec<Relation> = deltas.iter().map(DeltaRelation::materialize).collect();
            let flat = PreparedQuery::new(&merged).unwrap();

            // Stale bases inside the shared query; indexes serve the view.
            let stale: Vec<Relation> = deltas.iter().map(|d| (**d.base()).clone()).collect();
            let q = Arc::new(JoinQuery::new(&stale).unwrap());
            let sizes: Vec<usize> = deltas.iter().map(DeltaRelation::len).collect();
            let delta_prep = PreparedQuery::<Arc<FlatIndex>>::from_shared(
                Arc::clone(&q),
                Some(sizes),
                |i, order| deltas[i].index(order),
            )
            .unwrap();

            let a = flat.evaluate(None).unwrap();
            let b = delta_prep.evaluate(None).unwrap();
            assert_eq!(a.relation, b.relation, "seed {seed}");
            assert_eq!(
                flat.root_candidate_weights(),
                delta_prep.root_candidate_weights(),
                "seed {seed}: shard-plan inputs diverge"
            );
            let (_, bound_a) = flat.resolve_cover(None).unwrap();
            let (_, bound_b) = delta_prep.resolve_cover(None).unwrap();
            assert!((bound_a - bound_b).abs() < 1e-12, "seed {seed}");
            assert_eq!(flat.input_is_empty(), delta_prep.input_is_empty());
        }
    }

    #[test]
    fn effective_sizes_short_circuit_a_delta_emptied_input() {
        // Base is non-empty, but deletions empty the view: the prepared
        // query must short-circuit on effective sizes, not base sizes.
        let base = random_rel(300, &[0, 1], 10, 4);
        let rows: Vec<Vec<Value>> = base.iter_rows().map(<[Value]>::to_vec).collect();
        let mut d = DeltaRelation::new(base.clone());
        d.delete_rows(&rows).unwrap();
        assert_eq!(d.len(), 0);
        let other = random_rel(301, &[1, 2], 10, 4);
        let deltas = [d, DeltaRelation::new(other.clone())];
        let stale = [base, other];
        let q = Arc::new(JoinQuery::new(&stale).unwrap());
        let sizes: Vec<usize> = deltas.iter().map(DeltaRelation::len).collect();
        let prep = PreparedQuery::<Arc<FlatIndex>>::from_shared(q, Some(sizes), |i, order| {
            deltas[i].index(order)
        })
        .unwrap();
        assert!(prep.input_is_empty());
        let out = prep.evaluate(None).unwrap();
        assert!(out.relation.is_empty());
    }

    #[test]
    fn resolve_cover_memoizes_the_lp_optimum() {
        let rels = [
            random_rel(30, &[0, 1], 40, 6),
            random_rel(31, &[1, 2], 40, 6),
            random_rel(32, &[0, 2], 40, 6),
        ];
        let prepared = PreparedQuery::new(&rels).unwrap();
        let (x1, b1) = prepared.resolve_cover(None).unwrap();
        let (x2, b2) = prepared.resolve_cover(None).unwrap();
        assert_eq!(x1, x2);
        assert!((b1 - b2).abs() < 1e-12);
        // a user-supplied cover bypasses (and does not disturb) the memo
        let (xu, _) = prepared.resolve_cover(Some(&[1.0, 1.0, 1.0])).unwrap();
        assert_eq!(xu, vec![1.0, 1.0, 1.0]);
        let (x3, _) = prepared.resolve_cover(None).unwrap();
        assert_eq!(x1, x3);
    }

    #[test]
    fn anchor_candidates_intersect_level1_slices() {
        use crate::nprr::AnchorRange;
        // Triangle total order is (0, 1, 2): root attribute 0 (position 0),
        // anchor attribute 1 (position 1). R(0,1)'s trie starts
        // (root, anchor); S(1,2)'s trie starts with the anchor; T(0,2)
        // does not constrain the anchor level at all.
        let r = Relation::from_u32_rows(
            Schema::of(&[0, 1]),
            &[&[2, 10], &[2, 11], &[2, 12], &[3, 10]],
        );
        let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[10, 7], &[11, 8], &[13, 9]]);
        let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[2, 7], &[2, 8], &[3, 7]]);
        let rels = [r, s, t];
        let prepared = PreparedQuery::new(&rels).unwrap();
        assert_eq!(prepared.total_order()[..2], [0, 1]);
        // under root 2: π₁(R[2,·]) = {10,11,12}, π₁(S) = {10,11,13}
        assert_eq!(
            prepared.anchor_candidates(Value(2)),
            vec![Value(10), Value(11)]
        );
        assert_eq!(prepared.anchor_candidates(Value(3)), vec![Value(10)]);
        // absent root value: empty section, no candidates
        assert!(prepared.anchor_candidates(Value(99)).is_empty());
        // shared indexes agree
        let shared = PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap();
        assert_eq!(
            shared.anchor_candidates(Value(2)),
            prepared.anchor_candidates(Value(2))
        );
        // a single-attribute order has no anchor level
        let unary = PreparedQuery::new(&[
            Relation::from_u32_rows(Schema::of(&[0]), &[&[1], &[2]]),
            Relation::from_u32_rows(Schema::of(&[0]), &[&[2], &[3]]),
        ])
        .unwrap();
        assert!(unary.anchor_candidates(Value(2)).is_empty());
        // anchored shards partition the hot root value's rows exactly
        let prepared = PreparedQuery::new(&rels).unwrap();
        let (x, b) = prepared.resolve_cover(None).unwrap();
        let (all, _) = prepared.run_shard(&x, b, Some(RootShard::range(Value(2), Value(2))));
        let lo_half = RootShard {
            lo: Value(2),
            hi: Value(2),
            anchor: Some(AnchorRange {
                lo: Value(u64::MIN),
                hi: Value(10),
            }),
        };
        let hi_half = RootShard {
            lo: Value(2),
            hi: Value(2),
            anchor: Some(AnchorRange {
                lo: Value(11),
                hi: Value(u64::MAX),
            }),
        };
        let (lo_rows, _) = prepared.run_shard(&x, b, Some(lo_half));
        let (hi_rows, _) = prepared.run_shard(&x, b, Some(hi_half));
        for row in lo_rows.rows() {
            assert!(hi_rows.rows().all(|r| r != row), "sub-shards disjoint");
        }
        let mut merged: Vec<&[Value]> = lo_rows.rows().chain(hi_rows.rows()).collect();
        let mut expect: Vec<&[Value]> = all.rows().collect();
        merged.sort_unstable();
        expect.sort_unstable();
        assert_eq!(merged, expect, "sub-shards union to the root value's rows");
    }

    #[test]
    fn slot_assembly_concatenates_to_the_output_when_order_is_canonical() {
        // A single-relation "join" keeps the total order canonical
        // (attribute 0 first), so slot-order concatenation of per-slot
        // assemblies must be bit-identical to the full assembled output.
        let rels = [random_rel(40, &[0, 1], 120, 16)];
        let prepared = PreparedQuery::new(&rels).unwrap();
        assert!(prepared.slots_stream_sorted());
        let full = prepared.evaluate(None).unwrap().relation;
        let (x, b) = prepared.resolve_cover(None).unwrap();
        let cands = prepared.root_candidates();
        assert!(cands.len() >= 4, "enough root values to shard");
        // Three slots in ascending root order with arbitrary cut points.
        let cuts = [cands[cands.len() / 3], cands[2 * cands.len() / 3]];
        let shards = [
            RootShard::range(Value(u64::MIN), cuts[0]),
            RootShard::range(Value(cuts[0].0 + 1), cuts[1]),
            RootShard::range(Value(cuts[1].0 + 1), Value(u64::MAX)),
        ];
        let mut streamed = Relation::empty(full.schema().clone());
        for shard in shards {
            let (rows, _) = prepared.run_shard(&x, b, Some(shard));
            let slot = prepared.assemble_slots(vec![rows]).unwrap();
            assert_eq!(slot.schema(), full.schema());
            for row in slot.iter_rows() {
                streamed.push_row(row).unwrap();
            }
        }
        // Plain concatenation — no global re-sort — matches exactly.
        assert_eq!(streamed, full);
    }

    #[test]
    fn slot_assembly_needs_a_merge_when_order_is_not_canonical() {
        // The star R(0,1) S(0,2) T(0,3) binds its center after the leaves
        // under every edge order, so its total order is (1, 2, 0, 3):
        // slots stream in root-attribute-major order, which is NOT the
        // output's lex order — the predicate must say so. A buffered merge
        // of the slot relations (push + sort_dedup) reproduces the output,
        // and so does assembling the slots' raw rows together.
        let rels = [
            random_rel(41, &[0, 1], 60, 8),
            random_rel(42, &[0, 2], 60, 8),
            random_rel(43, &[0, 3], 60, 8),
        ];
        let prepared = PreparedQuery::new(&rels).unwrap();
        assert_eq!(prepared.edge_order(), [0, 1, 2], "input order kept");
        assert_eq!(prepared.total_order()[0], 1, "root attribute is 1");
        assert!(!prepared.slots_stream_sorted());
        let full = prepared.evaluate(None).unwrap().relation;
        let (x, b) = prepared.resolve_cover(None).unwrap();
        let cands = prepared.root_candidates();
        assert!(!cands.is_empty());
        let mid = cands[cands.len() / 2];
        let mut merged = Relation::empty(full.schema().clone());
        let mut slots = Vec::new();
        for shard in [
            RootShard::range(Value(u64::MIN), mid),
            RootShard::range(Value(mid.0 + 1), Value(u64::MAX)),
        ] {
            let (rows, _) = prepared.run_shard(&x, b, Some(shard));
            let slot = prepared.assemble_slots(vec![rows.clone()]).unwrap();
            for row in slot.iter_rows() {
                merged.push_row(row).unwrap();
            }
            slots.push(rows);
        }
        assert_ne!(merged, full, "slot relations do not concatenate");
        merged.sort_dedup();
        assert_eq!(merged, full);
        assert_eq!(prepared.assemble_slots(slots).unwrap(), full);
    }

    #[test]
    fn sharded_runs_union_to_full_output() {
        let rels = [
            random_rel(20, &[0, 1], 80, 10),
            random_rel(21, &[1, 2], 80, 10),
            random_rel(22, &[0, 2], 80, 10),
        ];
        let prepared = PreparedQuery::new(&rels).unwrap();
        let (x, b) = prepared.resolve_cover(None).unwrap();
        let (all_rows, _) = prepared.run_shard(&x, b, None);
        // Split the root domain at an arbitrary candidate boundary.
        let cands = prepared.root_candidates();
        assert!(!cands.is_empty());
        let mid = cands[cands.len() / 2];
        let low = prepared.run_shard(&x, b, Some(RootShard::range(Value(u64::MIN), mid)));
        let high = prepared.run_shard(
            &x,
            b,
            Some(RootShard::range(Value(mid.0 + 1), Value(u64::MAX))),
        );
        let mut merged: Vec<&[Value]> = low.0.rows().chain(high.0.rows()).collect();
        let mut expect: Vec<&[Value]> = all_rows.rows().collect();
        merged.sort_unstable();
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }
}
