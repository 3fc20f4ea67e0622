//! # wcoj-exec — root-domain shard planner for `Recursive-Join`
//!
//! The NPRR `Recursive-Join` (paper §5.2, Procedure 5) is embarrassingly
//! parallel at the root of the total order. The paper's step 2a observes
//! that for a tuple prefix `t`, the trie subtree under the branch for `t`
//! **is** the search tree of the section `Rₑ[t]`; in particular, the
//! sub-computations of `Recursive-Join` for two different values `a ≠ b`
//! of the *first* attribute in the total order touch disjoint subtrees of
//! every index and produce disjoint sets of output tuples (every output
//! tuple binds the root attribute exactly once). Sub-joins for disjoint
//! value ranges of the root attribute are therefore fully independent: no
//! shared mutable state, no coordination, and a deterministic merge by
//! simple concatenation in root-value order.
//!
//! This crate turns that observation into a **plan**; it runs nothing and
//! spawns no threads. One planner, [`plan_shards`], plans every query the
//! service runs: it walks level 0 of the prepared [`SearchTree`] indexes
//! ([`PreparedQuery::cached_root_weights`]: the root candidates with their
//! level-1 fanout as estimated work) and splits them into contiguous
//! ranges of roughly equal work. The plan is **two-level**: a heavy root
//! value is first isolated, and one heavy enough to span several work
//! targets is further broken into *anchor sub-shards* — [`RootShard`]s
//! carrying an [`AnchorRange`] over the level-1 attribute
//! ([`ExecConfig::heavy_split_factor`]) — so even a single hot key spreads
//! across workers instead of pinning one. The ranges jointly cover the
//! whole value domain (root × anchor), so correctness never depends on
//! the candidate computation being tight.
//!
//! The `wcoj-service` shared pool executes the plan: one task per shard
//! ([`PreparedQuery::run_shard`]), the slots' raw rows handed in slot
//! order to [`PreparedQuery::assemble_slots`], which re-keys them into
//! schema order (`RowBuf::rekey`), so the output is bit-identical to
//! `join_nprr`'s.
//!
//! The crate also holds the warn-once parsing of `WCOJ_*` environment
//! knobs shared by `wcoj-service` and `wcoj-server` ([`read_env_usize`],
//! [`note_malformed_env`]).

use std::sync::Mutex;

use wcoj_core::nprr::{AnchorRange, PreparedQuery, RootShard};
use wcoj_storage::{SearchTree, Value};

/// Per-query knobs of the shard planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Minimum number of root-attribute candidate values per shard; the
    /// planner never splits finer than this (oversplitting tiny domains
    /// only buys scheduling overhead).
    pub shard_min_size: usize,
    /// Intra-value parallelism for heavy root values: the maximum number
    /// of anchor sub-shards one root value may be broken into. A root
    /// value whose estimated weight spans `s ≥ 2` per-shard work targets
    /// is split into `min(s, heavy_split_factor)` sub-shards over the
    /// level-1 anchor domain ([`PreparedQuery::anchor_candidates`]), so a
    /// single hot key no longer pins one worker while the rest of the pool
    /// drains. `0` or `1` disables intra-value splitting (heavy values
    /// fall back to singleton-shard isolation).
    pub heavy_split_factor: usize,
}

/// Default [`ExecConfig::heavy_split_factor`]: twice the [`OVERSPLIT`]
/// factor, so even a query whose whole root domain is one hot value
/// yields enough sub-shards to keep a small pool busy with stealing room.
pub const HEAVY_SPLIT_DEFAULT: usize = OVERSPLIT * 2;

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shard_min_size: 16,
            heavy_split_factor: HEAVY_SPLIT_DEFAULT,
        }
    }
}

/// Keys of `WCOJ_*` environment knobs whose values were malformed, in the
/// order first seen. Each key is warned about (on stderr) exactly once per
/// process; this registry lets tests and diagnostics observe that a knob
/// silently fell back to its default.
static MALFORMED_ENV: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Records (and warns once per key about) a malformed environment knob —
/// called by [`read_env_usize`], and directly
/// for knobs whose values are not plain `usize`s (e.g. `wcoj-server`'s
/// `WCOJ_BIND` socket address), so every `WCOJ_*` knob shares one
/// warn-once registry.
pub fn note_malformed_env(key: &str, problem: &str) {
    let mut seen = MALFORMED_ENV
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if seen.iter().any(|k| k == key) {
        return;
    }
    seen.push(key.to_owned());
    eprintln!("wcoj: ignoring {key}: {problem}; using the default");
}

/// Environment knobs that have been warned about as malformed so far (one
/// entry per key, first-seen order). A `WCOJ_QUEUE_DEPTH=eight` typo does
/// not revert to the default with *no* signal: the first read warns on
/// stderr and the key shows up here.
#[must_use]
pub fn malformed_env_warnings() -> Vec<String> {
    MALFORMED_ENV
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Reads a `usize` environment knob. Unset → `None`; malformed (not a
/// non-negative integer) → `None` **plus** a one-time stderr warning and an
/// entry in [`malformed_env_warnings`], so a typo like
/// `WCOJ_QUEUE_DEPTH=eight` cannot silently revert to defaults. Shared by
/// every numeric `WCOJ_*` knob (`wcoj-service`'s `WCOJ_QUEUE_DEPTH`,
/// `wcoj-server`'s `WCOJ_CONN_THREADS`, `WCOJ_KEEP_ALIVE_MAX`, …).
#[must_use]
pub fn read_env_usize(key: &str) -> Option<usize> {
    let raw = std::env::var(key).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            note_malformed_env(key, &format!("value {raw:?} is not a non-negative integer"));
            None
        }
    }
}

/// Total estimated work of a weight list, accumulated in `u128` with
/// saturating adds so the per-shard target math is monotone even for
/// adversarial near-`u64::MAX` per-candidate weights (a wrapped total
/// would collapse the plan into one degenerate shard).
fn saturating_total(weights: &[(Value, u64)]) -> u128 {
    weights
        .iter()
        .fold(0u128, |acc, &(_, w)| acc.saturating_add(u128::from(w)))
}

/// One planned group of root candidates: the exclusive end index of its
/// candidate run, plus — for an intra-value split of a heavy candidate —
/// the anchor-chunk boundaries (first anchor candidate of every chunk
/// after the first).
struct GroupSpec {
    end: usize,
    anchor_bounds: Option<Vec<Value>>,
}

impl GroupSpec {
    fn tasks(&self) -> usize {
        self.anchor_bounds.as_ref().map_or(1, |b| b.len() + 1)
    }
}

/// Work-based shard planning over the sorted `(candidate, weight)` list,
/// in two levels.
///
/// **Level 0** splits the candidates into contiguous inclusive ranges of
/// roughly equal **total weight** (each group targets
/// `⌈Σw / min(max_shards, ⌊|weights| / min_size⌋)⌉`), jointly covering
/// the entire value domain. A *heavy* candidate — one whose weight alone
/// reaches the target — is isolated into a singleton range so a hot key
/// never drags its neighbours onto the same worker. `max_shards` sets the
/// weight target, not a hard cap: heavy-hitter isolation can emit a few
/// more, smaller, shards — extra entries for the pool to steal, never
/// extra parallelism. The level-0 groups stay bounded even when every
/// candidate is heavy: at most `max_shards` singletons exist and each
/// light group (other than a tail flushed by a heavy neighbour) carries a
/// full target, so there are at most `2 × max_shards + 1`.
///
/// **Level 1** adds intra-value parallelism: a root value whose weight
/// spans `s ≥ 2` per-shard work targets (`⌈Σw / max_shards⌉`) is broken
/// into `min(s, heavy_split, |anchor slice|)` *sub-shards* —
/// [`RootShard`]s sharing the value's root range whose [`AnchorRange`]s
/// partition the level-1 anchor domain at boundaries drawn from
/// `anchor_slice(value)` (the sorted anchor candidates under that root
/// value, [`PreparedQuery::anchor_candidates`]). The sub-shards jointly
/// cover the root range × the whole anchor domain `[0, u64::MAX]` exactly
/// once, so their union is bit-identical to the unsplit shard's output
/// while a hot key occupies up to `heavy_split` workers instead of one.
/// Sub-split sizing deliberately ignores the candidate-count floor: a root
/// domain of a *single* candidate (the extreme the planner exists for)
/// can still fill the whole pool. Splittable values each span ≥ 2 targets,
/// so their sub-shards sum to ≤ `max_shards` and the whole plan never
/// exceeds `3 × max_shards + 1` entries — pinned by
/// `all_heavy_degenerate_plans_stay_bounded`. `heavy_split ≤ 1` disables
/// level 1 (`anchor_slice` is then never called).
///
/// Returns an empty plan when nothing can be split at either level.
fn plan_weighted_shards(
    weights: &[(Value, u64)],
    max_shards: usize,
    min_size: usize,
    heavy_split: usize,
    anchor_slice: impl Fn(Value) -> Vec<Value>,
) -> Vec<RootShard> {
    let min_size = min_size.max(1);
    if weights.is_empty() || max_shards <= 1 {
        return Vec::new();
    }
    let total = saturating_total(weights);
    // Sub-split target: what a full complement of shards would each carry.
    let target_split = total.div_ceil(max_shards as u128).max(1);
    // Level-0 grouping respects the candidate floor; a domain too small
    // for level-0 splitting becomes one group (sub-splits can still
    // multiply it).
    let capped = max_shards.min(weights.len() / min_size);
    let target_group = if capped >= 2 {
        total.div_ceil(capped as u128).max(1)
    } else {
        u128::MAX
    };

    let mut groups: Vec<GroupSpec> = Vec::new();
    let mut acc: u128 = 0;
    let mut open = false; // does an unclosed group precede index i?
    for (i, &(v, w)) in weights.iter().enumerate() {
        let w = u128::from(w);
        // How many work targets does this one candidate span?
        let split_ways = usize::try_from(w / target_split).unwrap_or(usize::MAX);
        let k = heavy_split.min(split_ways);
        if k >= 2 {
            // Splittable heavy hitter: close the open group, then carve
            // the candidate into ≤ k anchor sub-shards.
            if open {
                groups.push(GroupSpec {
                    end: i,
                    anchor_bounds: None,
                });
            }
            let slice = anchor_slice(v);
            let k = k.min(slice.len());
            let anchor_bounds = if k >= 2 {
                let chunk = slice.len().div_ceil(k);
                Some(slice.iter().copied().skip(chunk).step_by(chunk).collect())
            } else {
                None // no anchor domain to split on: plain singleton
            };
            groups.push(GroupSpec {
                end: i + 1,
                anchor_bounds,
            });
            acc = 0;
            open = false;
        } else if w >= target_group {
            // Heavy but not splittable: isolate it as before.
            if open {
                groups.push(GroupSpec {
                    end: i,
                    anchor_bounds: None,
                });
            }
            groups.push(GroupSpec {
                end: i + 1,
                anchor_bounds: None,
            });
            acc = 0;
            open = false;
        } else {
            acc = acc.saturating_add(w);
            open = true;
            if acc >= target_group {
                groups.push(GroupSpec {
                    end: i + 1,
                    anchor_bounds: None,
                });
                acc = 0;
                open = false;
            }
        }
    }
    if open {
        groups.push(GroupSpec {
            end: weights.len(),
            anchor_bounds: None,
        });
    }
    if groups.iter().map(GroupSpec::tasks).sum::<usize>() <= 1 {
        return Vec::new();
    }

    // Emit gap-free inclusive root ranges (each group owns the gap up to
    // the next group's first candidate, so the plan covers [0, u64::MAX]
    // no matter how loose the candidates); a sub-split group emits one
    // shard per anchor chunk, all sharing the group's root range, their
    // anchor ranges jointly covering [0, u64::MAX].
    let mut out = Vec::with_capacity(groups.iter().map(GroupSpec::tasks).sum());
    let mut lo = Value(u64::MIN);
    for (g, group) in groups.iter().enumerate() {
        let hi = if g + 1 == groups.len() {
            Value(u64::MAX)
        } else {
            Value(weights[group.end].0 .0 - 1)
        };
        match &group.anchor_bounds {
            None => out.push(RootShard::range(lo, hi)),
            Some(bounds) => {
                let mut alo = Value(u64::MIN);
                for &b in bounds {
                    out.push(RootShard {
                        lo,
                        hi,
                        anchor: Some(AnchorRange {
                            lo: alo,
                            // bounds are anchor candidates at index ≥ 1 of
                            // a sorted distinct slice, so b.0 ≥ 1
                            hi: Value(b.0 - 1),
                        }),
                    });
                    alo = b;
                }
                out.push(RootShard {
                    lo,
                    hi,
                    anchor: Some(AnchorRange {
                        lo: alo,
                        hi: Value(u64::MAX),
                    }),
                });
            }
        }
        lo = Value(hi.0.wrapping_add(1));
    }
    out
}

/// Shards planned per worker: oversplitting keeps a pool busy when value
/// ranges carry skewed amounts of work even after work-based sizing. The
/// service plans `workers × OVERSPLIT` shards per query.
pub const OVERSPLIT: usize = 4;

/// The shard planner: the schedulable task list for one query — the unit
/// the shared-pool `wcoj-service` scheduler executes, one task per entry,
/// in slot order. `max_shards` ranges of equal estimated work are the
/// sizing target (isolating or sub-splitting heavy hitters may exceed it,
/// bounded by `3 × max_shards + 1`); level-0 domains are never split finer
/// than `shard_min_size` candidates per shard. Intra-value sub-shards need
/// an anchor level to split on, so they are only planned for total orders
/// of ≥ 2 attributes.
///
/// * **Empty** — a zero-shard plan: no root value survives the level-0
///   intersection of a non-nullary query, so the join is empty and needs
///   no engine run at all.
/// * **`[None]`** — the domain is too small to split: one unrestricted
///   run (nullary queries always land here: they have no root attribute).
/// * Otherwise one `Some(shard)` per planned range, ≥ 2 of them.
///
/// Deterministic for a given preparation, `max_shards` and `cfg`, so a
/// differential test can re-run the layout shard by shard.
#[must_use]
pub fn plan_shards<S: SearchTree>(
    prepared: &PreparedQuery<S>,
    max_shards: usize,
    cfg: &ExecConfig,
) -> Vec<Option<RootShard>> {
    // Memoized on the preparation: repeat submissions of a cached
    // PreparedQuery skip the level-0 weight sweep.
    let weights = prepared.cached_root_weights();
    if weights.is_empty() && !prepared.total_order().is_empty() {
        return Vec::new();
    }
    let heavy_split = if prepared.total_order().len() >= 2 {
        cfg.heavy_split_factor
    } else {
        0
    };
    let shards = plan_weighted_shards(weights, max_shards, cfg.shard_min_size, heavy_split, |v| {
        prepared.anchor_candidates(v)
    });
    if shards.is_empty() {
        vec![None]
    } else {
        shards.into_iter().map(Some).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wcoj_core::{join, JoinOutput, JoinStats};
    use wcoj_storage::{FlatIndex, Relation, Schema};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    /// A config that lets tiny test domains split.
    fn fine() -> ExecConfig {
        ExecConfig {
            shard_min_size: 1,
            ..ExecConfig::default()
        }
    }

    /// Level-0 grouping alone (no intra-value splitting).
    fn level0(weights: &[(Value, u64)], max_shards: usize, min_size: usize) -> Vec<RootShard> {
        plan_weighted_shards(weights, max_shards, min_size, 0, |_| unreachable!())
    }

    /// The planned ranges of a task list (none for a single-run plan).
    fn ranges(tasks: &[Option<RootShard>]) -> Vec<RootShard> {
        tasks.iter().flatten().copied().collect()
    }

    /// What the service does with a plan, minus its threads: every task
    /// run in slot order, stats absorbed, the slots assembled together.
    fn run_plan<S: SearchTree>(
        prepared: &PreparedQuery<S>,
        tasks: &[Option<RootShard>],
        cover: Option<&[f64]>,
    ) -> JoinOutput {
        let (x, log2_bound) = prepared.resolve_cover(cover).unwrap();
        let mut slots = Vec::with_capacity(tasks.len());
        let mut stats = JoinStats {
            log2_agm_bound: log2_bound,
            cover: x.clone(),
            ..JoinStats::default()
        };
        for &task in tasks {
            let (rows, run) = prepared.run_shard(&x, log2_bound, task);
            slots.push(rows);
            stats.absorb(&run);
        }
        prepared.assemble(slots, stats).unwrap()
    }

    /// Plans `rels` for a `workers`-thread pool under `cfg` and checks the
    /// merged shard runs against sequential `join_nprr`, rows and order.
    fn assert_matches_sequential(
        rels: &[Relation],
        workers: usize,
        cfg: &ExecConfig,
        ctx: &str,
    ) -> JoinOutput {
        let seq = join(rels).unwrap();
        let prepared = PreparedQuery::new(rels).unwrap();
        let tasks = plan_shards(&prepared, workers * OVERSPLIT, cfg);
        let out = run_plan(&prepared, &tasks, None);
        assert_eq!(out.relation, seq, "{ctx}");
        out
    }

    #[test]
    fn plan_covers_domain_and_respects_floor() {
        let cands: Vec<(Value, u64)> = (0..40u64).map(|i| (Value(i * 3), 1)).collect();
        let plan = level0(&cands, 4, 1);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0].lo, Value(0));
        assert_eq!(plan.last().unwrap().hi, Value(u64::MAX));
        for w in plan.windows(2) {
            assert_eq!(w[1].lo.0, w[0].hi.0 + 1, "gap-free");
        }
        // each shard owns the gap up to the next shard's first candidate
        assert_eq!(plan[1].lo, Value(30));
        // floor: 40 candidates at min 30 per shard → no useful split
        assert!(level0(&cands, 4, 30).is_empty());
        assert!(level0(&[], 4, 1).is_empty());
        assert!(level0(&cands, 1, 1).is_empty());
    }

    #[test]
    fn weighted_plan_balances_work_and_isolates_heavy_keys() {
        // 9 unit-weight candidates plus one hot key carrying most of the
        // total work.
        let mut weights: Vec<(Value, u64)> = (0..10u64).map(|i| (Value(i * 2), 1)).collect();
        weights[4].1 = 100; // Value(8) is the heavy hitter
        let plan = level0(&weights, 4, 1);
        assert!(plan.len() >= 3, "hot key plus its flanks: {plan:?}");
        // covering and gap-free
        assert_eq!(plan[0].lo, Value(0));
        assert_eq!(plan.last().unwrap().hi, Value(u64::MAX));
        for w in plan.windows(2) {
            assert_eq!(w[1].lo.0, w[0].hi.0 + 1, "gap-free");
        }
        // the heavy candidate sits alone in its shard
        let hot = plan
            .iter()
            .find(|s| s.contains(Value(8)))
            .expect("some shard owns the hot key");
        let owned: Vec<Value> = weights
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| hot.contains(v))
            .collect();
        assert_eq!(owned, vec![Value(8)], "hot key isolated: {plan:?}");

        // uniform weights ≈ count-based chunks
        let uniform: Vec<(Value, u64)> = (0..40u64).map(|i| (Value(i), 1)).collect();
        let plan = level0(&uniform, 4, 1);
        assert_eq!(plan.len(), 4);

        // degenerate inputs
        assert!(level0(&[], 4, 1).is_empty());
        assert!(level0(&uniform, 1, 1).is_empty());
        assert!(level0(&uniform, 4, 30).is_empty());
    }

    /// Every plan is a gap-free cover of root × anchor space: root ranges
    /// tile `[0, u64::MAX]`, and within a run of sub-shards sharing a root
    /// range the anchor ranges tile `[0, u64::MAX]` too.
    fn assert_covers_domain(plan: &[RootShard], ctx: &str) {
        assert!(!plan.is_empty(), "{ctx}");
        assert_eq!(plan[0].lo, Value(0), "{ctx}");
        assert_eq!(plan.last().unwrap().hi, Value(u64::MAX), "{ctx}");
        let mut i = 0;
        while i < plan.len() {
            let s = plan[i];
            let mut j = i + 1;
            if s.anchor.is_some() {
                let mut alo = 0u64;
                while j < plan.len() && plan[j].lo == s.lo {
                    j += 1;
                }
                assert!(j - i >= 2, "{ctx}: a sub-shard run has ≥ 2 entries");
                for sub in &plan[i..j] {
                    assert_eq!(sub.hi, s.hi, "{ctx}: run shares the root range");
                    let a = sub.anchor.expect("run fully anchored");
                    assert_eq!(a.lo.0, alo, "{ctx}: anchor gap-free");
                    assert!(a.lo <= a.hi, "{ctx}: anchor range non-empty");
                    alo = a.hi.0.wrapping_add(1);
                }
                assert_eq!(
                    plan[j - 1].anchor.unwrap().hi,
                    Value(u64::MAX),
                    "{ctx}: anchor cover complete"
                );
            }
            if j < plan.len() {
                assert_eq!(
                    plan[j].lo.0,
                    s.hi.0.wrapping_add(1),
                    "{ctx}: root ranges gap-free"
                );
            }
            i = j;
        }
    }

    #[test]
    fn single_hot_key_splits_into_anchor_sub_shards() {
        // A root domain of ONE candidate carrying all the work: the
        // pre-intra-value planner had no parallelism to offer here at all.
        let weights = vec![(Value(7), 1_000_000u64)];
        let anchors: Vec<Value> = (0..100u64).map(|a| Value(a * 5)).collect();
        let plan = plan_weighted_shards(&weights, 16, 16, 8, |v| {
            assert_eq!(v, Value(7));
            anchors.clone()
        });
        assert_eq!(plan.len(), 8, "hot key split heavy_split ways: {plan:?}");
        assert_covers_domain(&plan, "single hot key");
        for sub in &plan {
            assert_eq!((sub.lo, sub.hi), (Value(0), Value(u64::MAX)));
            assert!(sub.anchor.is_some());
        }
        // every anchor candidate lands in exactly one sub-shard
        for &a in &anchors {
            assert_eq!(
                plan.iter().filter(|s| s.anchor_contains(a)).count(),
                1,
                "anchor {a:?} covered exactly once"
            );
        }
        // factor ≤ 1 disables intra-value splitting entirely
        for factor in [0, 1] {
            let plan = plan_weighted_shards(&weights, 16, 16, factor, |_| anchors.clone());
            assert!(plan.is_empty(), "factor {factor} defers to level-0 plan");
        }
        // a hot key with a single anchor candidate cannot be split
        let plan = plan_weighted_shards(&weights, 16, 16, 8, |_| vec![Value(3)]);
        assert!(plan.is_empty(), "one anchor candidate: nothing to split");
    }

    #[test]
    fn hot_key_among_light_neighbours_gets_sub_shards() {
        // 30 unit-weight candidates plus one dominating hot key.
        let mut weights: Vec<(Value, u64)> = (0..31u64).map(|i| (Value(i * 2), 1)).collect();
        weights[15].1 = 10_000; // Value(30) carries ~99.7% of the work
        let plan = plan_weighted_shards(&weights, 16, 1, 8, |v| {
            assert_eq!(v, Value(30), "only the hot key's slice is fetched");
            (0..64u64).map(Value).collect()
        });
        assert_covers_domain(&plan, "hot key among light");
        let subs: Vec<&RootShard> = plan.iter().filter(|s| s.anchor.is_some()).collect();
        assert_eq!(subs.len(), 8, "{plan:?}");
        for sub in &subs {
            assert!(sub.contains(Value(30)));
        }
        // light neighbours are still grouped, not exploded
        assert!(plan.len() <= 3 * 16 + 1, "{plan:?}");
    }

    #[test]
    fn all_heavy_degenerate_plans_stay_bounded() {
        // Adversarial weight shapes — all-heavy uniform (every candidate
        // reaches the per-shard target, the 1-singleton-per-candidate
        // shape), alternating hot/cold, and tiny totals that clamp the
        // target to 1 — must never explode past the documented budgets:
        // 2·max_shards+1 for the level-0 planner, 3·max_shards+1 with
        // intra-value splitting.
        let anchors: Vec<Value> = (0..256u64).map(Value).collect();
        for n in [2usize, 8, 40, 64, 300] {
            let uniform: Vec<(Value, u64)> = (0..n).map(|i| (Value(i as u64 * 3), 1_000)).collect();
            let alternating: Vec<(Value, u64)> = (0..n)
                .map(|i| (Value(i as u64 * 3), if i % 2 == 0 { 1_000_000 } else { 1 }))
                .collect();
            let ones: Vec<(Value, u64)> = (0..n).map(|i| (Value(i as u64 * 3), 1)).collect();
            for max_shards in [2usize, 4, 16, 256] {
                for (shape, weights) in [
                    ("uniform", &uniform),
                    ("alt", &alternating),
                    ("ones", &ones),
                ] {
                    let ctx = format!("{shape} n={n} max={max_shards}");
                    let plan = level0(weights, max_shards, 1);
                    assert!(
                        plan.len() <= 2 * max_shards + 1,
                        "{ctx}: level-0 budget ({})",
                        plan.len()
                    );
                    if !plan.is_empty() {
                        assert_covers_domain(&plan, &ctx);
                    }
                    for factor in [2usize, 8, 64, usize::MAX] {
                        let plan = plan_weighted_shards(weights, max_shards, 1, factor, |_| {
                            anchors.clone()
                        });
                        assert!(
                            plan.len() <= 3 * max_shards + 1,
                            "{ctx} factor={factor}: split budget ({})",
                            plan.len()
                        );
                        if !plan.is_empty() {
                            assert_covers_domain(&plan, &format!("{ctx} factor={factor}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn both_split_strategies_match_sequential_on_skew() {
        // Zipf-skewed triangle under both planners — isolation only
        // (`heavy_split_factor` 0) and intra-value splitting (the
        // default): the plans differ, the merged output must not.
        let rels = [
            wcoj_datagen::zipf_relation(77, &[0, 1], 200, 24, 1.3),
            wcoj_datagen::zipf_relation(78, &[1, 2], 200, 24, 1.3),
            wcoj_datagen::zipf_relation(79, &[0, 2], 200, 24, 1.3),
        ];
        for factor in [0, HEAVY_SPLIT_DEFAULT] {
            let cfg = ExecConfig {
                heavy_split_factor: factor,
                ..fine()
            };
            let out = assert_matches_sequential(&rels, 4, &cfg, &format!("skew, factor {factor}"));
            assert!(out.stats.shards > 1, "factor {factor}: the plan split");
        }
    }

    #[test]
    fn hot_key_workload_end_to_end() {
        // One root value carrying ≥ 90% of the estimated work: the plan
        // must be multi-task (anchor sub-shards), and the merged shard
        // runs bit-identical to the sequential engine.
        let rels = wcoj_datagen::hot_key_triangle(3, 96, 6);
        let prepared = PreparedQuery::new(&rels).unwrap();
        let weights = prepared.root_candidate_weights();
        let total: u64 = weights.iter().map(|&(_, w)| w).sum();
        let hot = weights.iter().map(|&(_, w)| w).max().unwrap();
        assert!(
            hot as f64 / total as f64 >= 0.9,
            "hot key dominates: {hot}/{total}"
        );
        let plan = plan_shards(&prepared, 4 * OVERSPLIT, &fine());
        let subs = ranges(&plan).iter().filter(|s| s.anchor.is_some()).count();
        assert!(
            subs >= 2,
            "hot key split into ≥ 2 anchor sub-shards: {plan:?}"
        );
        assert!(plan.len() > 1, "multi-task plan");
        assert_matches_sequential(&rels, 4, &fine(), "hot-key triangle");
        // disabling intra-value splitting also stays correct (isolation
        // only, PR 2 behaviour)
        let cfg_off = ExecConfig {
            heavy_split_factor: 0,
            ..fine()
        };
        let plan_off = plan_shards(&prepared, 4 * OVERSPLIT, &cfg_off);
        assert!(ranges(&plan_off).iter().all(|s| s.anchor.is_none()));
        assert_matches_sequential(&rels, 4, &cfg_off, "hot-key triangle, split off");
    }

    #[test]
    fn empty_root_domain_returns_zero_shard_plan() {
        // Triangle whose root attribute (0) has a non-trivial domain in
        // each relation but an empty intersection: π₀(R) = {10,11},
        // π₀(T) = {12,13} → no candidate survives, the join is empty, and
        // the plan says so: the service returns without running the engine.
        let r = rel(&[0, 1], &[&[10, 1], &[10, 2], &[11, 3]]);
        let s = rel(&[1, 2], &[&[1, 20], &[2, 20], &[3, 21]]);
        let t = rel(&[0, 2], &[&[12, 20], &[13, 21]]);
        let rels = [r, s, t];
        let prepared = PreparedQuery::new(&rels).unwrap();
        assert_eq!(prepared.total_order()[0], 0);
        for factor in [0, HEAVY_SPLIT_DEFAULT] {
            let cfg = ExecConfig {
                heavy_split_factor: factor,
                ..fine()
            };
            let plan = plan_shards(&prepared, 16, &cfg);
            assert!(prepared.cached_root_weights().is_empty(), "factor {factor}");
            assert!(plan.is_empty(), "zero tasks: factor {factor}");
            let out = run_plan(&prepared, &plan, None);
            assert!(out.relation.is_empty(), "factor {factor}");
            assert_eq!(out.relation.arity(), 3, "factor {factor}");
            assert_eq!(out.stats.shards, 0, "no shard ever ran: factor {factor}");
            assert_eq!(out.stats.case_a + out.stats.case_b, 0, "factor {factor}");
            // matches the sequential engine bit for bit
            assert_matches_sequential(&rels, 4, &cfg, &format!("empty domain, factor {factor}"));
        }
        // a populated query is NOT a zero-shard plan
        let populated = PreparedQuery::new(&[
            rel(&[0, 1], &[&[1, 2], &[1, 3]]),
            rel(&[1, 2], &[&[2, 4], &[3, 4]]),
            rel(&[0, 2], &[&[1, 4]]),
        ])
        .unwrap();
        let plan = plan_shards(&populated, 16, &fine());
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), ranges(&plan).len().max(1));
    }

    #[test]
    fn triangle_matches_sequential_across_thread_counts() {
        // The service sizes a plan by its pool: workers × OVERSPLIT.
        let rels = [
            wcoj_datagen::random_relation(1, &[0, 1], 120, 12),
            wcoj_datagen::random_relation(2, &[1, 2], 120, 12),
            wcoj_datagen::random_relation(3, &[0, 2], 120, 12),
        ];
        for workers in [1, 2, 4, 8] {
            assert_matches_sequential(&rels, workers, &fine(), &format!("triangle w={workers}"));
        }
    }

    #[test]
    fn hard_triangle_and_paper_examples() {
        let cfg = fine();
        // Example 2.2: the adversarial empty-output triangle.
        assert_matches_sequential(&wcoj_datagen::example_2_2(64), 4, &cfg, "example 2.2");
        // AGM-tight grid triangle.
        assert_matches_sequential(&wcoj_datagen::agm_tight_triangle(6), 4, &cfg, "agm tight");
        // LW instance (n=4).
        assert_matches_sequential(&wcoj_datagen::random_lw(5, 4, 120, 8), 4, &cfg, "lw4");
        // 5-cycle.
        let cycle = wcoj_datagen::cycle_instance(9, 5, 60, 10);
        assert_matches_sequential(&cycle, 4, &cfg, "5-cycle");
        // §5.2 worked example (5 relations, 6 attributes).
        let figure2 = wcoj_datagen::worked_example(7, 80, 6);
        assert_matches_sequential(&figure2, 4, &cfg, "figure 2");
    }

    #[test]
    fn degenerate_queries() {
        // single relation
        let single = [rel(&[0, 1], &[&[1, 2], &[3, 4]])];
        assert_matches_sequential(&single, 4, &fine(), "single");
        // nullary: no root attribute, so never a zero-shard plan — one
        // unrestricted task, and the join of non-empty nullary relations
        // is "true"
        let nullary = [Relation::nullary_true()];
        let prepared = PreparedQuery::new(&nullary).unwrap();
        assert_eq!(plan_shards(&prepared, 16, &fine()), vec![None]);
        let out = assert_matches_sequential(&nullary, 4, &fine(), "nullary");
        assert_eq!(out.relation.len(), 1);
        assert_eq!(out.relation.arity(), 0);
    }

    #[test]
    fn explicit_cover_and_bad_cover() {
        let rels = [
            rel(&[0, 1], &[&[1, 2], &[1, 3]]),
            rel(&[1, 2], &[&[2, 4], &[3, 4]]),
            rel(&[0, 2], &[&[1, 4]]),
        ];
        let cover = [1.0, 1.0, 1.0];
        let prepared = PreparedQuery::new(&rels).unwrap();
        let plan = plan_shards(&prepared, 8, &fine());
        let out = run_plan(&prepared, &plan, Some(&cover));
        let seq = prepared.evaluate(Some(&cover)).unwrap();
        assert_eq!(out.relation, seq.relation);
        assert_eq!(out.relation.len(), 2);
        assert_eq!(out.stats.cover, cover);
        assert!(prepared.resolve_cover(Some(&[0.1, 0.1, 0.1])).is_err());
    }

    #[test]
    fn prepared_reuse_and_hash_backend() {
        let rels = [
            wcoj_datagen::random_relation(20, &[0, 1, 2], 80, 6),
            wcoj_datagen::random_relation(21, &[2, 3], 80, 6),
            wcoj_datagen::random_relation(22, &[0, 3], 80, 6),
        ];
        let seq = join(&rels).unwrap();
        let flat = PreparedQuery::new(&rels).unwrap();
        let delta = PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap();
        for workers in [2, 8] {
            let flat_plan = plan_shards(&flat, workers * OVERSPLIT, &fine());
            let delta_plan = plan_shards(&delta, workers * OVERSPLIT, &fine());
            assert_eq!(flat_plan, delta_plan, "w={workers}");
            let a = run_plan(&flat, &flat_plan, None);
            let b = run_plan(&delta, &delta_plan, None);
            assert_eq!(a.relation, seq, "flat w={workers}");
            assert_eq!(b.relation, seq, "delta w={workers}");
        }
        // reuse: re-planning the same preparation reads the memoized root
        // weights and yields the same plan
        let first = plan_shards(&flat, 16, &fine());
        let again = plan_shards(&flat, 16, &fine());
        assert_eq!(first, again);
        assert_eq!(run_plan(&flat, &again, None).relation, seq);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let rels = [
            wcoj_datagen::random_relation(30, &[0, 1], 200, 16),
            wcoj_datagen::random_relation(31, &[1, 2], 200, 16),
            wcoj_datagen::random_relation(32, &[0, 2], 200, 16),
        ];
        let out = assert_matches_sequential(&rels, 4, &fine(), "random triangle");
        assert!(out.stats.shards > 1, "plan actually split");
        assert!(out.stats.case_a + out.stats.case_b > 0);
        assert!(out.stats.log2_agm_bound > 0.0);
    }

    #[test]
    fn near_max_weights_never_collapse_the_plan() {
        // Adversarial weights close to u64::MAX: with wrapping arithmetic
        // the total (and the per-shard target derived from it) would wrap
        // to a tiny value, every candidate would look "heavy ≫ target",
        // and degenerate shapes could fall out. Saturating accumulation
        // keeps the plan a bounded, covering, multi-shard split.
        let weights: Vec<(Value, u64)> = (0..8u64).map(|i| (Value(i * 10), u64::MAX - i)).collect();
        for max_shards in [2usize, 4, 16] {
            let plan = level0(&weights, max_shards, 1);
            assert!(
                plan.len() >= 2,
                "max={max_shards}: near-MAX weights still split ({plan:?})"
            );
            assert!(plan.len() <= 2 * max_shards + 1, "max={max_shards}");
            assert_covers_domain(&plan, &format!("near-max max={max_shards}"));
            let anchors: Vec<Value> = (0..64u64).map(Value).collect();
            let split = plan_weighted_shards(&weights, max_shards, 1, 8, |_| anchors.clone());
            assert!(split.len() >= 2, "max={max_shards}: split planner too");
            assert!(split.len() <= 3 * max_shards + 1, "max={max_shards}");
            assert_covers_domain(&split, &format!("near-max split max={max_shards}"));
        }
        // A single near-MAX candidate among unit weights is isolated, not
        // wrapped into its neighbours.
        let mut mixed: Vec<(Value, u64)> = (0..10u64).map(|i| (Value(i * 2), 1)).collect();
        mixed[5].1 = u64::MAX;
        let plan = level0(&mixed, 4, 1);
        let hot = plan
            .iter()
            .find(|s| s.contains(Value(10)))
            .expect("some shard owns the near-MAX key");
        let owned: Vec<Value> = mixed
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| hot.contains(v))
            .collect();
        assert_eq!(owned, vec![Value(10)], "near-MAX key isolated: {plan:?}");
    }

    #[test]
    fn malformed_env_knobs_warn_and_fall_back() {
        // A typo like WCOJ_QUEUE_DEPTH=eight must not silently revert to
        // the default: the knob reads as unset AND the key is registered
        // in the one-time warning list. Valid values still apply. (Keys
        // private to this test, so no other test's knob is disturbed.)
        let keys = ["WCOJ_EXEC_TEST_NEGATIVE", "WCOJ_EXEC_TEST_WORD"];
        std::env::set_var(keys[0], "-3");
        std::env::set_var(keys[1], "eight");
        for key in keys {
            assert_eq!(read_env_usize(key), None, "{key} fell back");
            assert_eq!(read_env_usize(key), None, "{key}: second read");
        }
        let warned = malformed_env_warnings();
        for key in keys {
            std::env::remove_var(key);
            assert_eq!(
                warned.iter().filter(|k| k.as_str() == key).count(),
                1,
                "{key} warned exactly once (once per key per process): {warned:?}"
            );
        }
        // and a well-formed value still applies
        std::env::set_var(keys[1], " 5 ");
        assert_eq!(read_env_usize(keys[1]), Some(5));
        std::env::remove_var(keys[1]);
        assert_eq!(read_env_usize(keys[1]), None, "unset → None");
    }
}
