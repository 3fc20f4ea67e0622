//! Prepared-query/plan cache: `PreparedQuery` (cover LP, total order,
//! indexes, shard-plan inputs) built once per *query shape over current
//! data* and reused across submissions.
//!
//! ## What a plan owns
//!
//! The innermost of the catalog's three lifetimes (see
//! `catalog.rs`): base generation → that base's indexes, one per
//! column order → the plan. A cached plan *shares* the first two by `Arc`
//! — an atom without constants is its relation's base under the query's
//! variable names, served by the base's own index — and *owns* only what
//! its constants determine: each constant-bearing atom's section (found
//! by descending a shared index, §7.3 by (ST1)) and that section's index,
//! merged with the atom's reduced buffers, the memoized cover and root
//! weights. A miss therefore builds, and an eviction frees, kilobytes;
//! the megabytes belong to the base, or to a content version's merged
//! index, and go when [`PlanCache::retire_generation`] (or a refresh)
//! and the last snapshot let go of them.
//!
//! ## Key
//!
//! A cache key is the canonical form of the query body: one segment per
//! atom, `name@base_generation(term,…)`, with variables numbered by first
//! occurrence (so `Ans(a,b) :- E(a,b)` and `Ans(x,y) :- E(x,y)` share an
//! entry) and constants by their dictionary-encoded value. The head is
//! *not* part of the key: the cached object is the prepared **join**, and
//! projection happens after evaluation.
//!
//! ## Two-level invalidation
//!
//! Generations are **process-globally unique** stamps assigned by the
//! catalog — not per-name bumps — so two diverged catalog clones can
//! never reach the same `(name, generation)` pair with different data.
//! The cache distinguishes two kinds of staleness:
//!
//! * **Base drift** (replace / compaction / removal) changes a
//!   relation's *base generation*, hence the key itself: the stale entry
//!   can never be served to the catalog again, and the catalog retires it
//!   on the spot ([`PlanCache::retire_generation`]) — a superseded plan
//!   pins its whole frozen base (relations and indexes), and under
//!   sustained ingest those would otherwise pile up one per compaction
//!   until 64 newer plans pushed them out. The next submission rebuilds
//!   the plan, and re-indexes the one relation whose base changed. The
//!   retired generation also leaves a tombstone: a snapshot pinned
//!   before the retirement still gets its plan over the old base built
//!   and served, but never cached, so the old base goes when the last
//!   snapshot does.
//! * **Delta drift** (row appends / deletes) leaves the key intact but
//!   changes the per-atom *delta versions* stored alongside the entry.
//!   A lookup whose versions disagree keeps the entry's prepared shape —
//!   the `Arc`-shared reduced base relations and plan tree — and takes
//!   its indexes afresh (counted as a *refresh*, neither hit nor miss): a
//!   relation whose version did not move by the same `Arc`, a changed
//!   one's at its new version (merged once per version, shared by every
//!   plan that reads it), and a constant-bearing atom's section merged
//!   with its buffers. An append therefore invalidates a cached plan's
//!   weights and the changed relation's index, not its prepared shape.
//!
//! ## Sharing & metrics
//!
//! The cache itself is behind an `Arc`, so catalog clones (the cheap
//! handle-passing pattern) share one cache and one hit/miss account.
//! Counts are mirrored into the process-wide `wcoj-obs` registry as
//! `wcoj_plan_cache_{hits,misses,refreshes}_total`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use wcoj_core::nprr::PreparedQuery;
use wcoj_core::QueryError;
use wcoj_obs::Counter;
use wcoj_storage::FlatIndex;

/// Upper bound on cached plans; past it the least-recently-used entry is
/// evicted.
const CAPACITY: usize = 64;

/// Retired base generations remembered as tombstones; past it the
/// oldest is forgotten. Only a snapshot frozen before a retirement can
/// still ask for a plan over that generation, so this need only outlast
/// the snapshots in flight, not the process.
const TOMBSTONES: usize = 1024;

/// Process-wide generation stamps for catalog versions. Monotone and
/// never reused, so a `(name, generation)` pair identifies one exact
/// relation value for the life of the process.
static GENERATIONS: AtomicU64 = AtomicU64::new(1);

/// Draws the next globally unique relation generation.
pub(crate) fn next_generation() -> u64 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed)
}

/// The cached preparations hold their indexes by `Arc`: a relation's
/// index at its current version (the base's own while its buffers are
/// empty, else the one merged for that version), shared with every other
/// plan that reads it, and the few a plan's constants select.
pub type CachedPlan = Arc<PreparedQuery<Arc<FlatIndex>>>;

struct Mirror {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    refreshes: Arc<Counter>,
}

impl Mirror {
    fn get() -> &'static Mirror {
        static MIRROR: OnceLock<Mirror> = OnceLock::new();
        MIRROR.get_or_init(|| {
            let r = wcoj_obs::global();
            Mirror {
                hits: r.counter(
                    "wcoj_plan_cache_hits_total",
                    "Catalog queries served from the prepared-plan cache",
                ),
                misses: r.counter(
                    "wcoj_plan_cache_misses_total",
                    "Catalog queries that built (and cached) a fresh PreparedQuery",
                ),
                refreshes: r.counter(
                    "wcoj_plan_cache_refreshes_total",
                    "Cached plans whose indexes were taken afresh after row mutations",
                ),
            }
        })
    }
}

struct Entry {
    plan: CachedPlan,
    /// Per-atom delta versions the plan's merged indexes were built at.
    delta_vers: Vec<u64>,
    /// LRU clock value of the last touch; the entry with the smallest
    /// stamp is the eviction victim.
    stamp: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    /// LRU clock: bumped on every touch.
    tick: u64,
    /// Retired base generations, oldest first, at most [`TOMBSTONES`]:
    /// a plan whose key names one is served but not cached.
    retired: VecDeque<u64>,
}

/// The base generations a cache key names: the `g` of every `@g(`
/// segment (see the module docs for the key format).
fn key_generations(key: &str) -> impl Iterator<Item = u64> + '_ {
    key.split('@').skip(1).filter_map(|segment| {
        let (digits, _) = segment.split_once('(')?;
        digits.parse().ok()
    })
}

/// A shared LRU of prepared queries, keyed by canonical query shape +
/// relation base generations, delta-versioned within each entry. Cheap
/// to clone (one `Arc`).
#[derive(Clone)]
pub struct PlanCache {
    inner: Arc<Mutex<Inner>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    refreshes: Arc<AtomicU64>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> PlanCache {
        PlanCache {
            inner: Arc::new(Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                retired: VecDeque::new(),
            })),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            refreshes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Looks up `key` and serves the cached plan when its stored delta
    /// versions equal `delta_vers` (a **hit**). On a present-but-drifted
    /// entry, calls `refresh` with the stale plan — which shares its
    /// prepared shape (`Arc`'d reduced bases) with the replacement — and
    /// re-inserts under the new versions (a **refresh**). On an absent
    /// key, calls `build` (a **miss**).
    ///
    /// Both closures run outside the cache lock: preparation (LP + index
    /// construction) can be expensive, and concurrent submitters of
    /// *different* shapes shouldn't serialise on it. Two racing
    /// submitters of the same shape may both build; last insert wins,
    /// both results are equivalent. Errors are returned without caching
    /// anything (a failing shape re-attempts on every submission —
    /// failures are cheap and should not occupy capacity; the stale
    /// entry a failing `refresh` left behind stays, still guarded by its
    /// version vector).
    ///
    /// # Errors
    /// Whatever `build` / `refresh` return.
    pub fn get_or_build_versioned(
        &self,
        key: &str,
        delta_vers: &[u64],
        build: impl FnOnce() -> Result<CachedPlan, QueryError>,
        refresh: impl FnOnce(&CachedPlan) -> Result<CachedPlan, QueryError>,
    ) -> Result<CachedPlan, QueryError> {
        let stale = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.get_mut(key) {
                Some(entry) => {
                    entry.stamp = tick;
                    if entry.delta_vers == delta_vers {
                        let plan = Arc::clone(&entry.plan);
                        drop(inner);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Mirror::get().hits.inc();
                        return Ok(plan);
                    }
                    Some(Arc::clone(&entry.plan))
                }
                None => None,
            }
        };
        let plan = match &stale {
            Some(old) => {
                let plan = refresh(old)?;
                self.refreshes.fetch_add(1, Ordering::Relaxed);
                Mirror::get().refreshes.inc();
                plan
            }
            None => {
                let plan = build()?;
                self.misses.fetch_add(1, Ordering::Relaxed);
                Mirror::get().misses.inc();
                plan
            }
        };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if key_generations(key).any(|generation| inner.retired.contains(&generation)) {
            return Ok(plan);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key.to_owned(),
            Entry {
                plan: Arc::clone(&plan),
                delta_vers: delta_vers.to_vec(),
                stamp: tick,
            },
        );
        if inner.entries.len() > CAPACITY {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
            }
        }
        Ok(plan)
    }

    /// Drops every plan built over base generation `generation` — the
    /// catalog calls this when it replaces, compacts away or removes that
    /// relation value, so the superseded plans stop pinning its frozen
    /// base and indexes. Generations are never reused, so such a plan
    /// could only ever be asked for again through a catalog clone that
    /// still holds the old value (a pinned snapshot); that reader
    /// rebuilds, and the generation's tombstone keeps the rebuilt plan
    /// out of the cache.
    pub fn retire_generation(&self, generation: u64) {
        let retired: Vec<(String, Entry)> = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.retired.len() == TOMBSTONES {
                inner.retired.pop_front();
            }
            inner.retired.push_back(generation);
            inner
                .entries
                .extract_if(|key, _| key_generations(key).any(|g| g == generation))
                .collect()
        };
        // Freeing a plan's bases and indexes can be megabytes of work:
        // do it after the cache lock is released.
        drop(retired);
    }

    /// `(hits, misses)` accumulated by this cache (shared across catalog
    /// clones holding the same `Arc`). Delta refreshes are counted
    /// separately — see [`PlanCache::refreshes`].
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached plans whose indexes were taken afresh after row
    /// mutations (prepared shape reused, weights recomputed).
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Number of cached plans right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// `true` iff nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{Relation, Schema};

    fn plan() -> CachedPlan {
        let rels = [
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2]]),
            Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 3]]),
        ];
        Arc::new(PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap())
    }

    /// A lookup with no delta versions: a present entry is always a hit.
    fn get(
        cache: &PlanCache,
        key: &str,
        build: impl FnOnce() -> Result<CachedPlan, QueryError>,
    ) -> Result<CachedPlan, QueryError> {
        cache.get_or_build_versioned(key, &[], build, |_| unreachable!())
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = PlanCache::new();
        assert!(cache.is_empty());
        let a = get(&cache, "k1", || Ok(plan())).unwrap();
        assert_eq!(cache.stats(), (0, 1));
        let b = get(&cache, "k1", || panic!("must not rebuild on hit")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let cache = PlanCache::new();
        get(&cache, "k1", || Ok(plan())).unwrap();
        get(&cache, "k2", || Ok(plan())).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = PlanCache::new();
        let r = get(&cache, "bad", || Err(QueryError::Overloaded));
        assert!(r.is_err());
        assert!(cache.is_empty());
        // the next attempt re-runs the builder
        get(&cache, "bad", || Ok(plan())).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_beyond_capacity() {
        let cache = PlanCache::new();
        for i in 0..=CAPACITY {
            get(&cache, &format!("k{i}"), || Ok(plan())).unwrap();
        }
        assert_eq!(cache.len(), CAPACITY);
        // k0 was the least recently used → evicted; k1 survived
        let mut rebuilt = false;
        get(&cache, "k0", || {
            rebuilt = true;
            Ok(plan())
        })
        .unwrap();
        assert!(rebuilt, "k0 was evicted");
        assert_eq!(cache.len(), CAPACITY, "eviction keeps the cache bounded");
        // Recently used entries survive the churn.
        let (hits_before, _) = cache.stats();
        get(&cache, &format!("k{CAPACITY}"), || panic!("still cached")).unwrap();
        get(&cache, "k0", || panic!("just re-inserted")).unwrap();
        assert_eq!(cache.stats().0, hits_before + 2);
    }

    #[test]
    fn retiring_a_generation_drops_exactly_the_plans_over_it() {
        let cache = PlanCache::new();
        for key in [
            "R@7(?0,?1);S@8(?1,?2);",
            "R@7(?0,=3);",
            "R@17(?0,?1);S@8(?1,?2);",
        ] {
            get(&cache, key, || Ok(plan())).unwrap();
        }
        cache.retire_generation(7);
        assert_eq!(cache.len(), 1, "R@17 is another value");
        get(&cache, "R@17(?0,?1);S@8(?1,?2);", || panic!("still cached")).unwrap();
        let mut rebuilt = false;
        get(&cache, "R@7(?0,=3);", || {
            rebuilt = true;
            Ok(plan())
        })
        .unwrap();
        assert!(rebuilt, "a reader of the old value rebuilds");
        assert_eq!(cache.len(), 1, "…and its plan is served, not cached");
    }

    #[test]
    fn generations_are_globally_unique() {
        let a = next_generation();
        let b = next_generation();
        assert!(b > a);
    }

    #[test]
    fn clones_share_entries_and_stats() {
        let cache = PlanCache::new();
        let clone = cache.clone();
        get(&cache, "k", || Ok(plan())).unwrap();
        get(&clone, "k", || panic!("shared with the original")).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(clone.stats(), (1, 1));
    }

    #[test]
    fn version_drift_refreshes_instead_of_missing() {
        let cache = PlanCache::new();
        let a = cache
            .get_or_build_versioned("k", &[0, 0], || Ok(plan()), |_| panic!("empty cache"))
            .unwrap();
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.refreshes(), 0);
        // Same versions → hit, same Arc.
        let b = cache
            .get_or_build_versioned(
                "k",
                &[0, 0],
                || panic!("cached"),
                |_| panic!("versions match"),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        // Drifted versions → refresh sees the stale plan, result cached
        // under the new versions.
        let c = cache
            .get_or_build_versioned(
                "k",
                &[0, 7],
                || panic!("present"),
                |old| {
                    assert!(Arc::ptr_eq(old, &a));
                    Ok(plan())
                },
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats(), (1, 1), "a refresh is neither hit nor miss");
        assert_eq!(cache.refreshes(), 1);
        assert_eq!(cache.len(), 1);
        let d = cache
            .get_or_build_versioned(
                "k",
                &[0, 7],
                || panic!("cached"),
                |_| panic!("versions match"),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&c, &d));
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn failed_refresh_keeps_the_guarded_stale_entry() {
        let cache = PlanCache::new();
        let a = cache
            .get_or_build_versioned("k", &[1], || Ok(plan()), |_| panic!("empty"))
            .unwrap();
        let r = cache.get_or_build_versioned(
            "k",
            &[2],
            || panic!("present"),
            |_| Err(QueryError::Overloaded),
        );
        assert!(r.is_err());
        // The stale entry survives, still version-guarded: matching the
        // old versions hits it, the new versions retry the refresh.
        let b = cache
            .get_or_build_versioned("k", &[1], || panic!(), |_| panic!())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache
            .get_or_build_versioned("k", &[2], || panic!("present"), |_| Ok(plan()))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.refreshes(), 1);
    }
}
