//! Named relations plus the shared value dictionary.
//!
//! ## Three lifetimes
//!
//! What a query runs on is owned at three levels, each outliving the
//! next, plus one beside the second:
//!
//! 1. **A base generation.** A relation's frozen base (`Arc<Relation>`
//!    inside its [`DeltaRelation`]) lives from the [`Catalog::insert`] or
//!    compaction that made it to the replace, compaction or
//!    [`Catalog::remove`] that retires it — and past that for as long as a
//!    [`Snapshot`] frozen earlier still reads it.
//! 2. **Its indexes, one per column order.** The base owns them
//!    ([`DeltaRelation::base_index`]): each is built on the first plan
//!    that needs that order — never at insert time — at most once however
//!    many submitters race, shared by every plan, clone and snapshot over
//!    that base, and freed with it. A new base starts with none.
//!
//!    **Beside it, a content version's merged indexes.** While a
//!    relation's insert/delete buffers are live, a query reads it through
//!    the index over `(base ∖ del) ∪ ins`
//!    ([`DeltaRelation::index`]), one per column order, merged from the
//!    base's index and the buffers on the first plan that needs it and
//!    shared by every plan, clone and snapshot of that version. A row
//!    mutation that changes data starts a new version with none; the old
//!    ones are freed with the last plan or snapshot that reads them, and
//!    compaction turns the version into a new base (level 1).
//! 3. **A plan per query shape and constant**, in the LRU
//!    (`plan_cache.rs`). A plan holds `Arc`s on the bases and
//!    indexes of level 2 plus what only its own constants determine:
//!    the few rows of each constant-bearing atom's section merged with
//!    its buffers, their index, the cover. Evicting or retiring a plan
//!    frees just that.
//!
//! So a plan-cache miss costs what its constants select, not what its
//! relations hold; replacing one relation re-indexes only that one; and
//! a write merges only the relation it changed, once per version.

use crate::plan_cache::{next_generation, PlanCache};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use wcoj_obs::Counter;
use wcoj_service::{Service, ServiceConfig};
use wcoj_storage::{Datum, DeltaRelation, Dictionary, Relation, StorageError, Value};

/// Default delta size (`|ins| + |del|`) at which a mutation triggers a
/// minor compaction of the touched relation.
const DEFAULT_COMPACT_THRESHOLD: usize = 1024;

struct Metrics {
    deltas: Arc<Counter>,
    compactions: Arc<Counter>,
}

impl Metrics {
    fn get() -> &'static Metrics {
        static METRICS: OnceLock<Metrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = wcoj_obs::global();
            Metrics {
                deltas: r.counter(
                    "wcoj_catalog_deltas_total",
                    "Catalog row mutations (insert_rows / delete_rows calls that changed data)",
                ),
                compactions: r.counter(
                    "wcoj_catalog_compactions_total",
                    "Minor compactions folding delta buffers into a fresh base",
                ),
            }
        })
    }
}

/// One registered relation: the delta-aware store plus its version pair.
#[derive(Clone)]
struct Stored {
    delta: DeltaRelation,
    /// Changes on [`Catalog::insert`] (replace) and on every compaction —
    /// i.e. whenever the frozen base itself is a different object.
    base_gen: u64,
    /// `0` while the delta buffers are empty; otherwise the globally
    /// unique stamp of the latest row mutation.
    delta_ver: u64,
}

/// A catalog: named relations sharing one [`Dictionary`] so string values
/// compare consistently across relations, plus the [`Service`] every query
/// against it is submitted to: by default the catalog's own worker-less
/// one, which runs each query as one task on the submitting thread, or a
/// process-wide shared worker pool attached with [`Catalog::set_service`].
///
/// ## Mutation and versioning
///
/// Relations are stored as [`DeltaRelation`]s: a frozen, `Arc`-shared base
/// plus small sorted insert/delete buffers. [`Catalog::insert_rows`] and
/// [`Catalog::delete_rows`] mutate the buffers in place; once
/// `|ins| + |del|` passes the compaction threshold the buffers are folded
/// into a fresh base by one sequential merge on the mutating thread
/// ([`DeltaRelation::compact`]). Each relation carries two version
/// stamps drawn from one process-global sequence: `base_gen` (changes on
/// replace and compaction) and `delta_ver` (changes on every row
/// mutation, `0` when the buffers are empty). The plan cache keys
/// prepared shapes on `base_gen` and refreshes a cached plan on
/// `delta_ver` drift: the plan keeps its shape and the indexes of the
/// relations that did not change, and takes the changed relation's index
/// at its new version.
///
/// ## Snapshots
///
/// `Catalog` is `Clone`, and cloning is copy-on-write: the clone shares
/// the `Arc`'d bases (with their indexes), the dictionary and the rows of
/// the delta buffers; a writer copies a buffer the first time it changes
/// one a clone still reads. [`Catalog::freeze`] wraps a clone in an [`Arc<Snapshot>`] —
/// an immutable view a query can pin for its whole lifetime while writers
/// keep mutating the live catalog.
#[derive(Clone)]
pub struct Catalog {
    dict: Arc<Dictionary>,
    relations: BTreeMap<String, Stored>,
    service: Arc<Service>,
    plan_cache: PlanCache,
    compact_threshold: usize,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog with its own worker-less service.
    #[must_use]
    pub fn new() -> Catalog {
        Catalog {
            dict: Arc::new(Dictionary::new()),
            relations: BTreeMap::new(),
            service: worker_less(),
            plan_cache: PlanCache::new(),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
        }
    }

    /// Routes every query executed against this catalog — text queries
    /// and whole Datalog programs alike — through `service`'s shared
    /// worker pool (`None` attaches a fresh worker-less service: each query
    /// runs on the thread that submits it).
    pub fn set_service(&mut self, service: Option<Arc<Service>>) {
        self.service = service.unwrap_or_else(worker_less);
    }

    /// The query service this catalog routes through.
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The shared dictionary (encode constants through this).
    #[must_use]
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// An owning handle on the shared dictionary — for decoding rows
    /// after the catalog borrow is released (e.g. while streaming a
    /// response without holding a catalog lock).
    #[must_use]
    pub fn dictionary_handle(&self) -> Arc<Dictionary> {
        Arc::clone(&self.dict)
    }

    /// Delta size (`|ins| + |del|`) past which a mutation compacts the
    /// relation. `usize::MAX` disables automatic compaction (explicit
    /// [`Catalog::compact`] still works); `0` compacts on every mutation.
    pub fn set_compact_threshold(&mut self, rows: usize) {
        self.compact_threshold = rows;
    }

    /// The current automatic-compaction threshold.
    #[must_use]
    pub fn compact_threshold(&self) -> usize {
        self.compact_threshold
    }

    /// Registers (or replaces) a relation under `name`. Every insert —
    /// including a replace — stamps the relation with a fresh globally
    /// unique base generation, invalidating any cached plan built over
    /// the previous contents (the stale plan's key can never recur, and
    /// the plans are dropped with the value they were built over).
    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        let replaced = self.relations.insert(
            name.into(),
            Stored {
                delta: DeltaRelation::new(rel),
                base_gen: next_generation(),
                delta_ver: 0,
            },
        );
        if let Some(old) = replaced {
            self.plan_cache.retire_generation(old.base_gen);
        }
    }

    /// Appends rows to `name`'s delta buffers. Rows already present are
    /// skipped; returns how many actually appeared. A change bumps the
    /// relation's delta version (cached plan shapes survive; only this
    /// relation's index is merged again, once for the new version) and
    /// may trigger a minor compaction.
    /// `Ok(None)` when no relation is registered under `name`.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] when a row's width disagrees with
    /// the schema.
    pub fn insert_rows(
        &mut self,
        name: &str,
        rows: &[Vec<Value>],
    ) -> Result<Option<usize>, StorageError> {
        self.mutate_rows(name, rows, true)
    }

    /// Deletes rows from `name` (tombstones in the delta buffers). Rows
    /// not present are skipped; returns how many actually disappeared.
    /// Versioning and compaction behave as in [`Catalog::insert_rows`].
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] when a row's width disagrees with
    /// the schema.
    pub fn delete_rows(
        &mut self,
        name: &str,
        rows: &[Vec<Value>],
    ) -> Result<Option<usize>, StorageError> {
        self.mutate_rows(name, rows, false)
    }

    /// Shared body of `insert_rows`/`delete_rows`: `Ok(None)` when no
    /// relation is registered under `name`.
    fn mutate_rows(
        &mut self,
        name: &str,
        rows: &[Vec<Value>],
        insert: bool,
    ) -> Result<Option<usize>, StorageError> {
        let Some(stored) = self.relations.get_mut(name) else {
            return Ok(None);
        };
        let changed = if insert {
            stored.delta.insert_rows(rows)?
        } else {
            stored.delta.delete_rows(rows)?
        };
        if changed > 0 {
            stored.delta_ver = if stored.delta.delta_len() == 0 {
                // Mutations can cancel in place (delete-then-reinsert):
                // the view equals the bare base again, so fall back to
                // the base stamp and let cached plans hit directly.
                0
            } else {
                next_generation()
            };
            Metrics::get().deltas.inc();
        }
        if stored.delta.delta_len() >= self.compact_threshold {
            Self::compact_stored(stored, &self.plan_cache);
        }
        Ok(Some(changed))
    }

    /// Unregisters `name`. Returns `true` iff it was present. Cached
    /// plans over the removed relation are dropped with it (their keys
    /// could only recur if a relation with the same base generation were
    /// re-registered, which the global stamp sequence rules out).
    pub fn remove(&mut self, name: &str) -> bool {
        let removed = self.relations.remove(name);
        if let Some(old) = &removed {
            self.plan_cache.retire_generation(old.base_gen);
        }
        removed.is_some()
    }

    /// Folds `name`'s delta buffers into a fresh frozen base now,
    /// regardless of the threshold. Returns `false` when there is
    /// nothing to fold (or no such relation). The merge runs on the
    /// calling thread ([`DeltaRelation::compact`]).
    pub fn compact(&mut self, name: &str) -> bool {
        let Some(stored) = self.relations.get_mut(name) else {
            return false;
        };
        Self::compact_stored(stored, &self.plan_cache)
    }

    fn compact_stored(stored: &mut Stored, plan_cache: &PlanCache) -> bool {
        let compacted = stored.delta.compact();
        if compacted {
            plan_cache.retire_generation(stored.base_gen);
            stored.base_gen = next_generation();
            stored.delta_ver = 0;
            Metrics::get().compactions.inc();
        }
        compacted
    }

    /// Freezes the current contents into an immutable [`Snapshot`] a
    /// query can pin for its whole lifetime. Cheap copy-on-write: the
    /// snapshot shares the `Arc`'d frozen bases and their indexes, the
    /// delta buffers' rows, the dictionary and the plan cache.
    #[must_use]
    pub fn freeze(&self) -> Arc<Snapshot> {
        Arc::new(Snapshot {
            catalog: self.clone(),
        })
    }

    /// A copy-on-write clone, like [`Catalog::freeze`]'s, but with its own
    /// empty plan cache: relations the fork replaces retire plans in the
    /// fork's cache only, so work that may still be thrown away (a
    /// Datalog program's rules) never evicts this catalog's plans.
    #[must_use]
    pub fn fork(&self) -> Catalog {
        Catalog {
            plan_cache: PlanCache::new(),
            ..self.clone()
        }
    }

    /// Registers the relations `fork` holds under `names` here, replacing
    /// any of the same name as [`Catalog::insert`] does. The entries move
    /// with their stamps and share their bases, so the commit copies no
    /// rows. Names `fork` does not hold, or already moved, are skipped.
    pub fn adopt<'a>(&mut self, mut fork: Catalog, names: impl IntoIterator<Item = &'a str>) {
        for name in names {
            let Some(stored) = fork.relations.remove(name) else {
                continue;
            };
            if let Some(old) = self.relations.insert(name.to_owned(), stored) {
                self.plan_cache.retire_generation(old.base_gen);
            }
        }
    }

    /// Looks up a relation, returning its merged view `(base ∖ del) ∪ ins`
    /// as an owned [`Relation`]. Cheap clone of the frozen base when the
    /// delta buffers are empty; a sorted merge otherwise.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Relation> {
        self.relations.get(name).map(|s| {
            if s.delta.delta_len() == 0 {
                s.delta.base().as_ref().clone()
            } else {
                s.delta.materialize()
            }
        })
    }

    /// The delta-aware store behind `name` — base handle plus buffers.
    #[must_use]
    pub fn delta(&self, name: &str) -> Option<&DeltaRelation> {
        self.relations.get(name).map(|s| &s.delta)
    }

    /// Number of rows in `name`'s merged view, without materializing it.
    #[must_use]
    pub fn row_count(&self, name: &str) -> Option<usize> {
        self.relations.get(name).map(|s| s.delta.len())
    }

    /// Arity of `name`'s schema, without materializing the view.
    #[must_use]
    pub fn arity(&self, name: &str) -> Option<usize> {
        self.relations.get(name).map(|s| s.delta.arity())
    }

    /// The generation stamp of `name`'s current *contents*: changes on
    /// every [`Catalog::insert`] (even replaces), on every row mutation
    /// that changes data, and on every compaction. Two equal stamps
    /// always denote bit-identical contents.
    #[must_use]
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.relations.get(name).map(|s| {
            if s.delta_ver != 0 {
                s.delta_ver
            } else {
                s.base_gen
            }
        })
    }

    /// The generation of `name`'s frozen base (changes on replace and
    /// compaction only — the plan cache keys prepared shapes on this).
    #[must_use]
    pub fn base_generation(&self, name: &str) -> Option<u64> {
        self.relations.get(name).map(|s| s.base_gen)
    }

    /// The stamp of `name`'s latest row mutation (`0` when the delta
    /// buffers are empty — the view equals the frozen base).
    #[must_use]
    pub fn delta_version(&self, name: &str) -> Option<u64> {
        self.relations.get(name).map(|s| s.delta_ver)
    }

    /// The prepared-plan cache shared by this catalog and its clones.
    #[must_use]
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// `(hits, misses)` of the shared plan cache — mirrored into the
    /// `wcoj-obs` registry as `wcoj_plan_cache_{hits,misses}_total`.
    #[must_use]
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plan_cache.stats()
    }

    /// Registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Number of registered relations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// `true` iff no relations are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Decodes a value through the shared dictionary.
    #[must_use]
    pub fn decode(&self, v: wcoj_storage::Value) -> Option<Datum> {
        self.dict.decode(v)
    }
}

/// A service with no pool: [`Service::submit`] runs each query on the
/// calling thread.
fn worker_less() -> Arc<Service> {
    Arc::new(Service::new(ServiceConfig {
        workers: 0,
        exec: wcoj_exec::ExecConfig::default(),
        queue_depth: 0,
    }))
}

/// An immutable view of a catalog at one instant, pinned by queries for
/// snapshot isolation: a query admitted against a snapshot sees exactly
/// the rows that were live at [`Catalog::freeze`] time no matter how many
/// appends, deletes, or compactions land while it runs or streams.
pub struct Snapshot {
    catalog: Catalog,
}

impl Snapshot {
    /// The frozen catalog view. Queries read through it exactly like a
    /// live catalog (shared plan cache included); it just never mutates.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::Schema;

    fn rows(rows: &[&[u32]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value(u64::from(v))).collect())
            .collect()
    }

    #[test]
    fn insert_get_names() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.insert(
            "R",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2]]),
        );
        c.insert("S", Relation::from_u32_rows(Schema::of(&[0]), &[&[1]]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.names(), vec!["R", "S"]);
        assert_eq!(c.get("R").unwrap().len(), 1);
        assert!(c.get("T").is_none());
    }

    #[test]
    fn shared_dictionary() {
        let c = Catalog::new();
        let v = c.dictionary().encode_str("bob");
        assert_eq!(c.decode(v), Some(Datum::str("bob")));
    }

    #[test]
    fn row_mutations_version_and_merge() {
        let mut c = Catalog::new();
        c.set_compact_threshold(usize::MAX);
        c.insert(
            "E",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[2, 3]]),
        );
        let g0 = c.generation("E").unwrap();
        assert_eq!(c.base_generation("E"), Some(g0));
        assert_eq!(c.delta_version("E"), Some(0));

        // Append: new generation, same base generation.
        assert_eq!(c.insert_rows("E", &rows(&[&[3, 4]])).unwrap(), Some(1));
        let g1 = c.generation("E").unwrap();
        assert!(g1 > g0);
        assert_eq!(c.base_generation("E"), Some(g0));
        assert_eq!(c.delta_version("E"), Some(g1));
        assert_eq!(c.row_count("E"), Some(3));
        let merged = c.get("E").unwrap();
        assert!(merged.contains_row(&[Value(3), Value(4)]));

        // Duplicate append changes nothing — generation holds.
        assert_eq!(c.insert_rows("E", &rows(&[&[3, 4]])).unwrap(), Some(0));
        assert_eq!(c.generation("E"), Some(g1));

        // Delete a base row.
        assert_eq!(c.delete_rows("E", &rows(&[&[1, 2]])).unwrap(), Some(1));
        let g2 = c.generation("E").unwrap();
        assert!(g2 > g1);
        assert_eq!(c.row_count("E"), Some(2));
        assert!(!c.get("E").unwrap().contains_row(&[Value(1), Value(2)]));

        // Unknown relation: Ok(None), not an error.
        assert_eq!(c.insert_rows("Q", &rows(&[&[1, 1]])).unwrap(), None);
        // Arity mismatch surfaces.
        assert!(c.insert_rows("E", &rows(&[&[1]])).is_err());
    }

    #[test]
    fn cancelling_mutations_restore_the_base_stamp() {
        let mut c = Catalog::new();
        c.set_compact_threshold(usize::MAX);
        c.insert(
            "R",
            Relation::from_u32_rows(Schema::of(&[0]), &[&[1], &[2]]),
        );
        let g0 = c.generation("R").unwrap();
        c.delete_rows("R", &rows(&[&[2]])).unwrap();
        assert_ne!(c.generation("R"), Some(g0));
        c.insert_rows("R", &rows(&[&[2]])).unwrap();
        // The tombstone cancelled in place: the view is the bare base
        // again, so the stamp falls back and cached plans hit.
        assert_eq!(c.delta_version("R"), Some(0));
        assert_eq!(c.generation("R"), Some(g0));
    }

    #[test]
    fn threshold_triggers_compaction_and_new_base() {
        let mut c = Catalog::new();
        c.set_compact_threshold(3);
        c.insert("R", Relation::from_u32_rows(Schema::of(&[0]), &[&[1]]));
        let base0 = c.base_generation("R").unwrap();
        c.insert_rows("R", &rows(&[&[2]])).unwrap();
        c.insert_rows("R", &rows(&[&[3]])).unwrap();
        assert_eq!(c.base_generation("R"), Some(base0), "below threshold");
        c.insert_rows("R", &rows(&[&[4]])).unwrap();
        let base1 = c.base_generation("R").unwrap();
        assert!(base1 > base0, "threshold reached: buffers folded");
        assert_eq!(c.delta_version("R"), Some(0));
        assert_eq!(c.delta("R").unwrap().delta_len(), 0);
        assert_eq!(c.row_count("R"), Some(4));
        // Explicit compaction with empty buffers is a no-op.
        assert!(!c.compact("R"));
    }

    #[test]
    fn freeze_is_a_cow_snapshot() {
        let mut c = Catalog::new();
        c.set_compact_threshold(usize::MAX);
        c.insert(
            "R",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2]]),
        );
        let snap = c.freeze();
        // The snapshot shares the frozen base allocation.
        assert!(Arc::ptr_eq(
            snap.catalog().delta("R").unwrap().base(),
            c.delta("R").unwrap().base(),
        ));
        // Writers keep mutating; the snapshot holds still.
        c.insert_rows("R", &rows(&[&[3, 4]])).unwrap();
        c.delete_rows("R", &rows(&[&[1, 2]])).unwrap();
        c.compact("R");
        assert_eq!(snap.catalog().row_count("R"), Some(1));
        assert!(snap
            .catalog()
            .get("R")
            .unwrap()
            .contains_row(&[Value(1), Value(2)]));
        assert_eq!(c.row_count("R"), Some(1));
        assert!(!c.get("R").unwrap().contains_row(&[Value(1), Value(2)]));
    }

    fn triangle_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.set_compact_threshold(usize::MAX);
        for (seed, name) in ["R", "S", "T"].into_iter().enumerate() {
            c.insert(
                name,
                wcoj_datagen::random_relation(seed as u64, &[0, 1], 60, 8),
            );
        }
        c
    }

    #[test]
    fn a_retired_base_takes_its_indexes_with_it() {
        use std::sync::Weak;
        use wcoj_storage::{Attr, FlatIndex};
        let full = crate::parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let narrow = crate::parse_query("Ans(y) :- R(1, y)").unwrap();
        type Retire = fn(&mut Catalog);
        let retirements: [(&str, Retire); 3] = [
            ("replace", |c| c.insert("R", c.get("R").unwrap())),
            ("compact", |c| {
                c.insert_rows("R", &rows(&[&[90, 91]])).unwrap();
                assert!(c.compact("R"));
            }),
            ("remove", |c| assert!(c.remove("R"))),
        ];
        for (what, retire) in retirements {
            let mut c = triangle_catalog();
            // Cached plans over R's base: one shares its index, one its
            // section under a constant.
            crate::execute(&full, &c).unwrap();
            crate::execute(&narrow, &c).unwrap();
            let indexes: Vec<Weak<FlatIndex>> = [[0, 1], [1, 0]]
                .into_iter()
                .map(|order| {
                    let r = c.delta("R").unwrap();
                    Arc::downgrade(&r.base_index(&order.map(Attr)).unwrap())
                })
                .collect();
            let snapshot = c.freeze();
            retire(&mut c);
            // The snapshot still answers over the old base, but a plan
            // it rebuilds there is served, not cached.
            crate::execute(&full, snapshot.catalog()).unwrap();
            assert!(
                indexes.iter().all(|ix| ix.upgrade().is_some()),
                "{what}: the snapshot still reads the old base"
            );
            drop(snapshot);
            assert!(
                indexes.iter().all(|ix| ix.upgrade().is_none()),
                "{what}: nothing reads the old base, yet an index of it lives"
            );
        }
    }

    #[test]
    fn a_snapshot_answers_the_same_after_a_compaction() {
        let q = crate::parse_query("Ans(y, z) :- R(1, y), S(y, z), T(1, z).").unwrap();
        let mut c = triangle_catalog();
        c.insert_rows("S", &rows(&[&[1, 90], &[90, 1]])).unwrap();
        c.delete_rows("R", &[c.get("R").unwrap().row(0).to_vec()])
            .unwrap();
        let snapshot = c.freeze();
        let before = crate::execute(&q, snapshot.catalog()).unwrap();
        for name in ["R", "S"] {
            assert!(c.compact(name));
        }
        c.insert_rows("T", &rows(&[&[1, 90]])).unwrap();
        // The live catalog moved on (new bases, no plans over the old
        // ones); the snapshot rebuilds over the bases it pinned.
        let after = crate::execute(&q, snapshot.catalog()).unwrap();
        assert_eq!(after.relation, before.relation);
        assert_eq!(after.columns, before.columns);
        assert_ne!(
            crate::execute(&q, &c).unwrap().relation,
            before.relation,
            "the appended (1, 90, 1) path is visible to the live catalog only"
        );
    }

    #[test]
    fn remove_unregisters() {
        let mut c = Catalog::new();
        c.insert("R", Relation::from_u32_rows(Schema::of(&[0]), &[&[1]]));
        assert!(c.remove("R"));
        assert!(!c.remove("R"));
        assert!(c.get("R").is_none());
        assert!(c.generation("R").is_none());
    }
}
