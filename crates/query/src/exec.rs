//! Binding a parsed query against a catalog and evaluating it.

use crate::parser::{ParsedQuery, ParsedTerm};
use crate::plan_cache::CachedPlan;
use crate::{Catalog, QueryTextError};
use std::fmt::Write as _;
use std::sync::Arc;
use wcoj_core::fullcq::{Selection, Subgoal, Term};
use wcoj_core::nprr::PreparedQuery;
use wcoj_core::JoinQuery;
use wcoj_service::{QueryHandle, QueryProfile};
use wcoj_storage::ops::project;
use wcoj_storage::{Attr, Datum, DeltaRelation, FlatIndex, Relation, StorageError};

/// Result of executing a text query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output tuples, one column per head variable (in head order).
    pub relation: Relation,
    /// Head variable names, aligned with the relation's columns.
    pub columns: Vec<String>,
}

impl QueryResult {
    /// Decodes all rows through the catalog dictionary for display.
    #[must_use]
    pub fn decoded_rows(&self, catalog: &Catalog) -> Vec<Vec<Datum>> {
        self.relation
            .iter_rows()
            .map(|row| {
                row.iter()
                    .map(|&v| catalog.decode(v).unwrap_or(Datum::Int(v.0)))
                    .collect()
            })
            .collect()
    }
}

/// A parsed query bound against a catalog, as [`submit_query`] runs it:
/// the cached prepared plan plus the head projection.
struct Bound {
    plan: crate::plan_cache::CachedPlan,
    /// The head's attributes, when projecting the join output onto them
    /// is not the identity.
    project: Option<Vec<Attr>>,
    columns: Vec<String>,
}

/// Executes a parsed query against a catalog: §7.3 reduction per atom,
/// worst-case-optimal join, projection onto the head. The same path as
/// [`submit_query`], drained at once: `submit_query(q, catalog)?.collect()`.
///
/// # Errors
/// Binding errors ([`QueryTextError::UnknownRelation`] /
/// [`QueryTextError::ArityMismatch`] /
/// [`QueryTextError::UnboundHeadVariable`]),
/// [`QueryTextError::Overloaded`] when admission sheds the submission, or
/// evaluation failures.
pub fn execute(q: &ParsedQuery, catalog: &Catalog) -> Result<QueryResult, QueryTextError> {
    submit_query(q, catalog)?.collect()
}

/// Name resolution + plan-cache lookup.
fn bind(q: &ParsedQuery, catalog: &Catalog) -> Result<Bound, QueryTextError> {
    // Variable name → id (= attribute id), in first-occurrence order.
    let mut var_names: Vec<String> = Vec::new();
    let var_id = |name: &str, var_names: &mut Vec<String>| -> u32 {
        if let Some(i) = var_names.iter().position(|v| v == name) {
            i as u32
        } else {
            var_names.push(name.to_owned());
            (var_names.len() - 1) as u32
        }
    };

    // Canonical body shape + relation *base* generations: the plan-cache
    // key. Variables are already normalised (first-occurrence ids),
    // constants are dictionary-encoded values, and the base generation
    // changes on every Catalog::insert (replace) and compaction — so
    // equal keys imply an identical prepared *shape* (reduced bases,
    // plan tree). Row mutations do not touch the key: they drift the
    // per-atom delta versions collected alongside, which the cache checks
    // to decide between serving the entry as-is and refreshing its
    // indexes.
    let mut cache_key = String::new();
    let mut delta_vers = Vec::with_capacity(q.atoms.len());
    let mut atoms: Vec<(String, Vec<Term>)> = Vec::with_capacity(q.atoms.len());
    for atom in &q.atoms {
        let arity = catalog
            .arity(&atom.relation)
            .ok_or_else(|| QueryTextError::UnknownRelation(atom.relation.clone()))?;
        if arity != atom.terms.len() {
            return Err(QueryTextError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: arity,
                got: atom.terms.len(),
            });
        }
        let terms: Vec<Term> = atom
            .terms
            .iter()
            .map(|t| match t {
                ParsedTerm::Var(v) => Term::Var(var_id(v, &mut var_names)),
                ParsedTerm::Int(n) => Term::Const(catalog.dictionary().encode(&Datum::Int(*n))),
                ParsedTerm::Str(s) => Term::Const(catalog.dictionary().encode_str(s)),
            })
            .collect();
        let base_gen = catalog
            .base_generation(&atom.relation)
            .expect("relation present: arity() succeeded above");
        delta_vers.push(
            catalog
                .delta_version(&atom.relation)
                .expect("relation present"),
        );
        let _ = write!(cache_key, "{}@{}(", atom.relation, base_gen);
        for (i, t) in terms.iter().enumerate() {
            if i > 0 {
                cache_key.push(',');
            }
            match t {
                Term::Var(v) => {
                    let _ = write!(cache_key, "?{v}");
                }
                Term::Const(c) => {
                    let _ = write!(cache_key, "={}", c.0);
                }
            }
        }
        cache_key.push_str(");");
        atoms.push((atom.relation.clone(), terms));
    }

    // Head variables must occur in the body.
    let head_attrs: Vec<Attr> = q
        .head_vars
        .iter()
        .map(|v| {
            var_names
                .iter()
                .position(|x| x == v)
                .map(|i| Attr(i as u32))
                .ok_or_else(|| QueryTextError::UnboundHeadVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;

    // §7.3 reduction + cover LP happen at most once per query shape over
    // the current *bases*: the prepared plan is served from the catalog's
    // shared cache on repeat submissions. A drift in delta versions
    // refreshes it: each constant-free atom takes its relation's index at
    // the current version (merged once per version, shared by every
    // plan), and each constant-bearing atom merges its section with its
    // reduced buffers (O(section + |delta|)).
    let plan = catalog
        .plan_cache()
        .get_or_build_versioned(
            &cache_key,
            &delta_vers,
            || build_plan(catalog, &atoms, None),
            |old| build_plan(catalog, &atoms, Some(old)),
        )
        .map_err(|e| QueryTextError::Eval(e.to_string()))?;
    // A head keeping every join variable in join-output order projects
    // onto itself.
    let identity = plan.query().output_schema().attrs() == head_attrs.as_slice();
    Ok(Bound {
        plan,
        project: (!identity).then_some(head_attrs),
        columns: q.head_vars.clone(),
    })
}

/// §7.3's reduction of one atom's frozen base. When no variable repeats
/// the base's own indexes answer it ([`DeltaRelation::base_index`], built
/// once per base and column order, shared by every plan): with no
/// constants the reduced relation is the base itself under the variables'
/// names; with constants it is the section below them in the index that
/// leads with the constant columns — (ST1) in place of the scan, so only
/// the section's rows are touched. A repeated variable falls back to
/// [`Subgoal::reduce`]'s scan. Row for row the scan's result either way.
fn reduce_base(delta: &DeltaRelation, terms: &[Term]) -> Result<Relation, StorageError> {
    let base = delta.base();
    let Some(sel) = Selection::of(terms) else {
        return Ok(Subgoal::new(base.as_ref().clone(), terms.to_vec())?.reduce());
    };
    if sel.constants.is_empty() {
        return base.with_schema(sel.schema);
    }
    let attrs = base.schema().attrs();
    let order: Vec<Attr> = sel.columns.iter().map(|&c| attrs[c]).collect();
    delta
        .base_index(&order)?
        .section(&sel.constants, sel.schema)
}

/// Prepares the plan for a bound body over each relation's merged view
/// `(base ∖ del) ∪ ins`. Each atom's three components — frozen base,
/// insert buffer, delete buffer — are reduced *separately* per §7.3. The
/// reduction is injective on rows passing its selection (every dropped
/// column is a constant or a duplicate of a kept one), so reducing
/// componentwise preserves the delta invariants (`del ⊆ base`,
/// `ins ∩ base = ∅`) and the merged reduced view equals the reduction of
/// the merged view.
///
/// An atom without constants (and without repeated variables) is its
/// relation under the variables' names, served by the relation's own
/// index in the plan's column order ([`DeltaRelation::index`]): the
/// base's index while the buffers are empty, else the index merged once
/// for the relation's current version — shared by every plan, so a plan
/// copies, scans or sorts nothing of it. Any other atom indexes its
/// reduced base (a section of a shared index, or the repeated-variable
/// scan) and merges its reduced buffers in: `O(section + |delta|)`.
///
/// With `reuse` (a cached plan over the same base generations, stale only
/// in its deltas), the `Arc`-shared reduced-base `JoinQuery` is taken
/// from the old plan — the plan tree and per-edge attribute orders are
/// derived from the hypergraph alone, so they are identical — and only
/// the indexes are taken afresh: the same `Arc` for a relation whose
/// version did not move.
fn build_plan(
    catalog: &Catalog,
    atoms: &[(String, Vec<Term>)],
    reuse: Option<&CachedPlan>,
) -> Result<CachedPlan, wcoj_core::QueryError> {
    let deltas: Vec<&DeltaRelation> = atoms
        .iter()
        .map(|(name, _)| catalog.delta(name).expect("relation bound above"))
        .collect();
    let reduce = |buffer: &Relation, terms: &[Term]| {
        Subgoal::new(buffer.clone(), terms.to_vec())
            .expect("arity checked above")
            .reduce()
    };
    let mut red_ins: Vec<Relation> = Vec::with_capacity(atoms.len());
    let mut red_del: Vec<Relation> = Vec::with_capacity(atoms.len());
    for (delta, (_, terms)) in deltas.iter().zip(atoms) {
        red_ins.push(reduce(delta.ins(), terms));
        red_del.push(reduce(delta.del(), terms));
    }
    let query = match reuse {
        Some(old) => Arc::clone(old.shared_query()),
        None => {
            let red_base = deltas
                .iter()
                .zip(atoms)
                .map(|(delta, (_, terms))| reduce_base(delta, terms))
                .collect::<Result<Vec<Relation>, _>>()?;
            Arc::new(JoinQuery::new(&red_base)?)
        }
    };
    // Effective merged-view cardinalities: exact because the reduced
    // components keep the disjointness/containment invariants above.
    let sizes: Vec<usize> = query
        .relations()
        .iter()
        .zip(red_ins.iter().zip(&red_del))
        .map(|(base, (ins, del))| base.len() - del.len() + ins.len())
        .collect();
    let rels = Arc::clone(&query);
    let plan = PreparedQuery::from_shared(query, Some(sizes), |i, order| {
        let reduced = &rels.relations()[i];
        // No column dropped means no constant and no repeat: the reduced
        // base is the base under the variables' names, and the relation's
        // index in the same column order serves it.
        if reduced.arity() == deltas[i].arity() {
            let attrs = deltas[i].schema().attrs();
            let columns = reduced.schema().positions_of(order)?;
            let base_order: Vec<Attr> = columns.into_iter().map(|c| attrs[c]).collect();
            return deltas[i].index(&base_order);
        }
        let section = FlatIndex::build(reduced, order)?;
        if red_ins[i].is_empty() && red_del[i].is_empty() {
            return Ok(Arc::new(section));
        }
        Ok(Arc::new(section.merged(&red_ins[i], &red_del[i])?))
    })?;
    Ok(Arc::new(plan))
}

/// Maps an engine error onto the typed HTTP-facing variants.
fn map_engine_error(e: wcoj_core::QueryError) -> QueryTextError {
    match e {
        // Admission-control shed: surface the typed 429 so the front end
        // can distinguish "retry later" from a real evaluation failure
        // (applies to text queries and Datalog program rules alike — both
        // route through here).
        wcoj_core::QueryError::Overloaded => QueryTextError::Overloaded,
        e => QueryTextError::Eval(e.to_string()),
    }
}

/// Projects the join output onto the head (`None`: the identity).
fn project_head(full: Relation, head: Option<&[Attr]>) -> Result<Relation, QueryTextError> {
    match head {
        None => Ok(full),
        Some(attrs) => project(&full, attrs).map_err(|e| QueryTextError::Eval(e.to_string())),
    }
}

/// The future of a [`submit_query`] submission: yields the result in
/// per-slot batches as the catalog's service settles them, instead of
/// blocking for the full relation. The streaming transport behind the HTTP
/// front end's chunked `/query/{id}/rows` endpoint.
///
/// Dropping a `PendingQuery` before draining it cancels the underlying
/// service query (workers skip its remaining shards) — a vanished
/// consumer cannot leak pool capacity.
pub struct PendingQuery {
    columns: Vec<String>,
    /// The head's attributes, when projecting onto them is not the
    /// identity.
    project: Option<Vec<Attr>>,
    handle: QueryHandle,
}

impl PendingQuery {
    /// A result already materialized in-process — a Datalog program's
    /// last rule — as a pending query holding it as one buffered batch
    /// ([`incremental`](PendingQuery::incremental) is `false`).
    #[must_use]
    pub fn materialized(result: QueryResult) -> PendingQuery {
        PendingQuery {
            columns: result.columns,
            project: None,
            handle: QueryHandle::ready(result.relation),
        }
    }

    /// Head variable names, aligned with every batch's columns.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// `true` iff batches stream incrementally: each one is a final,
    /// disjoint, correctly ordered piece of the result, so a front end
    /// can flush it to the client immediately. That holds when the
    /// projection is the identity and the handle's slot batches
    /// concatenate in output order. When `false`,
    /// [`next_batch`](PendingQuery::next_batch) yields the whole result
    /// as a single batch (the merge had to buffer anyway).
    #[must_use]
    pub fn incremental(&self) -> bool {
        self.project.is_none() && self.handle.ordered()
    }

    /// Blocks until every shard has settled, without consuming batches.
    pub fn wait_settled(&self) {
        self.handle.wait_settled();
    }

    /// The scheduler's execution profile so far. On a worker-less service
    /// it is complete once [`submit_query`] returns: one shard holding the
    /// whole join.
    #[must_use]
    pub fn profile(&self) -> QueryProfile {
        self.handle.profile()
    }

    /// Blocks until the next batch of result rows is available; `None`
    /// once the result is fully consumed. Batch columns follow
    /// [`columns`](PendingQuery::columns).
    ///
    /// # Errors
    /// Evaluation failures — a shard's engine run panicking among them —
    /// surfaced on the batch they interrupt.
    pub fn next_batch(&mut self) -> Option<Result<Relation, QueryTextError>> {
        if self.incremental() {
            // Identity projection + output-ordered slots: forward each
            // slot relation untouched.
            let batch = self.handle.next_batch()?;
            return Some(batch.map(|b| b.relation).map_err(map_engine_error));
        }
        // Merge path: every slot's raw rows assembled into one batch in
        // schema order, then projected. Yields exactly one batch;
        // subsequent calls find the handle drained.
        let merged = self.handle.next_merged()?.map_err(map_engine_error);
        Some(merged.and_then(|b| project_head(b.relation, self.project.as_deref())))
    }

    /// Drains every remaining batch into a single [`QueryResult`] — what
    /// [`execute`] returns for a freshly submitted query.
    ///
    /// # Errors
    /// Same as [`next_batch`](PendingQuery::next_batch).
    pub fn collect(self) -> Result<QueryResult, QueryTextError> {
        let full = self.handle.wait().map_err(map_engine_error)?.relation;
        Ok(QueryResult {
            relation: project_head(full, self.project.as_deref())?,
            columns: self.columns,
        })
    }
}

/// Submits a parsed query: binds it against the catalog (through the
/// shared plan cache), submits it to the catalog's
/// [`Service`](wcoj_service::Service), and returns a [`PendingQuery`]
/// yielding the result in per-slot batches as the service settles them.
/// On a worker-less service the query has already run, on this thread,
/// when this returns.
///
/// # Errors
/// Binding errors, [`QueryTextError::Overloaded`] when admission sheds
/// the submission, and failures solving the query's cover.
pub fn submit_query(q: &ParsedQuery, catalog: &Catalog) -> Result<PendingQuery, QueryTextError> {
    let Bound {
        plan,
        project,
        columns,
    } = bind(q, catalog)?;
    let service = catalog.service();
    let handle = service
        .submit(&plan, &service.exec_config())
        .map_err(|e| map_engine_error(e.into()))?;
    Ok(PendingQuery {
        columns,
        project,
        handle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_csv, parse_query};
    use proptest::prelude::*;
    use wcoj_storage::{Schema, Value};

    fn catalog_with_triangle() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "R",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3]]),
        );
        c.insert(
            "S",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[2, 4], &[3, 4]]),
        );
        c.insert(
            "T",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 4]]),
        );
        c
    }

    #[test]
    fn end_to_end_triangle() {
        let c = catalog_with_triangle();
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.columns, vec!["x", "y", "z"]);
        assert_eq!(out.relation.len(), 2);
        assert!(out.relation.contains_row(&[Value(1), Value(2), Value(4)]));
    }

    #[test]
    fn projection_head() {
        let c = catalog_with_triangle();
        let q = parse_query("Ans(x) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.relation.len(), 1);
        assert!(out.relation.contains_row(&[Value(1)]));
    }

    #[test]
    fn reordered_head() {
        let c = catalog_with_triangle();
        let q = parse_query("Ans(z, x) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.columns, vec!["z", "x"]);
        assert!(out.relation.contains_row(&[Value(4), Value(1)]));
    }

    #[test]
    fn constants_in_query() {
        let c = catalog_with_triangle();
        let q = parse_query("Ans(y) :- R(1, y)").unwrap();
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.relation.len(), 2); // y ∈ {2, 3}
    }

    #[test]
    fn binding_errors() {
        let c = catalog_with_triangle();
        let q = parse_query("Ans(x) :- Nope(x)").unwrap();
        assert!(matches!(
            execute(&q, &c),
            Err(QueryTextError::UnknownRelation(_))
        ));
        let q = parse_query("Ans(x) :- R(x)").unwrap();
        assert!(matches!(
            execute(&q, &c),
            Err(QueryTextError::ArityMismatch { .. })
        ));
        let q = parse_query("Ans(w) :- R(x, y)").unwrap();
        assert!(matches!(
            execute(&q, &c),
            Err(QueryTextError::UnboundHeadVariable(_))
        ));
    }

    #[test]
    fn csv_to_query_pipeline() {
        let mut c = Catalog::new();
        let edges = load_csv("alice,bob\nbob,carol\nalice,carol\n", c.dictionary()).unwrap();
        c.insert("E", edges);
        let q = parse_query("Tri(x, y, z) :- E(x, y), E(y, z), E(x, z).").unwrap();
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.relation.len(), 1);
        let decoded = out.decoded_rows(&c);
        assert_eq!(
            decoded[0],
            vec![Datum::str("alice"), Datum::str("bob"), Datum::str("carol")]
        );
    }

    #[test]
    fn parallel_catalog_matches_sequential() {
        // The parallel route is the attached service's pool, at any size
        // and with planning fine enough to split the tiny triangle.
        use std::sync::Arc;
        use wcoj_service::{Service, ServiceConfig};
        let mut c = catalog_with_triangle();
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let seq = execute(&q, &c).unwrap();
        for workers in [1, 2, 4, 8] {
            let service = Arc::new(Service::new(ServiceConfig {
                exec: wcoj_exec::ExecConfig {
                    shard_min_size: 1,
                    ..wcoj_exec::ExecConfig::default()
                },
                ..ServiceConfig::with_workers(workers)
            }));
            c.set_service(Some(Arc::clone(&service)));
            for _ in 0..2 {
                let par = execute(&q, &c).unwrap();
                assert_eq!(par.relation, seq.relation, "{workers} workers");
                assert_eq!(par.columns, seq.columns);
            }
            assert_eq!(
                service.counters().submitted,
                2,
                "all queries routed to the pool"
            );
        }
        c.set_service(None);
        assert_eq!(execute(&q, &c).unwrap().relation, seq.relation);
    }

    #[test]
    fn hot_key_workload_through_catalog_routes() {
        // A single-hot-key workload through the worker-less and the
        // pooled route. The intra-value sub-shard planner sits under the
        // pooled service; outputs must be bit-identical to the worker-less
        // run (`worker_less_route_matches_sequential_evaluation` pins that
        // one to sequential evaluation) whatever the heavy-split factor.
        use std::sync::Arc;
        use wcoj_service::{Service, ServiceConfig};
        let rels = wcoj_datagen::hot_key_triangle(17, 64, 4);
        let mut c = Catalog::new();
        for (name, rel) in ["R", "S", "T"].iter().zip(rels) {
            c.insert(*name, rel);
        }
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let seq = execute(&q, &c).unwrap();
        for factor in [0usize, 1, 8] {
            let service = Arc::new(Service::new(ServiceConfig {
                exec: wcoj_exec::ExecConfig {
                    shard_min_size: 1,
                    heavy_split_factor: factor,
                },
                ..ServiceConfig::with_workers(4)
            }));
            c.set_service(Some(Arc::clone(&service)));
            let pooled = execute(&q, &c).unwrap();
            assert_eq!(pooled.relation, seq.relation, "service, factor {factor}");
            assert_eq!(service.counters().submitted, 1);
        }
    }

    #[test]
    fn profiled_execution_through_catalog_routes() {
        use wcoj_service::{Service, ServiceConfig};
        let mut c = catalog_with_triangle();
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let seq = execute(&q, &c).unwrap();
        for workers in [0, 2] {
            // Once every batch is taken, the profile is complete, covers
            // every scheduled shard, and its row total matches the
            // *pre-projection* join — which for this full query is the
            // output itself. Without workers it is one shard, complete
            // as soon as the submission returns.
            let service = Arc::new(Service::new(ServiceConfig {
                workers,
                ..ServiceConfig::default()
            }));
            c.set_service(Some(Arc::clone(&service)));
            let mut pending = crate::submit_query(&q, &c).unwrap();
            if workers == 0 {
                let profile = pending.profile();
                assert!(profile.is_complete());
                assert_eq!(profile.total_shards, 1);
                assert_eq!(profile.total_rows(), seq.relation.len() as u64);
            }
            let mut rows = 0;
            while let Some(batch) = pending.next_batch() {
                rows += batch.unwrap().len();
            }
            let profile = pending.profile();
            assert!(profile.is_complete(), "{workers} workers");
            assert!(profile.reassembled.is_some(), "every slot taken");
            assert_eq!(rows, seq.relation.len());
            assert_eq!(profile.total_rows(), rows as u64);
            // execute() is the same path, drained at once.
            assert_eq!(execute(&q, &c).unwrap().relation, seq.relation);
            assert_eq!(service.counters().submitted, 2);
        }
    }

    #[test]
    fn overloaded_service_surfaces_typed_rejection() {
        // A catalog routed through a bounded 1-worker service whose two
        // admission slots are pinned by long-running 5-cycle queries:
        // executing a text query sheds with the typed Overloaded error
        // (not a panic, not a stringly Eval), and succeeds again once the
        // queue drains.
        use std::sync::Arc;
        let (service, blockers) = crate::test_support::overloaded_service(19);

        let mut c = catalog_with_triangle();
        c.set_service(Some(Arc::clone(&service)));
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        assert!(
            matches!(execute(&q, &c), Err(QueryTextError::Overloaded)),
            "full service queue → typed 429"
        );
        for b in blockers {
            b.wait().unwrap();
        }
        // queue drained: the same query is admitted and evaluates
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.relation.len(), 2);
    }

    #[test]
    fn repeated_submissions_hit_the_plan_cache() {
        let c = catalog_with_triangle();
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let first = execute(&q, &c).unwrap();
        assert_eq!(c.plan_cache_stats(), (0, 1), "first submission builds");
        for round in 1..=3 {
            let again = execute(&q, &c).unwrap();
            assert_eq!(again.relation, first.relation);
            assert_eq!(
                c.plan_cache_stats(),
                (round, 1),
                "repeat submissions are served from the cache"
            );
        }
        // Alpha-equivalent shape (renamed variables, different head) maps
        // to the same canonical key — still a hit, projection differs.
        let renamed = parse_query("Out(c, a, b) :- R(a, b), S(b, c), T(a, c).").unwrap();
        let out = execute(&renamed, &c).unwrap();
        assert_eq!(c.plan_cache_stats(), (4, 1));
        assert_eq!(out.columns, vec!["c", "a", "b"]);
        assert_eq!(out.relation.len(), first.relation.len());
        assert!(out.relation.contains_row(&[Value(4), Value(1), Value(2)]));
        // A genuinely different shape (constant in place of a variable)
        // is a new key.
        let narrowed = parse_query("Ans(y) :- R(1, y)").unwrap();
        execute(&narrowed, &c).unwrap();
        assert_eq!(c.plan_cache_stats(), (4, 2));
    }

    #[test]
    fn replacing_a_relation_invalidates_cached_plans() {
        // Satellite bugfix pin: without generation stamps in the cache
        // key, the second query would be served the plan prepared over
        // R's *old* rows — a stale read.
        let mut c = catalog_with_triangle();
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let gen_before = c.generation("R").expect("R is registered");
        let before = execute(&q, &c).unwrap();
        assert_eq!(before.relation.len(), 2);
        assert_eq!(c.plan_cache_stats(), (0, 1));
        assert_eq!(
            c.generation("R"),
            Some(gen_before),
            "queries do not advance the generation"
        );

        // Replace R with a single edge that breaks one of the triangles.
        let s_gen = c.generation("S");
        c.insert(
            "R",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2]]),
        );
        let gen_after = c.generation("R").expect("still registered");
        assert!(
            gen_after > gen_before,
            "a replace draws a fresh globally unique generation"
        );
        assert_eq!(c.generation("S"), s_gen, "untouched relations keep theirs");
        let after = execute(&q, &c).unwrap();
        assert_eq!(
            after.relation.len(),
            1,
            "query reflects the replaced relation, not the cached plan"
        );
        assert!(after.relation.contains_row(&[Value(1), Value(2), Value(4)]));
        assert_eq!(
            c.plan_cache_stats(),
            (0, 2),
            "no stale hits: the replace forced a rebuild"
        );

        // The new plan is itself cacheable.
        execute(&q, &c).unwrap();
        assert_eq!(c.plan_cache_stats(), (1, 2));
    }

    #[test]
    fn row_mutations_refresh_cached_plans_without_rebuilding_the_shape() {
        // Appends and deletes must be visible to the very next query, but
        // they only refresh the cached plan's indexes: same shape key
        // (base generation unchanged), no extra miss, shared reduced-base
        // JoinQuery.
        let mut c = catalog_with_triangle();
        c.set_compact_threshold(usize::MAX);
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let before = execute(&q, &c).unwrap();
        assert_eq!(before.relation.len(), 2);
        assert_eq!(c.plan_cache_stats(), (0, 1));
        assert_eq!(c.plan_cache().refreshes(), 0);

        // Append an edge completing a third triangle: (1,5),(5,4) with
        // T(1,4) already present.
        c.insert_rows("R", &[vec![Value(1), Value(5)]]).unwrap();
        c.insert_rows("S", &[vec![Value(5), Value(4)]]).unwrap();
        let after = execute(&q, &c).unwrap();
        assert_eq!(after.relation.len(), 3, "appends visible immediately");
        assert!(after.relation.contains_row(&[Value(1), Value(5), Value(4)]));
        assert_eq!(
            c.plan_cache_stats(),
            (0, 1),
            "no new build: the cached shape was refreshed"
        );
        assert_eq!(c.plan_cache().refreshes(), 1);

        // Delete one base edge: the first triangle disappears.
        c.delete_rows("R", &[vec![Value(1), Value(2)]]).unwrap();
        let third = execute(&q, &c).unwrap();
        assert_eq!(third.relation.len(), 2);
        assert!(!third.relation.contains_row(&[Value(1), Value(2), Value(4)]));
        assert_eq!(c.plan_cache_stats(), (0, 1));
        assert_eq!(c.plan_cache().refreshes(), 2);

        // Stable deltas: the refreshed entry now hits.
        let again = execute(&q, &c).unwrap();
        assert_eq!(again.relation, third.relation);
        assert_eq!(c.plan_cache_stats(), (1, 1));
        assert_eq!(c.plan_cache().refreshes(), 2);

        // The delta view must agree exactly with a cold catalog holding
        // the materialized contents.
        let mut cold = Catalog::new();
        for name in ["R", "S", "T"] {
            cold.insert(name, c.get(name).unwrap());
        }
        assert_eq!(execute(&q, &cold).unwrap().relation, third.relation);

        // Compaction folds the buffers into a fresh base: new shape key,
        // one genuine rebuild, same rows.
        assert!(c.compact("R"));
        assert!(c.compact("S"));
        let compacted = execute(&q, &c).unwrap();
        assert_eq!(compacted.relation, third.relation);
        assert_eq!(c.plan_cache_stats(), (1, 2));
    }

    #[test]
    fn base_drift_retires_the_superseded_plans() {
        // Sustained ingest compacts again and again; each compaction
        // changes the key, and the plan over the old base must go with
        // it rather than pin that base until 64 newer plans evict it.
        let mut c = catalog_with_triangle();
        c.set_compact_threshold(usize::MAX);
        let full = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let narrow = parse_query("Ans(y) :- R(1, y)").unwrap();
        for round in 0..5u64 {
            c.insert_rows("R", &[vec![Value(100 + round), Value(200 + round)]])
                .unwrap();
            execute(&full, &c).unwrap();
            execute(&narrow, &c).unwrap();
            assert_eq!(c.plan_cache().len(), 2, "round {round}: one plan per shape");
            assert!(c.compact("R"));
        }
        assert_eq!(c.plan_cache().len(), 0, "both shapes read R's old base");
        execute(&full, &c).unwrap();
        // Replacing or removing a relation retires its plans the same way;
        // plans that never touched it stay.
        let only_s = parse_query("Ans(y, z) :- S(y, z)").unwrap();
        execute(&only_s, &c).unwrap();
        assert_eq!(c.plan_cache().len(), 2);
        c.insert("T", c.get("T").unwrap());
        assert_eq!(c.plan_cache().len(), 1);
        assert!(c.remove("R"));
        assert_eq!(c.plan_cache().len(), 1);
        let (hits, _) = c.plan_cache_stats();
        execute(&only_s, &c).unwrap();
        assert_eq!(c.plan_cache_stats().0, hits + 1, "S's plan survived");
    }

    #[test]
    fn constants_see_delta_mutations() {
        // Constant selections reduce the buffers per-atom; make sure the
        // reduced delta components line up with the reduced base.
        let mut c = catalog_with_triangle();
        c.set_compact_threshold(usize::MAX);
        let q = parse_query("Ans(y) :- R(1, y)").unwrap();
        assert_eq!(execute(&q, &c).unwrap().relation.len(), 2); // y ∈ {2,3}
        c.insert_rows("R", &[vec![Value(1), Value(9)], vec![Value(7), Value(8)]])
            .unwrap();
        c.delete_rows("R", &[vec![Value(1), Value(3)]]).unwrap();
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.relation.len(), 2); // y ∈ {2, 9}
        assert!(out.relation.contains_row(&[Value(9)]));
        assert!(!out.relation.contains_row(&[Value(3)]));
        assert_eq!(c.plan_cache().refreshes(), 1);
    }

    #[test]
    fn catalog_clones_share_one_plan_cache() {
        let c = catalog_with_triangle();
        let clone = c.clone();
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        execute(&q, &c).unwrap();
        let out = execute(&q, &clone).unwrap();
        assert_eq!(out.relation.len(), 2);
        assert_eq!(c.plan_cache_stats(), (1, 1), "clone hit the shared entry");
        assert_eq!(clone.plan_cache_stats(), (1, 1));
    }

    /// `bound.plan.evaluate(None)` projected onto the head: what
    /// `submit_query` must yield for `q` on any service.
    fn sequential_reference(q: &ParsedQuery, c: &Catalog) -> Relation {
        let bound = bind(q, c).unwrap();
        let full = bound.plan.evaluate(None).unwrap().relation;
        match &bound.project {
            Some(head) => project(&full, head).unwrap(),
            None => full,
        }
    }

    #[test]
    fn worker_less_route_matches_sequential_evaluation() {
        // A new catalog's own service has no worker: each query runs as
        // one unrestricted task on this thread, so its output must be
        // `PreparedQuery::evaluate`'s, row for row and in order, on every
        // shape, and even where a pooled service plans zero shards.
        use wcoj_service::{Service, ServiceConfig};
        let mut c = Catalog::new();
        assert_eq!(c.service().workers(), 0);
        let e = wcoj_datagen::random_relation(11, &[0, 1], 150, 14);
        let first = e.iter_rows().next().unwrap().to_vec();
        c.insert("E", e);
        c.insert("Z", Relation::empty(Schema::of(&[0, 1])));
        // The zero-shard instance: R's x values and T's never meet.
        c.insert(
            "R",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[10, 1], &[10, 2]]),
        );
        c.insert(
            "S",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 20], &[2, 20]]),
        );
        c.insert(
            "T",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[12, 20]]),
        );
        let nullary = format!("Ans() :- E({}, {}).", first[0].0, first[1].0);
        for (text, empty) in [
            ("Ans(x, y, z) :- E(x, y), E(y, z), E(x, z).", false),
            (
                "Ans(a, b, c, d) :- E(a, b), E(b, c), E(c, d), E(d, a).",
                false,
            ),
            ("Ans(a, b, c, d) :- E(a, b), E(a, c), E(a, d).", false),
            ("Ans(x, y, z) :- E(x, y), E(x, z).", false),
            ("Ans(x) :- E(x, y), E(y, z), E(x, z).", false),
            ("Ans(z, x, y) :- E(x, y), E(y, z), E(x, z).", false),
            ("Ans(x, y, z) :- E(x, y), Z(y, z).", true),
            (nullary.as_str(), false),
            ("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).", true),
        ] {
            let q = parse_query(text).unwrap();
            let expected = sequential_reference(&q, &c);
            assert_eq!(expected.is_empty(), empty, "{text}");
            let pending = crate::submit_query(&q, &c).unwrap();
            let ran = pending.profile().is_complete();
            assert!(ran, "{text}: ran before submit returned");
            let got = pending.collect().unwrap();
            assert_eq!(got.columns, q.head_vars, "{text}");
            assert_eq!(got.relation.schema(), expected.schema(), "{text}");
            assert!(got.relation.iter_rows().eq(expected.iter_rows()), "{text}");
        }
        // On a pooled service the last instance plans no shard at all.
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        let pooled = Service::new(ServiceConfig::with_workers(2));
        let cfg = wcoj_exec::ExecConfig {
            shard_min_size: 1,
            ..pooled.exec_config()
        };
        let plan = bind(&q, &c).unwrap().plan;
        assert!(pooled.shard_layout(&*plan, &cfg).is_empty());
        assert_eq!(c.service().shard_layout(&*plan, &cfg), vec![None]);
    }

    #[test]
    fn submit_query_matches_sequential_evaluation_on_every_route() {
        // Every next_batch branch — a full head in schema order (streams
        // slot by slot), the 4-cycle (its total order (a, b, d, c) starts
        // like the schema, so it streams too, each slot re-keyed), a
        // permuted full head (merge), a projecting head (merge + project)
        // and the 2-star (its center comes last under every edge order,
        // so merge) — on a worker-less and a pooled service, against
        // sequential evaluation of the bound plan plus the head projection.
        use wcoj_service::{Service, ServiceConfig};
        let mut c = Catalog::new();
        c.insert("E", wcoj_datagen::random_relation(11, &[0, 1], 150, 14));
        let services = [0, 2].map(|workers| {
            Arc::new(Service::new(ServiceConfig {
                workers,
                exec: wcoj_exec::ExecConfig {
                    shard_min_size: 1,
                    ..wcoj_exec::ExecConfig::default()
                },
                queue_depth: 0,
            }))
        });
        for (text, streams) in [
            ("Ans(x, y, z) :- E(x, y), E(y, z), E(x, z).", true),
            ("Ans(z, x, y) :- E(x, y), E(y, z), E(x, z).", false),
            ("Ans(x) :- E(x, y), E(y, z), E(x, z).", false),
            (
                "Ans(a, b, c, d) :- E(a, b), E(b, c), E(c, d), E(d, a).",
                true,
            ),
            ("Ans(x, y, z) :- E(x, y), E(x, z).", false),
        ] {
            let q = parse_query(text).unwrap();
            let expected = sequential_reference(&q, &c);
            assert!(!expected.is_empty(), "{text}");
            for service in &services {
                let workers = service.workers();
                c.set_service(Some(Arc::clone(service)));
                let mut pending = crate::submit_query(&q, &c).unwrap();
                assert_eq!(pending.columns(), q.head_vars.as_slice());
                assert_eq!(pending.incremental(), streams, "{text}");
                let batches: Vec<Relation> = std::iter::from_fn(|| pending.next_batch())
                    .map(Result::unwrap)
                    .collect();
                if streams && workers > 0 {
                    assert!(batches.len() >= 2, "{text}: one batch per slot");
                } else {
                    assert_eq!(batches.len(), 1, "{text}, {workers} workers");
                }
                // Plain concatenation, no final sort.
                let mut batches = batches.into_iter();
                let mut got = batches.next().unwrap();
                for batch in batches {
                    for row in batch.iter_rows() {
                        got.push_row(row).unwrap();
                    }
                }
                assert_eq!(got, expected, "{text}, {workers} workers");
                let collected = crate::submit_query(&q, &c).unwrap().collect().unwrap();
                assert_eq!(collected.relation, expected, "{text}, {workers} workers");
                assert_eq!(collected.columns, q.head_vars);
            }
        }
        for service in &services {
            assert_eq!(
                service.counters().submitted,
                10,
                "two submissions per query"
            );
        }
    }

    #[test]
    fn streaming_submission_batches_concatenate_in_order() {
        // A single-atom full query over a service: identity projection +
        // canonical total order → incremental batches whose plain
        // concatenation is the final relation.
        use std::sync::Arc;
        use wcoj_service::{Service, ServiceConfig};
        let mut c = Catalog::new();
        c.insert("E", wcoj_datagen::random_relation(11, &[0, 1], 150, 14));
        // Per-shard minimum forced down so the 150-row root domain splits
        // into several slots — otherwise one shard = one batch.
        let service = Arc::new(Service::new(ServiceConfig {
            exec: wcoj_exec::ExecConfig {
                shard_min_size: 1,
                ..wcoj_exec::ExecConfig::default()
            },
            ..ServiceConfig::with_workers(3)
        }));
        c.set_service(Some(Arc::clone(&service)));
        let q = parse_query("Ans(x, y) :- E(x, y).").unwrap();
        let expected = execute(&q, &c).unwrap();

        let mut pending = crate::submit_query(&q, &c).unwrap();
        assert!(pending.incremental(), "identity head + canonical order");
        let mut merged = wcoj_storage::Relation::empty(expected.relation.schema().clone());
        let mut batches = 0;
        while let Some(batch) = pending.next_batch() {
            for row in batch.unwrap().iter_rows() {
                merged.push_row(row).unwrap();
            }
            batches += 1;
        }
        assert!(
            batches >= 2,
            "multi-shard plan streamed {batches} batch(es)"
        );
        // No final sort: batch order is output order.
        assert_eq!(merged, expected.relation);

        // A projected head through the same service buffers into one
        // batch but still matches execute().
        let q = parse_query("Ans(y) :- E(x, y).").unwrap();
        let expected = execute(&q, &c).unwrap();
        let mut pending = crate::submit_query(&q, &c).unwrap();
        assert!(!pending.incremental(), "projection forces the merge path");
        let only = pending.next_batch().unwrap().unwrap();
        assert_eq!(only, expected.relation);
        assert!(pending.next_batch().is_none());
    }

    #[test]
    fn overloaded_submit_query_surfaces_typed_rejection() {
        use std::sync::Arc;
        let (service, blockers) = crate::test_support::overloaded_service(31);
        let mut c = catalog_with_triangle();
        c.set_service(Some(Arc::clone(&service)));
        let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
        assert!(matches!(
            crate::submit_query(&q, &c),
            Err(QueryTextError::Overloaded)
        ));
        for b in blockers {
            b.wait().unwrap();
        }
        let out = crate::submit_query(&q, &c).unwrap().collect().unwrap();
        assert_eq!(out.relation.len(), 2);
    }

    /// The plan `build_plan` would cache, prepared from scratch by
    /// [`Subgoal::reduce`]'s scan: the query over each atom's reduced
    /// base, and each index built afresh over the reduction of the
    /// relation's materialized view. The differential oracle for the
    /// shared-index and merge paths.
    fn scanned_plan(
        catalog: &Catalog,
        atoms: &[(String, Vec<Term>)],
    ) -> Result<CachedPlan, wcoj_core::QueryError> {
        let reduce = |component: Relation, terms: &[Term]| {
            Subgoal::new(component, terms.to_vec()).unwrap().reduce()
        };
        let part = |pick: fn(&DeltaRelation) -> Relation| -> Vec<Relation> {
            atoms
                .iter()
                .map(|(name, terms)| reduce(pick(catalog.delta(name).unwrap()), terms))
                .collect()
        };
        let red_base = part(|d| d.base().as_ref().clone());
        let red_view = part(DeltaRelation::materialize);
        let sizes = red_view.iter().map(Relation::len).collect();
        let query = Arc::new(JoinQuery::new(&red_base)?);
        let plan = PreparedQuery::from_shared(query, Some(sizes), |i, order| {
            FlatIndex::build(&red_view[i], order).map(Arc::new)
        })?;
        Ok(Arc::new(plan))
    }

    /// `cells` cut into rows of `arity` values.
    fn rows_of(cells: &[u64], arity: usize) -> Vec<Vec<Value>> {
        cells
            .chunks_exact(arity)
            .map(|r| r.iter().map(|&v| Value(v)).collect())
            .collect()
    }

    /// One term per pick: below 4 a variable (two columns drawing the
    /// same one repeat it), from 4 up the constant `pick − 4` — which the
    /// caller's value domain makes absent for the largest picks.
    fn terms_of(picks: &[u64]) -> Vec<Term> {
        let term = |&p: &u64| match p.checked_sub(4) {
            None => Term::Var(p as u32),
            Some(c) => Term::Const(Value(c)),
        };
        picks.iter().map(term).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// §7.3 selection by index descent ≡ the scan, row for row: any
        /// arity 1–4, constants in any subset of columns (values 4 and 5
        /// occur in no row → empty), repeated variables, both at once.
        #[test]
        fn index_selection_equals_the_scan(
            arity in 1usize..5,
            cells in prop::collection::vec(0u64..4, 0..160),
            picks in prop::collection::vec(0u64..10, 4),
        ) {
            let schema: Schema = (10..10 + arity as u32).map(Attr).collect();
            let base = Relation::from_rows(schema, rows_of(&cells, arity)).unwrap();
            let terms = terms_of(&picks[..arity]);
            let scanned = Subgoal::new(base.clone(), terms.clone()).unwrap().reduce();
            let delta = DeltaRelation::new(base);
            prop_assert_eq!(reduce_base(&delta, &terms).unwrap(), scanned, "{:?}", terms);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Triangle and path bodies with constants, over relations whose
        /// insert and delete buffers are non-empty: the plan built through
        /// the bases' shared indexes evaluates to the same rows in the
        /// same order, by the same decisions, as the plan built by
        /// scanning and indexing everything afresh.
        #[test]
        fn shared_index_plans_equal_scanned_plans(
            cells in prop::collection::vec(0u64..5, 180),
            writes in prop::collection::vec(0u64..6, 36),
            picks in prop::collection::vec(0u64..16, 6),
            triangle in any::<bool>(),
        ) {
            let mut catalog = Catalog::new();
            catalog.set_compact_threshold(usize::MAX);
            let names = ["R", "S", "T"];
            for (i, name) in names.into_iter().enumerate() {
                let rows = rows_of(&cells[i * 60..(i + 1) * 60], 2);
                catalog.insert(name, Relation::from_rows(Schema::of(&[0, 1]), rows).unwrap());
                // Delete two rows the base has, append six it may not.
                let base = catalog.get(name).unwrap();
                let doomed: Vec<Vec<Value>> = base.iter_rows().take(2).map(<[_]>::to_vec).collect();
                catalog.delete_rows(name, &doomed).unwrap();
                catalog.insert_rows(name, &rows_of(&writes[i * 12..(i + 1) * 12], 2)).unwrap();
                prop_assert!(catalog.delta(name).unwrap().delta_len() > 0);
            }
            // R(a,b), S(b,c)[, T(a,c)] with about a quarter of the terms
            // replaced by a constant (5 occurs only in appended rows).
            let vars = [0u32, 1, 1, 2, 0, 2];
            let atoms: Vec<(String, Vec<Term>)> = (0..if triangle { 3 } else { 2 })
                .map(|i| {
                    let term = |j: usize| match picks[j].checked_sub(10) {
                        None => Term::Var(vars[j]),
                        Some(c) => Term::Const(Value(c)),
                    };
                    (names[i].to_owned(), vec![term(2 * i), term(2 * i + 1)])
                })
                .collect();

            let shared = build_plan(&catalog, &atoms, None);
            let scanned = scanned_plan(&catalog, &atoms);
            let (shared, scanned) = match (shared, scanned) {
                (Ok(shared), Ok(scanned)) => (shared, scanned),
                (shared, scanned) => panic!(
                    "{atoms:?}: shared {:?}, scanned {:?}",
                    shared.err(),
                    scanned.err()
                ),
            };
            prop_assert_eq!(shared.query().relations(), scanned.query().relations());
            prop_assert_eq!(shared.input_sizes(), scanned.input_sizes());
            let (a, b) = (shared.evaluate(None).unwrap(), scanned.evaluate(None).unwrap());
            prop_assert_eq!(&a.relation, &b.relation, "{:?}", atoms);
            prop_assert_eq!(a.stats.intermediate_tuples, b.stats.intermediate_tuples);
            prop_assert_eq!((a.stats.case_a, a.stats.case_b), (b.stats.case_a, b.stats.case_b));
            prop_assert_eq!(a.stats.cover, b.stats.cover);
            prop_assert_eq!(a.stats.log2_agm_bound.to_bits(), b.stats.log2_agm_bound.to_bits());
            // A delta refresh of the shared plan stays on the same rows.
            let refreshed = build_plan(&catalog, &atoms, Some(&shared)).unwrap();
            prop_assert_eq!(refreshed.evaluate(None).unwrap().relation, b.relation);
        }
    }

    #[test]
    fn error_to_http_status_mapping() {
        assert_eq!(
            QueryTextError::Parse {
                message: "x".into(),
                at: 0
            }
            .http_status(),
            400
        );
        assert_eq!(
            QueryTextError::UnknownRelation("R".into()).http_status(),
            404
        );
        assert_eq!(
            QueryTextError::ArityMismatch {
                relation: "R".into(),
                expected: 2,
                got: 3
            }
            .http_status(),
            400
        );
        assert_eq!(
            QueryTextError::UnboundHeadVariable("x".into()).http_status(),
            400
        );
        assert_eq!(QueryTextError::Overloaded.http_status(), 429);
        assert_eq!(QueryTextError::Eval("boom".into()).http_status(), 500);
    }

    #[test]
    fn string_constants_filter() {
        let mut c = Catalog::new();
        let r = load_csv("alice,1\nbob,2\n", c.dictionary()).unwrap();
        c.insert("R", r);
        let q = parse_query(r#"Ans(n) :- R("alice", n)"#).unwrap();
        let out = execute(&q, &c).unwrap();
        assert_eq!(out.relation.len(), 1);
        assert!(out.relation.contains_row(&[Value(1)]));
    }
}
