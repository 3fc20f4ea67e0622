//! # wcoj — worst-case optimal join algorithms
//!
//! A from-scratch Rust implementation of
//! *Ngo, Porat, Ré, Rudra: Worst-case Optimal Join Algorithms* (PODS 2012,
//! arXiv:1203.1952): the first join algorithms whose running time matches
//! the AGM fractional-cover bound on the output size for **every** natural
//! join query — provably beating any binary-join plan on adversarial
//! inputs.
//!
//! This facade re-exports the workspace crates:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] (`wcoj-core`) | the NPRR algorithm (§5) — the one engine behind `join` and every served query — plus full conjunctive queries (constants, repeated variables; §7.3), which the query front end reduces to natural joins |
//! | [`exec`] (`wcoj-exec`) | the one root-domain shard planner: two-level work-balanced sharding of `Recursive-Join` — heavy root values split further into anchor sub-shards (`plan_shards`, `ExecConfig`); it plans and runs nothing — plus the warn-once registry every malformed `WCOJ_*` env knob reports to (`read_env_usize`, `note_malformed_env`) |
//! | [`service`] (`wcoj-service`) | the shared-pool concurrent query scheduler and the one parallel executor: one global worker pool running many in-flight queries' shard plans, one way in (`Service::submit`), bounded admission that sheds under overload, and round-robin fair dispatch; a `QueryHandle` takes a query's shard slots in order, one batch at a time or all at once (`Service`, `QueryHandle`, `SubmitError`) |
//! | [`storage`] | relations, relational algebra, the paper's search tree (`FlatIndex`, a flat counted trie), and mutable relations over live insert/delete buffers, served as one merged `FlatIndex` per content version (`DeltaRelation`) |
//! | [`hypergraph`] | query hypergraphs, fractional covers, the cover LP and AGM bounds |
//! | [`lp`] | the two-phase `f64` simplex and an exact solve of its optimal basis |
//! | [`rational`] | exact `i128` rationals |
//! | [`baselines`] (`wcoj-baselines`) | reference implementations no served crate links: binary join-project plans over the storage layer's hash join, a System-R-style optimizer, the special cases Theorem 5.1 subsumes — the Loomis–Whitney algorithm (§4) with the LW/BT instance shapes, arity-≤2 star/cycle joins (§7.1, Theorem 7.3) and Lemma 7.2's half-integral covers — and the reductions that call the join: relaxed joins (§7.2), FD expansion (§7.3), the algorithmic BT inequality (Corollary 5.3) and Lemma 3.2's tight covers |
//! | [`datagen`] | every instance family the paper's claims use |
//! | [`query`] | a Datalog-style text front-end and CSV loader |
//! | [`server`] (`wcoj-server`) | a std-only TCP/HTTP front end: blocking accept loop + connection threads over the shared service, with incremental chunked row streaming, `429`+`Retry-After` under overload, and `/metrics` exposition |
//! | [`obs`] (`wcoj-obs`) | std-only observability: the process-wide metrics registry with Prometheus exposition and log2 histograms, and the one nearest-rank percentile definition; what the scheduler did per query is read from `QueryProfile`, across queries from the `wcoj_service_*` series |
//!
//! ## Quickstart
//!
//! ```
//! use wcoj::prelude::*;
//!
//! // R(A,B) ⋈ S(B,C) ⋈ T(A,C) — the paper's motivating triangle query.
//! let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3]]);
//! let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 4], &[3, 4]]);
//! let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[1, 4]]);
//! let out = join(&[r, s, t]).unwrap();
//! assert_eq!(out.len(), 2);
//! ```

pub use wcoj_baselines as baselines;
pub use wcoj_core as core;
pub use wcoj_datagen as datagen;
pub use wcoj_exec as exec;
pub use wcoj_hypergraph as hypergraph;
pub use wcoj_lp as lp;
pub use wcoj_obs as obs;
pub use wcoj_query as query;
pub use wcoj_rational as rational;
pub use wcoj_server as server;
pub use wcoj_service as service;
pub use wcoj_storage as storage;

pub use wcoj_core::{agm_cover, join, JoinOutput, JoinQuery, JoinStats};
pub use wcoj_exec::ExecConfig;
pub use wcoj_service::{
    QueryHandle, QueryProfile, RowBatch, Service, ServiceConfig, ServiceCounters, ShardProfile,
    SubmitError,
};

/// The names most programs need.
pub mod prelude {
    pub use crate::core::nprr::PreparedQuery;
    pub use crate::core::{agm_cover, JoinQuery};
    pub use crate::exec::ExecConfig;
    pub use crate::join;
    pub use crate::query::{execute, load_csv, parse_query, submit_query, Catalog};
    pub use crate::service::{
        QueryHandle, QueryProfile, Service, ServiceConfig, ServiceCounters, SubmitError,
    };
    pub use crate::storage::{Attr, Datum, Dictionary, Relation, Schema, Value};
}
