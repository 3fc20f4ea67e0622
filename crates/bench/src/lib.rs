//! Experiment library: one function per experiment in `DESIGN.md` §4
//! (E1–E15), each regenerating the corresponding quantitative claim of the
//! paper as a printable/serialisable table.
//!
//! The paper has no empirical tables of its own (it is a theory paper), so
//! the "figures" reproduced here are its *worked examples, theorems, and
//! lower-bound constructions*; `EXPERIMENTS.md` records the expected vs
//! measured shape for each. The `harness` binary prints these tables and
//! can dump them as JSON.

pub mod experiments;
pub mod table;

pub use table::{time_secs, Table};

/// All experiment ids, in order. E1–E15 regenerate the paper's claims;
/// E17 records the shared-pool query service's concurrent throughput,
/// E19 service admission
/// control (shed counts + wait-latency percentiles under a flood), E20
/// per-query execution profiles and the scheduler trace ring, E21 the
/// prepared-plan cache's repeat-query submission cost drop, E22 query
/// latency under sustained ingest (fresh delta buffers vs compacted).
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e17", "e19", "e20", "e21", "e22",
];

/// Runs one experiment by id. `quick` shrinks the sweeps for CI-speed runs.
///
/// # Panics
/// Panics on an unknown id (the harness validates ids first).
#[must_use]
pub fn run_experiment(id: &str, quick: bool) -> Vec<Table> {
    match id {
        "e1" => experiments::e1_triangle_hard(quick),
        "e2" => experiments::e2_agm_tight(quick),
        "e3" => experiments::e3_lw_scaling(quick),
        "e4" => experiments::e4_worked_example(),
        "e5" => experiments::e5_figure2_tree(),
        "e6" => experiments::e6_nprr_general(quick),
        "e7" => experiments::e7_lower_bound_gap(quick),
        "e8" => experiments::e8_embedded_gap(quick),
        "e9" => experiments::e9_cycles(quick),
        "e10" => experiments::e10_graph_queries(quick),
        "e11" => experiments::e11_relaxed(quick),
        "e12" => experiments::e12_fd(quick),
        "e13" => experiments::e13_bt(quick),
        "e14" => experiments::e14_full_cq(),
        "e15" => experiments::e15_tighten(),
        "e17" => experiments::e17_service_throughput(quick),
        "e19" => experiments::e19_overload_shedding(quick),
        "e20" => experiments::e20_obs_profiles(quick),
        "e21" => experiments::e21_plan_cache(quick),
        "e22" => experiments::e22_ingest_latency(quick),
        other => panic!("unknown experiment id {other}"),
    }
}
