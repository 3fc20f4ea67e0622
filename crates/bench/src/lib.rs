//! Experiment library: one function per experiment of
//! `crates/bench/README.md` — E1–E15, each regenerating the corresponding
//! quantitative claim of the paper, and the `ablation_cover` ablation —
//! as printable/serialisable tables.
//!
//! The paper has no empirical tables of its own (it is a theory paper), so
//! the "figures" reproduced here are its *worked examples, theorems, and
//! lower-bound constructions*; the README records the expected vs
//! measured shape for each. The `harness` binary prints these tables and
//! can dump them as JSON. Speed figures for the serving stack come from
//! the repo's `benchmark/`, not from here.

pub mod experiments;
pub mod table;

pub use table::{time_secs, Table};

/// All experiment ids, in order: E1–E15 regenerate the paper's claims,
/// `ablation_cover` ablates the cover and the preparation.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "e9",
    "e10",
    "e11",
    "e12",
    "e13",
    "e14",
    "e15",
    "ablation_cover",
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
        "ablation_cover" => experiments::ablation_cover(quick),
        other => panic!("unknown experiment id {other}"),
    }
}
