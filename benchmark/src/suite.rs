//! `suite`: every workload, each run in its own child process (so that
//! `peak_rss_mib` and the global metrics registry are per run), reduced
//! to medians and quartiles across runs and written as one JSON file.

use crate::json::Json;
use crate::ladder::PER_LAYER;
use crate::single::{MetricDef, BOUND, DEFAULT_ROUNDS, END_TO_END, WRITE_METRICS};
use crate::stats::quartiles;
use crate::workload::{Kind, CLIENTS, SPECS};
use crate::Flags;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Seed of the first run unless `--seed` says otherwise; run `i` uses
/// `seed + i`.
const DEFAULT_SEED: u64 = 11;
/// Measured seconds per run; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Untraced runs per workload.
const DEFAULT_RUNS: usize = 5;

/// Per-layer counts that must repeat exactly under a fixed seed on the
/// read-only workloads.
pub const EXACT_COUNTS: [&str; 7] = [
    "server.bytes_out_per_req",
    "core.rows_out",
    "core.intermediate_tuples",
    "core.case_a",
    "core.case_b",
    "core.allocs_per_row",
    "core.alloc_bytes_per_row",
];

struct Args {
    seed: u64,
    seconds: f64,
    runs: usize,
    rounds: usize,
    kinds: Vec<Kind>,
    trace_only: bool,
    quick: bool,
    results_dir: PathBuf,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut f = Flags::new(args);
        let quick = f.switch("--quick");
        let mut kinds = Vec::new();
        for name in f.values("--workload")? {
            kinds.push(Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
        }
        if kinds.is_empty() {
            kinds = SPECS
                .iter()
                .filter_map(|s| Kind::from_name(s.name))
                .collect();
        }
        let seconds = f.seconds()?;
        let parsed = Args {
            seed: f.value("--seed")?.unwrap_or(DEFAULT_SEED),
            // the smoke shape: one round of one second, never judged on time
            seconds: seconds.unwrap_or(if quick { 1.0 } else { DEFAULT_SECONDS }),
            runs: f
                .value("--runs")?
                .unwrap_or(if quick { 1 } else { DEFAULT_RUNS })
                .max(1),
            rounds: f
                .value("--rounds")?
                .unwrap_or(if quick { 1 } else { DEFAULT_ROUNDS })
                .max(1),
            kinds,
            trace_only: f.switch("--trace-only"),
            quick,
            results_dir: f
                .value("--results-dir")?
                .unwrap_or_else(|| PathBuf::from("benchmark/results")),
        };
        match f.finish()?.first() {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(parsed),
        }
    }
}

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
    detail: Json,
}

/// Runs `single` in a child process and parses its result line and its
/// `#detail` line.
fn run_child(args: &Args, kind: Kind, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let name = kind.spec().name;
    let output = Command::new(exe)
        .args(["single", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rounds", &args.rounds.to_string()])
        .arg("--results-dir")
        .arg(&args.results_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "the {name} run (seed {seed}) exited with {}",
            output.status
        ));
    }
    parse_child(&stdout).map_err(|e| format!("the {name} run (seed {seed}): {e}"))
}

fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(last)?;
    let field = |k: &str| {
        result
            .get(k)
            .ok_or_else(|| format!("result line lacks {k:?}"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("\"metrics\" is not an object")?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            v.map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name:?} has no value"))
        })
        .collect::<Result<_, _>>()?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("#detail "))
        .map_or(Ok(Json::Null), Json::parse)?;
    Ok(ChildRun {
        correct: field("correct")? == &Json::Bool(true),
        attempted: field("attempted")?
            .as_f64()
            .ok_or("\"attempted\" is not a number")?,
        failed: field("failed")?
            .as_f64()
            .ok_or("\"failed\" is not a number")?,
        metrics,
        detail,
    })
}

/// Median and quartiles of one end-to-end metric across runs.
fn summarise(def: &MetricDef, runs: &[f64]) -> Json {
    let Some((q1, med, q3)) = quartiles(runs) else {
        return Json::Null;
    };
    Json::obj([
        ("unit", Json::str(def.unit)),
        ("better", Json::str(def.better.as_str())),
        ("bound", Json::Num(BOUND)),
        ("median", Json::Num(med)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "runs",
            Json::Arr(runs.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// The issue's "workloads stress different layers" shares, evaluated on
/// this run's numbers. Every share is taken of `client.http_ms`, the top
/// of the ladder the layer figures come from — one caller, like them —
/// not of the 2-client `p50_ms`: on two hardware threads that share a
/// core, two concurrent requests each take about twice the sequential
/// time, which says nothing about where one request's time goes.
/// Reported, never a reason to fail the run: a failed share means a
/// workload needs re-sizing.
fn layer_checks(kind: Kind, layer: &dyn Fn(&str) -> Option<f64>) -> Vec<Json> {
    let mut out = Vec::new();
    let mut check = |text: &str, lhs: Option<f64>, at_least: bool, rhs: Option<f64>| {
        if let (Some(lhs), Some(rhs)) = (lhs, rhs) {
            out.push(Json::obj([
                ("check", Json::str(text)),
                ("lhs", Json::Num(lhs)),
                ("rhs", Json::Num(rhs)),
                (
                    "pass",
                    Json::Bool(if at_least { lhs >= rhs } else { lhs <= rhs }),
                ),
            ]));
        }
    };
    let share = |f: f64| layer("client.http_ms").map(|http| f * http);
    match kind {
        Kind::Cycle4Engine => {
            let engine = layer("core.evaluate_ms");
            check(
                "core.evaluate_ms >= 0.7 * client.http_ms",
                engine,
                true,
                share(0.7),
            );
        }
        Kind::TriangleWide => {
            let server = layer("server.self_ms");
            check(
                "server.self_ms >= 0.15 * client.http_ms",
                server,
                true,
                share(0.15),
            );
        }
        Kind::PointLookup => {
            let engine = layer("core.evaluate_ms");
            check(
                "core.evaluate_ms <= 0.3 * client.http_ms",
                engine,
                false,
                share(0.3),
            );
            let outer = layer("server.self_ms")
                .zip(layer("query.self_ms"))
                .map(|(a, b)| a + b);
            let text = "server.self_ms + query.self_ms >= 0.5 * client.http_ms";
            check(text, outer, true, share(0.5));
            let hit = layer("query.plan_cache_hit_ratio");
            check("query.plan_cache_hit_ratio >= 0.85", hit, true, Some(0.85));
            check("query.plan_cache_hit_ratio <= 0.95", hit, false, Some(0.95));
        }
        Kind::IngestMixed => {
            let compactions = layer("query.compactions");
            check("query.compactions >= 3", compactions, true, Some(3.0));
            let refreshes = layer("query.plan_cache_refreshes");
            check(
                "query.plan_cache_refreshes >= 1",
                refreshes,
                true,
                Some(1.0),
            );
        }
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn header(args: &Args) -> Json {
    let server = wcoj_server::ServerConfig::default();
    Json::obj([
        (
            "git_rev",
            Json::str(
                command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"])
                    .unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        (
            "rustc",
            Json::str(
                command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        (
            "nproc",
            Json::Num(
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as f64,
            ),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("runs", Json::Num(args.runs as f64)),
        ("rounds", Json::Num(args.rounds as f64)),
        ("clients", Json::Num(CLIENTS as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "server_defaults",
            Json::obj([
                ("conn_threads", Json::Num(server.conn_threads as f64)),
                ("keep_alive_max", Json::Num(server.keep_alive_max as f64)),
                ("service_workers", Json::Num(server.service.workers as f64)),
                ("queue_depth", Json::Num(server.service.queue_depth as f64)),
                (
                    "compact_threshold",
                    Json::Num(wcoj_query::Catalog::new().compact_threshold() as f64),
                ),
            ]),
        ),
    ])
}

/// Runs one workload's untraced runs and traced pass; returns its JSON
/// and whether every response was correct.
fn run_workload(args: &Args, kind: Kind) -> Result<(Json, bool), String> {
    let spec = kind.spec();
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut writes: Vec<Vec<f64>> = vec![Vec::new(); WRITE_METRICS.len()];
    let mut query_samples = Vec::new();
    let mut tail_quantiles = Vec::new();
    if !args.trace_only {
        for i in 0..args.runs {
            let run = run_child(args, kind, args.seed + i as u64, false)?;
            correct &= run.correct;
            attempted += run.attempted;
            failed += run.failed;
            for (def, column) in END_TO_END.iter().zip(&mut columns) {
                let v = run.metrics.iter().find(|(n, _)| n == def.name);
                column.push(
                    v.ok_or_else(|| format!("{}: run lacks {}", spec.name, def.name))?
                        .1,
                );
            }
            for (def, column) in WRITE_METRICS.iter().zip(&mut writes) {
                column.extend(run.detail.get(def.name).and_then(Json::as_f64));
            }
            query_samples.extend(run.detail.get("query_samples").cloned());
            tail_quantiles.extend(run.detail.get("tail_quantile").cloned());
            eprintln!("  {} run {}/{} done", spec.name, i + 1, args.runs);
        }
    }
    let traced = run_child(args, kind, args.seed, true)?;
    correct &= traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;
    for (name, _, _) in &PER_LAYER {
        if !traced.metrics.iter().any(|(n, _)| n == name) {
            return Err(format!("{}: traced run lacks {name}", spec.name));
        }
    }
    let layer = |name: &str| traced.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);

    println!(
        "\n== {} ({} runs x {} s, seeds {}..)",
        spec.name, args.runs, args.seconds, args.seed
    );
    println!(
        "{:<28} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "end-to-end", "unit", "median", "q1", "q3", "iqr/med"
    );
    let mut end_to_end = Vec::new();
    for (def, column) in END_TO_END
        .iter()
        .zip(&columns)
        .chain(WRITE_METRICS.iter().zip(&writes))
    {
        match quartiles(column) {
            Some((q1, med, q3)) => println!(
                "{:<28} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>8.4}",
                def.name,
                def.unit,
                med,
                q1,
                q3,
                (q3 - q1) / med
            ),
            None => println!("{:<28} {:>6} {:>14}", def.name, def.unit, "null"),
        }
        end_to_end.push((def.name, summarise(def, column)));
    }
    let failed_frac = if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    };
    println!(
        "{:<28} {:>6} {:>14.6}   ({failed} failed of {attempted} attempted)",
        "failed_frac", "ratio", failed_frac
    );
    println!(
        "{:<28} {:>6} {:>14}",
        "per-layer (traced pass)", "unit", "value"
    );
    for (name, unit, _) in &PER_LAYER {
        println!(
            "{:<28} {:>6} {:>14.4}",
            name,
            unit,
            layer(name).unwrap_or(f64::NAN)
        );
    }
    let checks = layer_checks(kind, &layer);
    for c in &checks {
        let pass = c.get("pass") == Some(&Json::Bool(true));
        println!(
            "layer check {:<56} {}  ({:.4} vs {:.4})",
            c.get("check").and_then(Json::as_str).unwrap_or(""),
            if pass { "ok" } else { "FAILED" },
            c.get("lhs").and_then(Json::as_f64).unwrap_or(f64::NAN),
            c.get("rhs").and_then(Json::as_f64).unwrap_or(f64::NAN),
        );
    }

    let json = Json::obj([
        ("name", Json::str(spec.name)),
        ("why", Json::str(spec.why)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("failed_frac", Json::Num(failed_frac)),
        ("end_to_end", Json::obj(end_to_end)),
        ("query_samples", Json::Arr(query_samples)),
        ("tail_quantile", Json::Arr(tail_quantiles)),
        (
            "per_layer",
            Json::obj(PER_LAYER.iter().map(|(name, unit, _)| {
                let value = Json::opt(layer(name));
                (
                    *name,
                    Json::obj([("unit", Json::str(*unit)), ("value", value)]),
                )
            })),
        ),
        ("trace_detail", traced.detail),
        ("layer_checks", Json::Arr(checks)),
    ]);
    Ok((json, correct))
}

/// Writes `latest.json` into `dir`.
fn write_results(dir: &Path, results: &Json) -> Result<PathBuf, String> {
    let path = dir.join("latest.json");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, results.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Entry point of the `suite` subcommand.
///
/// # Errors
/// Bad flags, a child run that could not complete, a missing metric, or
/// an unwritable results directory.
pub fn main(args: &[String]) -> Result<i32, String> {
    let args = Args::parse(args)?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for &kind in &args.kinds {
        let (json, correct) = run_workload(&args, kind)?;
        workloads.push(json);
        all_correct &= correct;
    }
    let results = Json::obj([
        ("schema", Json::str("wcoj-benchmark/1")),
        ("header", header(&args)),
        ("workloads", Json::Arr(workloads)),
        // this benchmark defines the baseline; it claims no gain
        ("claim", Json::Null),
    ]);
    let path = write_results(&args.results_dir, &results)?;
    println!("\nwrote {}", path.display());
    println!("\"claim\": null");
    if !all_correct {
        eprintln!("wcoj-benchmark: some responses were incorrect (failed_frac > 0)");
        return Ok(1);
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_is_parsed_from_its_last_lines() {
        let out = "# noise\nqps 1 1/s\n#detail {\"write_p50_ms\":null,\"query_samples\":12}\n# wall 1 s\n\
                   {\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"qps\":{\"value\":1.5,\"unit\":\"1/s\"}}}\n";
        let run = parse_child(out).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (12.0, 0.0));
        assert_eq!(run.metrics, vec![("qps".to_owned(), 1.5)]);
        assert_eq!(run.detail.get("query_samples"), Some(&Json::Num(12.0)));
        assert!(parse_child("").is_err());
        assert!(parse_child("{\"correct\":true}").is_err());
    }

    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let workloads: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names("workloads", "name"), workloads);
        assert_eq!(
            names("workloads", "why"),
            SPECS.iter().map(|s| s.why).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end", "name"),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end", "unit"),
            END_TO_END.iter().map(|d| d.unit).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end", "better"),
            END_TO_END
                .iter()
                .map(|d| d.better.as_str())
                .collect::<Vec<_>>()
        );
        let bounds: Vec<f64> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, vec![BOUND; END_TO_END.len()]);
        assert_eq!(
            names("per_layer", "name"),
            PER_LAYER.iter().map(|d| d.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer", "unit"),
            PER_LAYER.iter().map(|d| d.1).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer", "better"),
            PER_LAYER.iter().map(|d| d.2.as_str()).collect::<Vec<_>>()
        );
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|d| d.0 == name), "{name}");
        }
    }
}
