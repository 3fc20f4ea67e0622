//! `single`: one run of one workload in this process — the unit the
//! driver and `suite` both repeat. Untraced, it reports the end-to-end
//! metrics; traced, the per-layer metrics of [`crate::ladder`].

use crate::json::Json;
use crate::ladder;
use crate::load::{run_round, timed_set_up, Round, Tally};
use crate::stats::{highest_supported_percentile, median, sorted};
use crate::workload::{Kind, Oracle, Workload, SPECS};
use crate::Flags;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
pub struct MetricDef {
    /// Name in every report.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// Share of the baseline median by which an end-to-end metric may worsen
/// before `compare` calls it a regression. One value for every metric,
/// the contract's maximum: the sandbox this was calibrated on shifts its
/// speed by 35–45 % for minutes at a time (README, "Noise and bounds").
pub const BOUND: f64 = 0.25;

/// The end-to-end metrics every untraced run reports, in report order.
/// `BENCHMARK.json` lists exactly these (a self-test holds the two
/// together).
pub const END_TO_END: [MetricDef; 6] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    MetricDef {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
    },
    MetricDef {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
    },
    MetricDef {
        name: "p95_ms",
        unit: "ms",
        better: Better::Lower,
    },
    MetricDef {
        name: "ttfb_ms",
        unit: "ms",
        better: Better::Lower,
    },
    MetricDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
    },
];

/// End-to-end metrics only `ingest_mixed` has a value for; `suite` and
/// `compare` carry them as `null` elsewhere, which `BENCHMARK.json`
/// cannot express.
pub const WRITE_METRICS: [MetricDef; 2] = [
    MetricDef {
        name: "write_p50_ms",
        unit: "ms",
        better: Better::Lower,
    },
    MetricDef {
        name: "write_p95_ms",
        unit: "ms",
        better: Better::Lower,
    },
];

/// Rounds per run unless `--rounds` says otherwise.
pub const DEFAULT_ROUNDS: usize = 3;
/// Set-ups timed per run (the rounds' own, topped up with set-up-only
/// repetitions); `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;
/// Requests per client that the printed request-sequence hash covers.
const SEQUENCE_HASH_REQUESTS: usize = 256;
/// The tail percentile reported as `p95_ms`.
const TAIL: f64 = 0.95;

/// What `single` was asked to do.
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Seed of data and request sequences.
    pub seed: u64,
    /// Total measured seconds, split evenly over the rounds.
    pub seconds: f64,
    /// Traced pass instead of the untraced run.
    pub trace: bool,
    /// Rounds (fresh server each).
    pub rounds: usize,
    /// Where the traced pass dumps its spans.
    pub results_dir: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut f = Flags::new(args);
        let name: String = f.value("--workload")?.ok_or("--workload is required")?;
        let kind = Kind::from_name(&name).ok_or_else(|| {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })?;
        let seconds = f.seconds()?.ok_or("--seconds is required")?;
        let trace = match f.value::<u8>("--trace")?.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        let parsed = Args {
            kind,
            seed: f.value("--seed")?.ok_or("--seed is required")?,
            seconds,
            trace,
            rounds: f.value("--rounds")?.unwrap_or(DEFAULT_ROUNDS).max(1),
            results_dir: f.value("--results-dir")?,
        };
        match f.finish()?.first() {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(parsed),
        }
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so that `peak_rss_mib`
/// covers the rounds and not the oracle's precomputation before them
/// (which builds a thousand plans for `point_lookup`). Best effort: where
/// `/proc/self/clear_refs` is not writable the peak includes the oracle.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The end-to-end figures of one untraced run.
pub struct EndToEnd {
    /// Metric values in [`END_TO_END`] order.
    pub values: [f64; 6],
    /// `(write_p50_ms, write_p95_ms)` where the workload writes.
    pub write_ms: Option<(f64, f64)>,
    /// Requests attempted and failed over every round.
    pub tally: Tally,
    /// Pooled query latency samples behind `p50_ms` and `p95_ms`.
    pub query_samples: usize,
    /// Pooled write latency samples.
    pub write_samples: usize,
    /// The percentile actually reported as `p95_ms`: 0.95 unless too few
    /// samples lie beyond it.
    pub tail_quantile: f64,
    /// Per-round values, for the spread between rounds.
    pub qps_rounds: Vec<f64>,
    /// Every set-up time behind `setup_s`.
    pub setup_s: Vec<f64>,
}

/// Runs `rounds` untraced rounds and reduces them: rates and set-up time
/// as medians of rounds, latencies as percentiles of the pooled samples.
///
/// # Errors
/// Server start or set-up failures.
pub fn run_untraced(
    w: &Workload,
    oracle: &Oracle,
    seconds: f64,
    rounds: usize,
) -> Result<EndToEnd, String> {
    let window = Duration::from_secs_f64(seconds / rounds as f64);
    let warm_up = window.mul_f64(0.2).min(Duration::from_secs(1));
    let _ = reset_peak_rss();
    let mut all: Vec<Round> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        all.push(run_round(w, oracle, warm_up, window, None, false)?);
    }
    // set-up is short, so a run times it more often than it has rounds
    let mut setup_s: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
    let mut tally = Tally::default();
    while setup_s.len() < SETUP_SAMPLES {
        let (server, secs, requests) = timed_set_up(w, oracle)?;
        drop(server);
        setup_s.push(secs);
        tally.absorb(requests);
    }
    let pooled = |pick: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        let mut v: Vec<f64> = all.iter().flat_map(|r| pick(r).iter().copied()).collect();
        sorted(&mut v);
        v
    };
    let query_ms = pooled(|r| &r.query_ms);
    let ttfb_ms = pooled(|r| &r.ttfb_ms);
    let write_ms = pooled(|r| &r.write_ms);
    if query_ms.is_empty() {
        return Err("no query request completed correctly".to_owned());
    }
    let mid = |v: &[f64]| wcoj_obs::percentile_f64(v, 0.5);
    let (tail_quantile, p95) = highest_supported_percentile(&query_ms, TAIL);
    let qps_rounds: Vec<f64> = all.iter().map(|r| r.qps).collect();
    for r in &all {
        tally.absorb(r.tally);
    }
    Ok(EndToEnd {
        values: [
            median(&setup_s).expect("≥ 1 round"),
            median(&qps_rounds).expect("≥ 1 round"),
            mid(&query_ms),
            p95,
            mid(&ttfb_ms),
            peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
        ],
        write_ms: (!write_ms.is_empty()).then(|| {
            (
                mid(&write_ms),
                highest_supported_percentile(&write_ms, TAIL).1,
            )
        }),
        tally,
        query_samples: query_ms.len(),
        write_samples: write_ms.len(),
        tail_quantile,
        qps_rounds,
        setup_s,
    })
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(tally: Tally, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

/// Entry point of the `single` subcommand.
///
/// # Errors
/// Bad flags, or a run that could not be set up.
pub fn main(args: &[String]) -> Result<i32, String> {
    let args = Args::parse(args)?;
    let started = Instant::now();
    let w = Workload::new(args.kind, args.seed);
    let oracle = Oracle::build(&w);
    println!(
        "# workload {} seed {} seconds {} trace {} rounds {} (inputs + oracle in {:.2} s, request-sequence hash {:016x})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rounds,
        started.elapsed().as_secs_f64(),
        w.sequence_hash(SEQUENCE_HASH_REQUESTS)
    );
    let (tally, metrics, detail) = if args.trace {
        let layers = ladder::run(&w, &oracle, args.seconds, args.results_dir.as_deref())?;
        for m in &layers.metrics {
            println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics = layers
            .metrics
            .iter()
            .map(|m| (m.name.to_owned(), metric_json(m.value, m.unit)))
            .collect();
        (layers.tally, metrics, layers.detail)
    } else {
        let e = run_untraced(&w, &oracle, args.seconds, args.rounds)?;
        for (def, v) in END_TO_END.iter().zip(e.values) {
            println!("{:<32} {:>16.6} {}", def.name, v, def.unit);
        }
        for (def, v) in WRITE_METRICS
            .iter()
            .zip(e.write_ms.map_or([None, None], |(a, b)| [Some(a), Some(b)]))
        {
            match v {
                Some(v) => println!("{:<32} {:>16.6} {}", def.name, v, def.unit),
                None => println!("{:<32} {:>16} {}", def.name, "null", def.unit),
            }
        }
        println!(
            "{:<32} {:>16.6} ratio ({} failed of {} attempted)",
            "failed_frac",
            e.tally.failed as f64 / e.tally.attempted as f64,
            e.tally.failed,
            e.tally.attempted
        );
        println!(
            "# {} query samples, {} write samples, p95_ms is the p{:.0}",
            e.query_samples,
            e.write_samples,
            e.tail_quantile * 100.0
        );
        let metrics = END_TO_END
            .iter()
            .zip(e.values)
            .map(|(def, v)| (def.name.to_owned(), metric_json(v, def.unit)))
            .collect();
        let detail = Json::obj([
            ("write_p50_ms", Json::opt(e.write_ms.map(|w| w.0))),
            ("write_p95_ms", Json::opt(e.write_ms.map(|w| w.1))),
            ("query_samples", Json::Num(e.query_samples as f64)),
            ("write_samples", Json::Num(e.write_samples as f64)),
            ("tail_quantile", Json::Num(e.tail_quantile)),
            (
                "qps_rounds",
                Json::Arr(e.qps_rounds.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "setup_s_samples",
                Json::Arr(e.setup_s.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]);
        (e.tally, metrics, detail)
    };
    // `suite` reads this line for what the contract's result line may not carry
    println!("#detail {}", detail.compact());
    println!("# wall {:.2} s", started.elapsed().as_secs_f64());
    println!("{}", result_line(tally, metrics));
    Ok(0)
}
