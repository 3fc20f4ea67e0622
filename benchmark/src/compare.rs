//! `compare A.json B.json`: one row per (end-to-end metric, workload) of
//! two `suite` results, judged against the bound each metric carries.

use crate::json::Json;
use crate::single::BOUND;
use crate::suite::EXACT_COUNTS;

/// What became of one (metric, workload) pair between A and B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than A by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median across runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn spread(self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn from_json(m: &Json) -> Option<Side> {
        Some(Side {
            median: m.get("median")?.as_f64()?,
            q1: m.get("q1")?.as_f64()?,
            q3: m.get("q3")?.as_f64()?,
        })
    }
}

/// Judges B against A: `(relative change of the median, verdict)`. The
/// change is signed as measured (positive = larger); the verdict takes
/// the metric's direction into account.
#[must_use]
pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let change = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = if lower_is_better { change } else { -change };
    let verdict = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (change, verdict)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match json.get("schema").and_then(Json::as_str) {
        Some("wcoj-benchmark/1") => Ok(json),
        other => Err(format!("{path}: not a suite result (schema {other:?})")),
    }
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Entry point of the `compare` subcommand; exit code 1 iff any row
/// regressed.
///
/// # Errors
/// Unreadable or malformed result files.
pub fn main(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes exactly two result files".to_owned());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, side) in [("A", &a), ("B", &b)] {
        let h = side.get("header");
        let text = |k: &str| {
            h.and_then(|h| h.get(k))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned()
        };
        let num = |k: &str| {
            h.and_then(|h| h.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{label}: rev {} | {} | nproc {} | seed {} | {} runs x {} s",
            text("git_rev"),
            text("rustc"),
            num("nproc"),
            num("seed"),
            num("runs"),
            num("seconds"),
        );
    }
    println!(
        "\n{:<14} {:<14} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "change",
        "bound"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    let workloads_a = a.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    for wa in workloads_a {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(wb) = workload(&b, name) else {
            println!("{name:<14} (absent from B)");
            continue;
        };
        let metrics = wa.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, ma) in metrics {
            let mb = wb.get("end_to_end").and_then(|e| e.get(metric));
            let (Some(sa), Some(sb)) = (Side::from_json(ma), mb.and_then(Side::from_json)) else {
                continue; // `null` on either side: the workload has no such metric
            };
            let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(BOUND);
            let (change, verdict) = judge(sa, sb, lower, bound);
            regressed += u32::from(verdict == Verdict::Regressed);
            unresolved += u32::from(verdict == Verdict::Unresolved);
            println!(
                "{name:<14} {metric:<14} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>+7.1}% {:>5.0}%  {}",
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                change * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{name:<14} {:<14} {:>11} {:>47}",
            "failed",
            failed(wa),
            failed(wb)
        );
    }

    println!("\nexact counts (read-only workloads, same seed): A vs B");
    for wa in workloads_a {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(wb) = workload(&b, name) else {
            continue;
        };
        if name == "ingest_mixed" {
            continue; // its counts depend on how the clients' writes interleave
        }
        for count in EXACT_COUNTS {
            let value = |w: &Json| w.get("per_layer")?.get(count)?.get("value")?.as_f64();
            let (va, vb) = (value(wa), value(wb));
            println!(
                "{name:<14} {count:<28} {:>18} {:>18}  {}",
                va.map_or("null".to_owned(), |v| v.to_string()),
                vb.map_or("null".to_owned(), |v| v.to_string()),
                if va == vb { "identical" } else { "DIFFERS" }
            );
        }
    }
    println!("\n{regressed} regressed, {unresolved} unresolved");
    Ok(i32::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, iqr: f64) -> Side {
        Side {
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // lower is better, bound 10%
        assert_eq!(
            judge(side(100.0, 2.0), side(105.0, 2.0), true, 0.1).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(side(100.0, 2.0), side(115.0, 2.0), true, 0.1).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(side(100.0, 2.0), side(85.0, 2.0), true, 0.1).1,
            Verdict::Improved
        );
        // higher is better: the same numbers flip
        assert_eq!(
            judge(side(100.0, 2.0), side(115.0, 2.0), false, 0.1).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(side(100.0, 2.0), side(85.0, 2.0), false, 0.1).1,
            Verdict::Regressed
        );
        // a spread wider than the bound on either side hides any change
        assert_eq!(
            judge(side(100.0, 12.0), side(150.0, 2.0), true, 0.1).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(side(100.0, 2.0), side(100.0, 12.0), true, 0.1).1,
            Verdict::Unresolved
        );
        let (change, _) = judge(side(200.0, 1.0), side(150.0, 1.0), true, 0.1);
        assert!((change + 0.25).abs() < 1e-12);
    }
}
