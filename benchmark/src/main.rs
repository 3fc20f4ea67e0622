//! The repo's benchmark: a loopback load generator over an in-process
//! `wcoj-server`, four named workloads, end-to-end metrics from untraced
//! runs and per-layer metrics from a separate traced pass. See
//! `README.md` beside this package.

mod client;
mod compare;
mod json;
mod ladder;
mod load;
mod single;
mod stats;
mod suite;
mod trace;
mod workload;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str = "\
usage: wcoj-benchmark <command> [flags]

  single  --workload NAME --seed N --seconds S --trace 0|1
          [--rounds R] [--results-dir DIR]
      One run of one workload in this process. --trace 0 prints the
      end-to-end metrics, --trace 1 the per-layer metrics; the last line
      of standard output is the result as one JSON object.

  suite   [--seed N] [--seconds S] [--runs K] [--rounds R]
          [--workload NAME]... [--trace-only] [--quick]
          [--results-dir DIR]
      Every workload, each run in its own child process: K untraced runs
      and one traced run per workload. Prints every metric and writes
      DIR/latest.json. Exits non-zero on any incorrect response.

  compare A.json B.json
      One row per (end-to-end metric, workload) of two suite results;
      exits 1 if any row regressed.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let outcome = match command {
        "single" => single::main(rest),
        "suite" => suite::main(rest),
        "compare" => compare::main(rest),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(0)
        }
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("wcoj-benchmark: {message}");
            std::process::exit(2);
        }
    }
}

/// Flag parsing shared by the subcommands: `--name value` pairs and bare
/// switches, in any order.
pub(crate) struct Flags<'a> {
    args: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    pub(crate) fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args,
            used: vec![false; args.len()],
        }
    }

    /// Every value given for `--name` (repeatable flags).
    pub(crate) fn values(&mut self, name: &str) -> Result<Vec<&'a str>, String> {
        let mut out = Vec::new();
        for i in 0..self.args.len() {
            if self.args[i] == name && !self.used[i] {
                let v = self
                    .args
                    .get(i + 1)
                    .ok_or_else(|| format!("{name} needs a value"))?;
                self.used[i] = true;
                self.used[i + 1] = true;
                out.push(v.as_str());
            }
        }
        Ok(out)
    }

    /// The last value given for `--name`, parsed.
    pub(crate) fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.values(name)?.last() {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }

    /// `--seconds S` (or its alias `--secs S`), checked to be a sane
    /// measuring time.
    pub(crate) fn seconds(&mut self) -> Result<Option<f64>, String> {
        let seconds = match self.value::<f64>("--seconds")? {
            Some(s) => Some(s),
            None => self.value("--secs")?,
        };
        match seconds {
            Some(s) if !(s > 0.0 && s <= 3600.0) => Err(format!("--seconds {s} is out of range")),
            other => Ok(other),
        }
    }

    /// `true` iff the bare switch `--name` is present.
    pub(crate) fn switch(&mut self, name: &str) -> bool {
        let mut hit = false;
        for i in 0..self.args.len() {
            if self.args[i] == name && !self.used[i] {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Positional arguments left over; flags left over are an error.
    pub(crate) fn finish(self) -> Result<Vec<&'a str>, String> {
        let rest: Vec<&str> = self
            .args
            .iter()
            .zip(&self.used)
            .filter(|(_, &u)| !u)
            .map(|(a, _)| a.as_str())
            .collect();
        match rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(rest),
        }
    }
}
