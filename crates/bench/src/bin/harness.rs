//! Experiment harness: regenerates every experiment table described in
//! `crates/bench/README.md`.
//!
//! ```text
//! harness [--quick] [--json DIR] [e1 e2 …]
//! ```
//!
//! With no experiment ids, runs every experiment (e1–e15, then
//! `ablation_cover`). `--quick`
//! shrinks sweeps, `--json DIR` additionally writes each table as JSON.

use std::io::Write as _;
use wcoj_bench::{run_experiment, ALL_EXPERIMENTS};

fn main() {
    let mut quick = false;
    let mut json_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => {
                json_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json needs a directory");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("usage: harness [--quick] [--json DIR] [e1 e2 …]");
                println!("experiments: {}", ALL_EXPERIMENTS.join(" "));
                return;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        ids = ALL_EXPERIMENTS.iter().map(|&s| s.to_owned()).collect();
    }
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(&id.as_str()) {
            eprintln!(
                "unknown experiment {id}; known: {}",
                ALL_EXPERIMENTS.join(" ")
            );
            std::process::exit(2);
        }
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }

    for id in &ids {
        let tables = run_experiment(id, quick);
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = &json_dir {
                let path = format!("{dir}/{id}_{i}.json");
                let mut f = std::fs::File::create(&path).expect("create json file");
                f.write_all(t.to_json().as_bytes()).expect("write json");
            }
        }
    }
}
