//! Host-time benchmark of the EdgStr pipeline and three-tier runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <transform|read_hot|write_sync|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it runs the traced replay and reports per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A human-readable table goes to standard error.

mod gen;
mod metrics;
mod pipeline;
mod replay;
mod serve;
mod stats;
mod trace;

use metrics::Metric;
use serde_json::{json, Map, Value as Json};

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["transform", "read_hot", "write_sync"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The outcome of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    /// Extra lines for the human-readable report.
    notes: Vec<String>,
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        let r = replay::run(name, seed, seconds);
        return Outcome {
            correct: r.problems.is_empty() && r.failed == 0,
            attempted: r.attempted,
            failed: r.failed,
            metrics: r.metrics,
            problems: r.problems,
            notes: r.notes,
        };
    }
    let e = match name {
        "transform" => pipeline::run(seed, seconds),
        "read_hot" => serve::run(name, &serve::READ_HOT, seed, seconds),
        _ => serve::run(name, &serve::WRITE_SYNC, seed, seconds),
    };
    Outcome {
        correct: e.correct(),
        attempted: e.attempted.max(1),
        failed: e.failed,
        metrics: e.metrics(),
        notes: vec![
            format!(
                "fail_ratio {:.6}  passes {}  completed {}  ticks {}  transform samples {}  virtual latency samples {}",
                e.fail_ratio(),
                e.passes,
                e.completed,
                e.runs.len(),
                e.transform_ms.len(),
                e.virt_us.len()
            ),
            format!("host_rps by tenth of the timed phase: {}", e.rps_by_tenth()),
        ],
        problems: e.problems,
    }
}

fn print_report(name: &str, o: &Outcome) {
    eprintln!("== {name} ==");
    for (metric, value, unit) in &o.metrics {
        eprintln!("  {metric:<34} {value:>14.4} {unit}");
    }
    for n in &o.notes {
        eprintln!("  {n}");
    }
    for p in &o.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Map::new();
    for name in &names {
        let o = run_workload(name, args.seed, args.seconds, args.trace);
        print_report(name, &o);
        correct &= o.correct;
        attempted += o.attempted;
        failed += o.failed;
        for (metric, value, unit) in &o.metrics {
            // with several workloads, metrics are prefixed by workload
            let key = if names.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric.to_string()
            };
            metrics.insert(key, json!({"value": value, "unit": unit}));
        }
    }
    let out = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Json::Object(metrics),
    });
    println!("{out}");
}
