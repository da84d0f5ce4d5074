//! Runs one workload of the benchmark and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path waldobench/Cargo.toml -- \
//!     --workload compact --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The second-to-last line of standard output is the full report (host
//! fingerprint, load shape, sizes, every value measured); the last line
//! is `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A failed
//! correctness check makes the exit code 1.

use std::process::ExitCode;

use serde_json::json;
use waldobench::{per_layer_names, run, world, Options, END_TO_END};

fn usage(problem: &str) -> ExitCode {
    let workloads: Vec<&str> = world::PROFILES.iter().map(|p| p.name).collect();
    eprintln!(
        "waldobench: {problem}\nusage: waldobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = world::profile(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(sizes), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };

    let outcome = run(&Options { sizes, seed, seconds, trace });
    let mut m = outcome.metrics;
    let wanted: Vec<(String, &str)> = if trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut metrics = serde_json::Map::new();
    for (name, unit) in wanted {
        match m.values.get(&name) {
            Some(&(value, got)) if got == unit && value.is_finite() => {
                metrics.insert(name, json!({"value": value, "unit": unit}));
            }
            _ => m.fail(format!("metric {name} ({unit}) was not measured")),
        }
    }
    let mut all = serde_json::Map::new();
    for (name, (value, unit)) in &m.values {
        all.insert(name.clone(), json!({"value": value, "unit": unit}));
    }
    let details = json!({
        "run": outcome.report,
        "all_metrics": serde_json::Value::Object(all),
        "failures": m.failures,
    });
    println!("{}", serde_json::to_string(&details).expect("report serializes"));
    let correct = m.failed == 0;
    let result = json!({
        "correct": correct,
        "attempted": m.attempted.max(1),
        "failed": m.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
