//! Schema and determinism of the benchmark, on the `--quick` size preset
//! (graphs of a few hundred vertices, three rounds, seconds in total):
//!
//! * `BENCHMARK.json` is exactly what `benchmark catalogue` prints;
//! * names are well-formed and unique, every end-to-end metric has a unit, a
//!   direction and a bound, and the counts stay within 4 workloads, 16
//!   end-to-end and 128 per-layer metrics;
//! * every workload emits exactly the catalogue's metrics, untraced and
//!   traced, fails nothing, and — run twice with one seed — repeats its count
//!   metrics exactly.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["road_comm", "rmat_compute", "svc_query", "svc_update"];

fn benchmark(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .env_remove("GRAPE_THREADS")
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no key {key:?} in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn list(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Int(n) => *n as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` of every metric of a catalogue section.
fn section(catalogue: &Value, key: &str) -> Vec<(String, String)> {
    list(field(catalogue, key))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Runs one workload on the quick preset and returns its result line.
fn quick_run(workload: &str, trace: &str) -> Value {
    let stdout = benchmark(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "15",
        "--trace",
        trace,
        "--quick",
    ]);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, benchmark(&["catalogue"]));
}

#[test]
fn catalogue_is_well_formed() {
    let catalogue: Value = serde_json::from_str(&benchmark(&["catalogue"])).expect("JSON");
    let workloads = list(field(&catalogue, "workloads"));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (workload, name) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(field(workload, "name")), name);
        let why = text(field(workload, "why"));
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let end_to_end = list(field(&catalogue, "end_to_end"));
    let per_layer = list(field(&catalogue, "per_layer"));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    for metric in end_to_end.iter().chain(per_layer) {
        let name = text(field(metric, "name"));
        assert!(well_formed(name), "malformed name {name:?}");
        names.push(name);
        let unit = text(field(metric, "unit"));
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        assert!(["lower", "higher"].contains(&text(field(metric, "better"))));
    }
    for metric in end_to_end {
        let bound = number(field(metric, "bound"));
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    assert!(end_to_end
        .iter()
        .any(|m| text(field(m, "name")) == "setup_s" && text(field(m, "unit")) == "s"));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}

#[test]
fn every_workload_emits_the_catalogue_and_repeats_its_counts() {
    let catalogue: Value = serde_json::from_str(&benchmark(&["catalogue"])).expect("JSON");
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let runs = [quick_run(workload, trace), quick_run(workload, trace)];
            let expected = section(&catalogue, key);
            for run in &runs {
                assert_eq!(field(run, "correct"), &Value::Bool(true), "{workload}");
                assert_eq!(number(field(run, "failed")), 0.0, "{workload}");
                assert!(number(field(run, "attempted")) >= 1.0);
                let emitted: Vec<(String, String)> = field(run, "metrics")
                    .as_object()
                    .expect("metrics object")
                    .iter()
                    .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_string()))
                    .collect();
                assert_eq!(emitted, expected, "{workload} --trace {trace}");
            }
            let value = |run: &Value, name: &str| {
                number(field(field(field(run, "metrics"), name), "value"))
            };
            let mut exact = vec!["graph.vertices".to_string(), "graph.edges".to_string()];
            for class in ["sssp", "cc", "pagerank"] {
                exact.push(format!("core.{class}.supersteps"));
                exact.push(format!("core.{class}.messages"));
            }
            if trace == "0" {
                exact = vec!["comm_mb_per_round".to_string()];
            }
            for name in exact {
                assert_eq!(
                    value(&runs[0], &name).to_bits(),
                    value(&runs[1], &name).to_bits(),
                    "{workload}: {name} differs between two runs of one seed"
                );
            }
        }
    }
}
