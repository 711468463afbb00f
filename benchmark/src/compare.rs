//! `benchmark compare A.jsonl B.jsonl`: two sets of runs (the lines `--out`
//! appends), side by side. Per workload and end-to-end metric it prints both
//! medians, how much worse B is than A, and the metric's bound. A pair whose
//! run-to-run spread (distance between the quartiles over the median, of
//! either side) exceeds the bound is *unresolved*, not unchanged; a pair
//! worse by more than the bound is a *regression* and makes the exit code 1.

use crate::spec;
use crate::stats::{median, quartile_spread};
use serde_json::Value;
use std::process::ExitCode;

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

struct RunSet {
    /// `(workload, metric, value)` of every untraced run.
    values: Vec<(String, String, f64)>,
    attempted: f64,
    failed: f64,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet {
        values: Vec::new(),
        attempted: 0.0,
        failed: 0.0,
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let malformed = || format!("{path}:{}: not a line written by --out", i + 1);
        let run: Value = serde_json::from_str(line).map_err(|_| malformed())?;
        if field(&run, "trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let Some(Value::Str(workload)) = field(&run, "workload") else {
            return Err(malformed());
        };
        set.attempted += field(&run, "attempted")
            .and_then(number)
            .ok_or_else(malformed)?;
        set.failed += field(&run, "failed")
            .and_then(number)
            .ok_or_else(malformed)?;
        let metrics = field(&run, "metrics")
            .and_then(Value::as_object)
            .ok_or_else(malformed)?;
        for (name, entry) in metrics {
            let value = field(entry, "value")
                .and_then(number)
                .ok_or_else(malformed)?;
            set.values.push((workload.clone(), name.clone(), value));
        }
    }
    Ok(set)
}

impl RunSet {
    fn of(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.values
            .iter()
            .filter(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, v)| *v)
            .collect()
    }
}

pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<13} {:<18} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "A iqr", "B iqr", "bound"
    );
    let mut regressions = 0;
    let mut unresolved = 0;
    let mut pairs = 0;
    for workload in spec::WORKLOADS.iter().map(|w| w.name) {
        for info in spec::end_to_end() {
            let (va, vb) = (a.of(workload, &info.name), b.of(workload, &info.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            pairs += 1;
            let bound = info.bound.unwrap_or(0.0);
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = B is worse, as a share of A's median.
            let worse = match info.better {
                "higher" => (ma - mb) / ma.abs(),
                _ => (mb - ma) / ma.abs(),
            };
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            // `setup_s` is a median of set-ups inside each run already; its
            // spread across seeds is the generator's, not noise.
            let noisy = info.name != "setup_s" && sa.max(sb) > bound;
            let verdict = if worse > bound {
                regressions += 1;
                "REGRESSION"
            } else if noisy {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {:<18} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>6.1}% {:>6.1}% {:>5.1}%  {verdict}",
                info.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0
            );
        }
    }
    for (name, set) in [("A", &a), ("B", &b)] {
        println!(
            "failed_share {name}: {:.6} ({} of {} operations)",
            set.failed / set.attempted.max(1.0),
            set.failed,
            set.attempted
        );
    }
    let more_failures = b.failed / b.attempted.max(1.0) > a.failed / a.attempted.max(1.0);
    if more_failures {
        println!("failed_share rose: REGRESSION");
    }
    println!("{pairs} pairs: {regressions} regressions, {unresolved} unresolved");
    if pairs == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(if regressions > 0 || more_failures {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
