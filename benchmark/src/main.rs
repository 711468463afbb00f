//! The GRAPE-RS benchmark. One run = one process, one workload, one seed:
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--graph-seed N] [--quick] [--out FILE]
//! benchmark compare A.jsonl B.jsonl
//! benchmark catalogue
//! ```
//!
//! See README.md for the catalogue of workloads and metrics.

mod compare;
mod exec;
mod inputs;
mod oracle;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;

use serde_json::Value;
use std::io::Write;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--graph-seed N] [--quick] [--out FILE]\n\
         \x20      benchmark compare A.jsonl B.jsonl\n\
         \x20      benchmark catalogue",
        names.join("|")
    )
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot read {text:?}")),
    }
}

/// First line of `program --version`, or "unknown".
fn version_of(program: &str) -> String {
    std::process::Command::new(program)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository and says "unknown".
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let quick = args.iter().any(|a| a == "--quick");
    // The quick preset measures nothing worth keeping, so `cargo test` may
    // drive it in a debug build.
    if cfg!(debug_assertions) && !quick {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    if std::env::var_os("GRAPE_THREADS").is_some() {
        return Err("GRAPE_THREADS is set: unset it, every workload pins its thread counts".into());
    }
    let name = flag(args, "--workload").ok_or_else(usage)?;
    let run_args = run::Args {
        workload: inputs::workload(name, quick)
            .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
        seed: parse(args, "--seed", spec::DEFAULT_SEED)?,
        graph_seed: parse(args, "--graph-seed", spec::GRAPH_SEED)?,
        seconds: parse(args, "--seconds", spec::RUN_SECONDS)?,
        trace: match parse(args, "--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace: {other} is neither 0 nor 1")),
        },
        quick,
    };

    println!(
        "# benchmark {name} seed={} graph-seed={} seconds={} trace={} quick={quick}",
        run_args.seed, run_args.graph_seed, run_args.seconds, run_args.trace as u8
    );
    println!(
        "# nproc={} profile=release rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(1, |c| c.get()),
        version_of("rustc"),
        git_commit()
    );
    let outcome = run::run(&run_args)?;

    let catalogue = if run_args.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for info in &catalogue {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == info.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("malformed result: metric {} was not measured", info.name))?;
        if !value.is_finite() {
            return Err(format!("malformed result: {} = {value}", info.name));
        }
        let bound = info
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        println!(
            "{:<34} {:>16.4} {:<9} {} is better{bound}",
            info.name, value, info.unit, info.better
        );
        metrics.push((
            info.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(info.unit.into())),
            ]),
        ));
    }
    if outcome.metrics.len() != catalogue.len() {
        return Err("malformed result: a measured metric is not in the catalogue".into());
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<34} {:>16.4} {:<9} lower is better  ({} of {} operations)",
        "failed_share", failed_share, "ratio", outcome.failed, outcome.attempted
    );
    if outcome.attempted == 0 {
        return Err("malformed result: nothing was attempted".into());
    }

    let result = vec![
        ("correct".to_string(), Value::Bool(outcome.wrong == 0)),
        (
            "attempted".to_string(),
            Value::Int(outcome.attempted as i128),
        ),
        ("failed".to_string(), Value::Int(outcome.failed as i128)),
        ("metrics".to_string(), Value::Object(metrics)),
    ];
    if let Some(path) = flag(args, "--out") {
        let mut line = vec![
            ("workload".to_string(), Value::Str(name.into())),
            ("seed".to_string(), Value::Int(run_args.seed as i128)),
            ("trace".to_string(), Value::Bool(run_args.trace)),
        ];
        line.extend(result.iter().cloned());
        let text = serde_json::to_string(&Value::Object(line)).map_err(|e| e.to_string())?;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{text}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let text = serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("catalogue") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::compare(a, b),
            _ => Err(usage()),
        },
        _ => run_one(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
