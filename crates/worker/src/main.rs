//! The `grape-worker` binary: multi-process GRAPE over the framed wire
//! protocol.
//!
//! A batch run is a one-query session whose workers dial in: the coordinator
//! binds, ships each worker its fragment and the query over the service
//! frames, drives the fixpoint and assembles the typed result:
//!
//! ```text
//! grape-worker serve --listen 127.0.0.1:4817 --workers 4 \
//!     --algo sssp --graph road:64x64:7 --strategy hash --source 0 \
//!     [--checkpoint-every K] [--token SECRET] [--spawn] [--verify] \
//!     [--chaos KILL_AT[,KILL_AT2,...]]
//! ```
//!
//! Worker (connects, receives its fragment on the wire, evaluates):
//!
//! ```text
//! grape-worker connect 127.0.0.1:4817 [--timeout SECS] [--token SECRET] [--kill-at N]
//! grape-worker connect-uds /tmp/grape.sock        # Unix-domain variant
//! ```
//!
//! Algorithms: `sssp`, `cc`, `pagerank`, `cf` on weighted graphs
//! (`road:WxH:SEED`, `ba:N:M:SEED`); `sim`, `subiso`, `keyword`, `marketing`
//! on labeled social graphs (`social:PERSONS:PRODUCTS:SEED`).
//!
//! `--spawn` makes the coordinator fork the workers itself (k child
//! processes of this same binary) — the one-command demo. `--verify` reruns
//! the job in-process over the framed channel transport and asserts the
//! typed result and superstep count match bit for bit. `--chaos K[,K2,...]`
//! (requires `--spawn`) is the fault drill: worker i SIGKILLs itself upon
//! receiving its Ki-th command — several victims exercise concurrent
//! failure — and the coordinator recovers every one (respawn, re-ship,
//! replay) with `--verify` still holding. `--token` makes the coordinator
//! require (and the spawned workers present) the given auth token in the
//! session handshake. A flag value that does not parse is a usage error
//! (exit 2), never a silent default.
//!
//! Resident query-service daemon (fragments loaded once, then an unbounded
//! stream of queries served over them — connect with
//! `grape_worker::Session`):
//!
//! ```text
//! grape-worker daemon --listen 127.0.0.1:4817 [--token SECRET]
//! grape-worker daemon --uds /tmp/grape.sock   [--token SECRET]
//! ```

use grape_core::EngineConfig;
use grape_worker::{
    kill_self, run_coordinator, run_local_framed, run_worker, Endpoint, GrapeService, GraphSpec,
    JobSpec, ServiceListener, ServiceOptions, WorkerOptions,
};
use std::process::{Command, Stdio};
use std::str::FromStr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  grape-worker serve --listen ADDR [--uds PATH] --workers K\n      --algo \
         sssp|cc|pagerank|cf|sim|subiso|keyword|marketing\n      --graph \
         road:WxH:SEED|ba:N:M:SEED|social:P:R:SEED [--strategy NAME]\n      [--source V] \
         [--threads T] [--timeout SECS] [--checkpoint-every K] [--token SECRET]\n      [--spawn] \
         [--verify] [--chaos KILL_AT[,KILL_AT2,...]]\n        (--chaos requires --spawn: worker i \
         SIGKILLs itself at its i-th schedule entry, run recovers)\n  grape-worker connect ADDR \
         [--timeout SECS] [--token SECRET] [--kill-at N]\n  grape-worker connect-uds PATH \
         [--timeout SECS] [--token SECRET] [--kill-at N]\n  grape-worker daemon [--listen ADDR | \
         --uds PATH] [--token SECRET] [--handshake-timeout SECS]\n        (resident query service: \
         load fragments once, serve concurrent queries; see grape_worker::Session)"
    );
    std::process::exit(2);
}

/// A usage error: the message, then exit status 2.
fn bad_usage(message: String) -> ! {
    eprintln!("grape-worker: {message}");
    std::process::exit(2);
}

/// The value following flag `name`, if the flag is present.
fn arg_value(args: &[String], name: &str) -> Option<String> {
    let at = args.iter().position(|a| a == name)?;
    match args.get(at + 1) {
        Some(value) => Some(value.clone()),
        None => bad_usage(format!("{name} needs a value")),
    }
}

/// The value of flag `name` parsed as a `T`. A flag that is present but does
/// not parse is a usage error, never a silent fallback to the default.
fn parsed<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    arg_value(args, name).map(|value| {
        value
            .parse()
            .unwrap_or_else(|_| bad_usage(format!("bad value {value:?} for {name}")))
    })
}

/// Where `serve` and `daemon` listen: `--uds PATH`, else `--listen ADDR`.
fn listen_endpoint(args: &[String]) -> Endpoint {
    match arg_value(args, "--uds") {
        #[cfg(unix)]
        Some(path) => Endpoint::Uds(path.into()),
        #[cfg(not(unix))]
        Some(_) => bad_usage("--uds requires a unix platform".into()),
        None => Endpoint::Tcp(arg_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into())),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = || args.get(1).cloned().unwrap_or_else(|| usage());
    let result = match args.first().map(String::as_str) {
        Some("connect") => worker(Endpoint::Tcp(target()), &args[1..]),
        #[cfg(unix)]
        Some("connect-uds") => worker(Endpoint::Uds(target().into()), &args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("daemon") => daemon(&args[1..]),
        _ => usage(),
    };
    if let Err(err) = result {
        eprintln!("grape-worker: {err}");
        std::process::exit(1);
    }
}

/// Dials the coordinator at `endpoint` and serves it as one worker.
fn worker(endpoint: Endpoint, args: &[String]) -> std::io::Result<()> {
    let mut options = WorkerOptions {
        read_timeout: parsed(args, "--timeout").map(Duration::from_secs),
        token: arg_value(args, "--token"),
        // This process is the worker: a scheduled kill is a real SIGKILL.
        on_kill: Some(kill_self),
        ..Default::default()
    };
    options.chaos.kill_at = parsed(args, "--kill-at");
    run_worker(endpoint.connect()?, options)?;
    println!("worker done");
    Ok(())
}

/// Runs the resident query-service daemon until killed.
fn daemon(args: &[String]) -> std::io::Result<()> {
    let options = ServiceOptions {
        token: arg_value(args, "--token"),
        handshake_timeout: parsed(args, "--handshake-timeout").map(Duration::from_secs),
    };
    let service = match listen_endpoint(args) {
        Endpoint::Tcp(addr) => GrapeService::bind(&addr, options)?,
        #[cfg(unix)]
        Endpoint::Uds(path) => GrapeService::bind_uds(path, options)?,
    };
    eprintln!("service listening on {}", service.endpoint()?);
    service.serve()
}

fn serve(args: &[String]) -> std::io::Result<()> {
    let workers: u32 = parsed(args, "--workers").unwrap_or_else(|| usage());
    let graph = GraphSpec::parse(&arg_value(args, "--graph").unwrap_or_else(|| usage()))
        .unwrap_or_else(|e| bad_usage(e));
    let spawn = args.iter().any(|a| a == "--spawn");
    let verify = args.iter().any(|a| a == "--verify");
    let token = arg_value(args, "--token");
    // The kill schedule: entry i is worker i's --kill-at. Several entries
    // exercise concurrent (same-run, possibly same-superstep) failures.
    let chaos: Option<Vec<usize>> = arg_value(args, "--chaos").map(|v| {
        v.split(',')
            .map(|part| {
                part.parse()
                    .unwrap_or_else(|_| bad_usage(format!("bad --chaos entry {part:?}")))
            })
            .collect()
    });
    if let Some(victims) = &chaos {
        if !spawn {
            bad_usage("--chaos requires --spawn (the coordinator respawns the victims)".into());
        }
        if victims.is_empty() || victims.len() > workers as usize {
            bad_usage(format!("--chaos needs 1..={workers} kill entries"));
        }
    }
    let job = JobSpec {
        algo: arg_value(args, "--algo").unwrap_or_else(|| usage()),
        graph,
        strategy: arg_value(args, "--strategy").unwrap_or_else(|| "hash".into()),
        workers,
        source: parsed(args, "--source").unwrap_or(0),
        threads: parsed(args, "--threads").unwrap_or(0),
        // Recovery needs checkpoints: a chaos drill defaults the cadence to 1.
        checkpoint_every: parsed(args, "--checkpoint-every").unwrap_or(chaos.is_some() as u32),
    };
    let timeout_secs: Option<u64> = parsed(args, "--timeout");
    let config = EngineConfig {
        read_timeout: Some(
            timeout_secs
                .map(Duration::from_secs)
                .unwrap_or(grape_core::transport::DEFAULT_READ_TIMEOUT),
        ),
        auth_token: token.clone(),
        ..Default::default()
    };

    let listener = ServiceListener::bind(&listen_endpoint(args))?;
    let endpoint = listener.endpoint()?;
    eprintln!("coordinator listening on {endpoint}");
    // Both endpoints run the same timeout and token: the flags are forwarded
    // to spawned workers so detection and auth are symmetric.
    let mut connect_args = match &endpoint {
        Endpoint::Tcp(addr) => vec!["connect".to_string(), addr.clone()],
        #[cfg(unix)]
        Endpoint::Uds(path) => vec!["connect-uds".to_string(), path.display().to_string()],
    };
    if let Some(secs) = timeout_secs {
        connect_args.extend(["--timeout".into(), secs.to_string()]);
    }
    if let Some(token) = token {
        connect_args.extend(["--token".into(), token]);
    }

    let mut children = Vec::new();
    if spawn {
        // Under `--chaos`, victim worker i gets kill schedule entry i.
        for index in 0..workers as usize {
            let mut args = connect_args.clone();
            if let Some(kill_at) = chaos.as_ref().and_then(|victims| victims.get(index)) {
                args.extend(["--kill-at".to_string(), kill_at.to_string()]);
            }
            children.push(spawn_worker(&args)?);
        }
    }
    let streams = (0..workers)
        .map(|_| listener.accept())
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut replacements = Vec::new();
    let mut respawn = |_worker: usize| {
        replacements.push(spawn_worker(&connect_args)?);
        listener.accept()
    };
    let outcome = run_coordinator(
        &job,
        streams,
        &config,
        chaos.is_some().then_some(&mut respawn),
    )?;
    reap(children, chaos.as_ref().map_or(0, Vec::len))?;
    reap(replacements, 0)?;

    println!(
        "{}: {} supersteps, {} messages, {} wire bytes, {} recoveries, wall {:.2}ms",
        job.algo,
        outcome.stats.supersteps,
        outcome.stats.messages,
        outcome.stats.bytes,
        outcome.stats.recoveries,
        outcome.stats.wall_time.as_secs_f64() * 1e3
    );
    println!("  result digest {:#018x}", outcome.result.digest());

    if verify {
        // Recovery replays supersteps, so message counts legitimately exceed
        // the reference after a kill; the typed result and the superstep
        // count must still match bit for bit.
        let reference = run_local_framed(&job)?;
        let messages_diverge =
            chaos.is_none() && reference.stats.messages != outcome.stats.messages;
        if reference.result != outcome.result
            || reference.stats.supersteps != outcome.stats.supersteps
            || messages_diverge
        {
            return Err(std::io::Error::other(format!(
                "multi-process run diverged from the in-process reference: \
                 digest {:#018x} vs {:#018x}, supersteps {} vs {}, messages {} vs {}",
                outcome.result.digest(),
                reference.result.digest(),
                outcome.stats.supersteps,
                reference.stats.supersteps,
                outcome.stats.messages,
                reference.stats.messages
            )));
        }
        println!("verified: bit-identical to the in-process framed reference");
    }
    Ok(())
}

/// Spawns one worker child of this binary with `connect_args`.
fn spawn_worker(connect_args: &[String]) -> std::io::Result<std::process::Child> {
    let exe = std::env::current_exe()?;
    Command::new(&exe)
        .args(connect_args)
        .stdout(Stdio::null())
        .spawn()
}

/// Waits for the spawned workers. Under chaos, `expected_kills` children
/// were SIGKILLed on purpose; exactly that many non-success exits are
/// tolerated.
fn reap(children: Vec<std::process::Child>, expected_kills: usize) -> std::io::Result<()> {
    let mut failures = 0usize;
    for mut child in children {
        let status = child.wait()?;
        if !status.success() {
            failures += 1;
            if failures > expected_kills {
                return Err(std::io::Error::other(format!(
                    "worker process exited with {status}"
                )));
            }
        }
    }
    Ok(())
}
