//! The `grape-worker` binary: multi-process GRAPE over the framed wire
//! protocol.
//!
//! Resident query-service daemon (fragments loaded once, then an unbounded
//! stream of queries served over them — connect with
//! `grape_worker::Session`); it prints `service listening on ENDPOINT` on
//! stdout once it listens:
//!
//! ```text
//! grape-worker daemon --listen 127.0.0.1:4817 [--token SECRET] [--kill-at N]
//! grape-worker daemon --uds /tmp/grape.sock   [--token SECRET] [--handshake-timeout SECS]
//! ```
//!
//! `--kill-at N` is the fault drill: the daemon SIGKILLs itself upon
//! receiving the N-th command of a query (0 = its Init).
//!
//! A batch run is a one-query session over daemons: the coordinator
//! generates and cuts the graph, ships each daemon its fragment, drives the
//! fixpoint and assembles the typed result. It runs over daemons already
//! listening, or over K `grape-worker daemon` children it starts itself:
//!
//! ```text
//! grape-worker serve --daemons HOST:4817,uds:/tmp/grape.sock --workers 4 \
//!     --algo sssp --graph road:64x64:7 --strategy hash --source 0 \
//!     [--checkpoint-every K] [--token SECRET] [--verify]
//! grape-worker serve --spawn [--listen 127.0.0.1:0 | --uds PATH] --workers 4 ... \
//!     [--chaos KILL_AT[,KILL_AT2,...]]
//! ```
//!
//! Algorithms: `sssp`, `cc`, `pagerank`, `cf` on weighted graphs
//! (`road:WxH:SEED`, `ba:N:M:SEED`); `sim`, `subiso`, `keyword`, `marketing`
//! on labeled social graphs (`social:PERSONS:PRODUCTS:SEED`).
//!
//! `--spawn` starts one daemon child of this same binary per worker, each
//! listening on `--listen` (port 0 picks a free port) or on `--uds PATH.i`
//! — the one-command demo. `--verify` reruns the job in-process over the
//! framed channel transport and asserts the typed result and superstep count
//! match bit for bit. `--chaos K[,K2,...]` (requires `--spawn`) is the fault
//! drill: daemon i is started with `--kill-at Ki` — several victims exercise
//! concurrent failure — and the session recovers every one (a fresh daemon,
//! the fragment shipped again, replay) with `--verify` still holding.
//! `--token` makes the spawned daemons require, and the session present, the
//! given auth token in the handshake. A flag value that does not parse is a
//! usage error (exit 2), never a silent default.

use grape_core::chaos::ChaosConfig;
use grape_core::EngineConfig;
use grape_worker::{
    kill_self, run_local_framed, run_session, DaemonProcess, Endpoint, GrapeService, GraphSpec,
    JobSpec, ServiceOptions, SessionConfig, LISTENING,
};
use std::process::Command;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  grape-worker serve (--daemons EP[,EP...] | --spawn [--listen ADDR | --uds PATH])\n      \
         --workers K --algo sssp|cc|pagerank|cf|sim|subiso|keyword|marketing\n      --graph \
         road:WxH:SEED|ba:N:M:SEED|social:P:R:SEED [--strategy NAME]\n      [--source V] \
         [--threads T] [--timeout SECS] [--checkpoint-every K] [--token SECRET]\n      [--verify] \
         [--chaos KILL_AT[,KILL_AT2,...]]\n        (--chaos requires --spawn: daemon i \
         SIGKILLs itself at its i-th schedule entry, run recovers)\n  grape-worker daemon \
         [--listen ADDR | --uds PATH] [--token SECRET] [--handshake-timeout SECS]\n      \
         [--kill-at N]\n        (resident query service: load fragments once, serve \
         concurrent queries; see grape_worker::Session)"
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

/// Where `daemon` (and `serve --spawn`'s daemons) listen: `--uds PATH`, else
/// `--listen ADDR`.
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
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("daemon") => daemon(&args[1..]),
        _ => usage(),
    };
    if let Err(err) = result {
        eprintln!("grape-worker: {err}");
        std::process::exit(1);
    }
}

/// Runs the resident query-service daemon until killed.
fn daemon(args: &[String]) -> std::io::Result<()> {
    let options = ServiceOptions {
        token: arg_value(args, "--token"),
        handshake_timeout: parsed(args, "--handshake-timeout").map(Duration::from_secs),
        chaos: ChaosConfig {
            kill_at: parsed(args, "--kill-at"),
            ..Default::default()
        },
        // This process is the worker: a scheduled kill is a real SIGKILL.
        on_kill: Some(kill_self),
    };
    let service = match listen_endpoint(args) {
        Endpoint::Tcp(addr) => GrapeService::bind(&addr, options)?,
        #[cfg(unix)]
        Endpoint::Uds(path) => GrapeService::bind_uds(path, options)?,
    };
    println!("{LISTENING}{}", service.endpoint()?);
    service.serve()
}

fn serve(args: &[String]) -> std::io::Result<()> {
    let workers: u32 = parsed(args, "--workers").unwrap_or_else(|| usage());
    if workers == 0 {
        bad_usage("--workers must be at least 1".into());
    }
    let graph = GraphSpec::parse(&arg_value(args, "--graph").unwrap_or_else(|| usage()))
        .unwrap_or_else(|e| bad_usage(e));
    let spawn = args.iter().any(|a| a == "--spawn");
    let verify = args.iter().any(|a| a == "--verify");
    let token = arg_value(args, "--token");
    // The kill schedule: entry i is daemon i's --kill-at. Several entries
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
            bad_usage("--chaos requires --spawn (the session respawns the victims)".into());
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
    let mut config = SessionConfig::default().with_engine(EngineConfig {
        read_timeout: Some(
            timeout_secs
                .map(Duration::from_secs)
                .unwrap_or(grape_core::transport::DEFAULT_READ_TIMEOUT),
        ),
        auth_token: token.clone(),
        ..Default::default()
    });

    let daemons = Arc::new(Mutex::new(Vec::new()));
    if spawn {
        // Both ends run the same timeout and token: the flags are forwarded
        // to the daemons so detection and auth are symmetric.
        let mut forwarded = Vec::new();
        if let Some(secs) = timeout_secs {
            forwarded.extend(["--handshake-timeout".to_string(), secs.to_string()]);
        }
        if let Some(token) = token {
            forwarded.extend(["--token".to_string(), token]);
        }
        let start = start_daemon(listen_endpoint(args), forwarded, Arc::clone(&daemons))?;
        for index in 0..workers as usize {
            let kill_at = chaos.as_ref().and_then(|victims| victims.get(index));
            config.endpoints.push(start(kill_at.copied())?);
        }
        if chaos.is_some() {
            config = config.with_respawn(move |_worker| start(None));
        }
    } else {
        if args.iter().any(|a| a == "--listen" || a == "--uds") {
            bad_usage("--listen and --uds name where --spawn's daemons listen".into());
        }
        let daemons = arg_value(args, "--daemons")
            .unwrap_or_else(|| bad_usage("serve needs --daemons EP[,EP...] or --spawn".into()));
        config.endpoints = daemons.split(',').map(Endpoint::parse).collect();
    }
    eprintln!(
        "coordinator: daemons on {}",
        config
            .endpoints
            .iter()
            .map(Endpoint::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let outcome = run_session(&job, config)?;
    // Under chaos, the victims were SIGKILLed on purpose: exactly that many
    // daemons may have exited; any other exit is a crash.
    let mut exited = 0;
    for daemon in daemons.lock().unwrap().iter_mut() {
        exited += usize::from(daemon.exited()?);
    }
    if exited > chaos.as_ref().map_or(0, Vec::len) {
        return Err(std::io::Error::other(format!(
            "{exited} daemon processes exited during the run"
        )));
    }

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

/// What starts one daemon child of this binary listening on `listen` (a
/// Unix-domain path gets the child's number appended), with `forwarded`
/// flags and an optional `--kill-at`, and returns its endpoint. Every child
/// is kept in `daemons`, which kills them when dropped.
fn start_daemon(
    listen: Endpoint,
    forwarded: Vec<String>,
    daemons: Arc<Mutex<Vec<DaemonProcess>>>,
) -> std::io::Result<impl Fn(Option<usize>) -> std::io::Result<Endpoint> + Send + Sync> {
    let exe = std::env::current_exe()?;
    Ok(move |kill_at: Option<usize>| {
        let mut daemons = daemons.lock().unwrap();
        let mut command = Command::new(&exe);
        command.arg("daemon");
        match &listen {
            Endpoint::Tcp(addr) => command.args(["--listen", addr]),
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                command
                    .arg("--uds")
                    .arg(format!("{}.{}", path.display(), daemons.len()))
            }
        };
        command.args(&forwarded);
        if let Some(kill_at) = kill_at {
            command.args(["--kill-at".to_string(), kill_at.to_string()]);
        }
        let daemon = DaemonProcess::spawn(command)?;
        let endpoint = daemon.endpoint().clone();
        daemons.push(daemon);
        Ok(endpoint)
    })
}
