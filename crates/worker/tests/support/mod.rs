//! Helpers the worker integration tests share: daemon processes of the
//! `grape-worker` binary, and a fake daemon that never answers a query.

#![allow(dead_code)]

use grape_comm::wire::{self, TAG_LOAD, TAG_LOADED, TAG_QUERY};
use grape_worker::{DaemonProcess, Endpoint};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::mpsc;

pub fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_grape-worker")
}

/// A `grape-worker daemon` process on a free loopback port, with `args`
/// after the listen flags and its stderr discarded.
pub fn daemon_process(args: &[&str]) -> DaemonProcess {
    let mut command = Command::new(worker_bin());
    command
        .args(["daemon", "--listen", "127.0.0.1:0"])
        .args(args)
        .stderr(Stdio::null());
    DaemonProcess::spawn(command).expect("start grape-worker daemon")
}

/// The endpoints of `daemons`, in worker order.
pub fn endpoints(daemons: &[DaemonProcess]) -> Vec<Endpoint> {
    daemons.iter().map(|d| d.endpoint().clone()).collect()
}

/// A fake daemon on loopback TCP: it acks every load and never answers a
/// query. For each query connection it holds, it sends `released` whether
/// the session hung up on it.
pub fn silent_daemon(released: mpsc::Sender<bool>) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let released = released.clone();
            std::thread::spawn(move || serve_silently(stream, released));
        }
    });
    endpoint
}

/// One connection of [`silent_daemon`]: the hello, then one request.
fn serve_silently(mut stream: TcpStream, released: mpsc::Sender<bool>) {
    let Ok(Some(_hello)) = wire::read_frame_io_epoch(&mut stream) else {
        return;
    };
    let Ok(Some((tag, _, body))) = wire::read_frame_io_epoch(&mut stream) else {
        return;
    };
    match tag {
        TAG_LOAD => {
            let _fragment = wire::read_frame_io_epoch(&mut stream);
            let graph_id = u64::from_le_bytes(body[..8].try_into().expect("a load spec"));
            let _ = wire::write_frame_io_epoch(&mut stream, TAG_LOADED, 0, &graph_id);
        }
        TAG_QUERY => {
            let hung_up = stream.read_to_end(&mut Vec::new()).is_ok();
            let _ = released.send(hung_up);
        }
        _ => {}
    }
}
