//! All-to-all in-process "network" between workers and the coordinator.
//!
//! [`CommNetwork::new`]`(n)` creates `n` worker endpoints plus one coordinator
//! endpoint (address [`COORDINATOR`]). Each endpoint is a [`WorkerLink`] that
//! can be moved into its worker thread. Sends are unbounded and never block;
//! receives drain whatever has arrived, which matches BSP semantics where a
//! superstep boundary separates sending from receiving.
//!
//! Every send is counted in the shared [`CommStats`] **except** messages a
//! worker sends to itself — in a real deployment those never reach the
//! network, and counting them would inflate the communication columns of the
//! reproduced tables.

use crate::size::MessageSize;
use crate::stats::CommStats;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;

/// The address of the coordinator endpoint (`P_0` in the paper).
pub const COORDINATOR: usize = usize::MAX;

/// An addressed message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<T> {
    /// Sender address (worker index or [`COORDINATOR`]).
    pub from: usize,
    /// Payload.
    pub payload: T,
}

/// One endpoint of the network, owned by a worker thread (or the coordinator).
#[derive(Debug)]
pub struct WorkerLink<T> {
    id: usize,
    to_workers: Vec<Sender<Envelope<T>>>,
    to_coordinator: Sender<Envelope<T>>,
    inbox: Receiver<Envelope<T>>,
    stats: Arc<CommStats>,
}

impl<T: MessageSize> WorkerLink<T> {
    /// This endpoint's address.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of worker endpoints in the network (excluding the coordinator).
    pub fn num_workers(&self) -> usize {
        self.to_workers.len()
    }

    /// Shared communication counters.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// Sends `payload` to worker `to` (or to [`COORDINATOR`]).
    ///
    /// Returns `false` if the destination does not exist or its endpoint has
    /// been dropped; the latter only happens during shutdown.
    pub fn send(&self, to: usize, payload: T) -> bool {
        let size = payload.size_bytes() as u64;
        let envelope = Envelope {
            from: self.id,
            payload,
        };
        let tx = if to == COORDINATOR {
            &self.to_coordinator
        } else {
            match self.to_workers.get(to) {
                Some(tx) => tx,
                None => return false,
            }
        };
        if to != self.id {
            // Self-sends stay local; everything else is "network" traffic.
            // Recorded *before* the channel hand-off: the receiver may drain
            // the message and close its superstep accounting window right
            // away, and a record issued after the hand-off could land in the
            // next window. (A send to an endpoint dropped during shutdown is
            // still counted; by then nobody reads the counters.)
            self.stats.record(1, size);
        }
        tx.send(envelope).is_ok()
    }

    /// Drains every message that has arrived so far.
    pub fn drain(&self) -> Vec<Envelope<T>> {
        let mut out = Vec::new();
        while let Ok(env) = self.inbox.try_recv() {
            out.push(env);
        }
        out
    }

    /// Blocks until at least one message arrives, then drains the rest.
    ///
    /// Returns an empty vector if every sender has disconnected.
    pub fn recv_blocking(&self) -> Vec<Envelope<T>> {
        match self.inbox.recv() {
            Ok(first) => {
                let mut out = vec![first];
                out.extend(self.drain());
                out
            }
            Err(_) => Vec::new(),
        }
    }

    /// Like [`WorkerLink::recv_blocking`], but gives up after `timeout`.
    ///
    /// Returns `None` on timeout — the caller decides whether that means a
    /// lost peer or just a slow superstep — and `Some(vec![])` if every
    /// sender has disconnected.
    pub fn recv_blocking_timeout(&self, timeout: std::time::Duration) -> Option<Vec<Envelope<T>>> {
        match self.inbox.recv_timeout(timeout) {
            Ok(first) => {
                let mut out = vec![first];
                out.extend(self.drain());
                Some(out)
            }
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Vec::new()),
        }
    }
}

/// Builder of the all-to-all network.
#[derive(Debug)]
pub struct CommNetwork<T> {
    workers: Vec<WorkerLink<T>>,
    coordinator: WorkerLink<T>,
}

impl<T: MessageSize> CommNetwork<T> {
    /// Creates a network with `n` worker endpoints and one coordinator.
    pub fn new(n: usize) -> Self {
        Self::with_stats(n, Arc::new(CommStats::new()))
    }

    /// Creates a network that records into an existing [`CommStats`].
    pub fn with_stats(n: usize, stats: Arc<CommStats>) -> Self {
        let mut worker_senders = Vec::with_capacity(n);
        let mut worker_receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            worker_senders.push(tx);
            worker_receivers.push(rx);
        }
        let (coord_tx, coord_rx) = channel();

        let workers = worker_receivers
            .into_iter()
            .enumerate()
            .map(|(id, inbox)| WorkerLink {
                id,
                to_workers: worker_senders.clone(),
                to_coordinator: coord_tx.clone(),
                inbox,
                stats: Arc::clone(&stats),
            })
            .collect();
        let coordinator = WorkerLink {
            id: COORDINATOR,
            to_workers: worker_senders,
            to_coordinator: coord_tx,
            inbox: coord_rx,
            stats,
        };
        Self {
            workers,
            coordinator,
        }
    }

    /// Splits the network into the coordinator endpoint and the worker
    /// endpoints (to be moved into their threads).
    pub fn split(self) -> (WorkerLink<T>, Vec<WorkerLink<T>>) {
        (self.coordinator, self.workers)
    }

    /// Shared communication counters.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.coordinator.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_can_message_each_other() {
        let net = CommNetwork::<(u64, f64)>::new(2);
        let stats = net.stats();
        let (coord, mut workers) = net.split();
        let w1 = workers.pop().unwrap();
        let w0 = workers.pop().unwrap();
        assert!(w0.send(1, (42, 1.5)));
        let got = w1.recv_blocking();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].from, 0);
        assert_eq!(got[0].payload, (42, 1.5));
        assert_eq!(stats.messages(), 1);
        assert_eq!(stats.bytes(), 16);
        drop(coord);
    }

    #[test]
    fn coordinator_round_trip() {
        let net = CommNetwork::<u64>::new(3);
        let (coord, workers) = net.split();
        for w in &workers {
            assert!(w.send(COORDINATOR, w.id() as u64));
        }
        let got = coord.drain();
        assert_eq!(got.len(), 3);
        // Coordinator replies to each worker.
        for env in &got {
            assert!(coord.send(env.from, env.payload + 100));
        }
        for w in &workers {
            let msgs = w.recv_blocking();
            assert_eq!(msgs.len(), 1);
            assert_eq!(msgs[0].payload, w.id() as u64 + 100);
            assert_eq!(msgs[0].from, COORDINATOR);
        }
    }

    #[test]
    fn self_sends_are_not_counted_as_traffic() {
        let net = CommNetwork::<u64>::new(2);
        let stats = net.stats();
        let (_coord, workers) = net.split();
        assert!(workers[0].send(0, 7));
        assert_eq!(workers[0].drain().len(), 1);
        assert_eq!(stats.messages(), 0, "local delivery is free");
        assert!(workers[0].send(1, 7));
        assert_eq!(stats.messages(), 1);
    }

    #[test]
    fn send_to_missing_worker_fails() {
        let net = CommNetwork::<u64>::new(1);
        let (_coord, workers) = net.split();
        assert!(!workers[0].send(5, 1));
    }

    #[test]
    fn drain_on_empty_inbox_is_empty() {
        let net = CommNetwork::<u64>::new(1);
        let (_coord, workers) = net.split();
        assert!(workers[0].drain().is_empty());
    }

    #[test]
    fn recv_blocking_timeout_distinguishes_slow_from_gone() {
        use std::time::{Duration, Instant};
        let net = CommNetwork::<u64>::new(1);
        let (coord, workers) = net.split();
        // Nothing sent yet: a short timeout elapses and reports None.
        let start = Instant::now();
        assert!(workers[0]
            .recv_blocking_timeout(Duration::from_millis(50))
            .is_none());
        assert!(start.elapsed() >= Duration::from_millis(50));
        // A delivered message is returned well before the deadline.
        assert!(coord.send(0, 9));
        assert_eq!(
            workers[0]
                .recv_blocking_timeout(Duration::from_secs(5))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn cross_thread_usage() {
        let net = CommNetwork::<(u64, u64)>::new(4);
        let stats = net.stats();
        let (coord, workers) = net.split();
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| {
                std::thread::spawn(move || {
                    // Each worker sends one message to every other worker and
                    // reports to the coordinator. The link is returned so the
                    // endpoint stays alive until every thread has finished
                    // sending (as it would in a real BSP job).
                    for peer in 0..w.num_workers() {
                        if peer != w.id() {
                            w.send(peer, (w.id() as u64, peer as u64));
                        }
                    }
                    w.send(COORDINATOR, (w.id() as u64, 0));
                    w
                })
            })
            .collect();
        let _links: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let at_coord = coord.drain();
        assert_eq!(at_coord.len(), 4);
        // 4 workers × 3 peers + 4 coordinator reports = 16 counted sends.
        assert_eq!(stats.messages(), 16);
    }
}
