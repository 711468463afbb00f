//! Spans around the calls the harness makes into a layer's public functions,
//! kept in memory and written at exit in Chrome trace-event form.
//!
//! `begin`/`end` is also the harness's only stopwatch: `end` returns the
//! span's duration whether or not it is recorded, so a traced and an untraced
//! operation run the same code except for one `Vec::push`.

use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// Crate the call goes into (`bench` for the harness's own work).
    pub layer: &'static str,
    pub name: &'static str,
    pub round: u32,
    pub client: u32,
    pub start_us: f64,
    pub end_us: f64,
}

/// An open span.
pub struct Open {
    id: u32,
    parent: u32,
    layer: &'static str,
    name: &'static str,
    round: u32,
    started: Instant,
}

pub struct Tracer {
    /// Whether `end` records the span. Toggled per round in a traced run, so
    /// traced and untraced rounds interleave.
    pub recording: bool,
    epoch: Instant,
    client: u32,
    next_id: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for one client thread; all tracers of a run share `epoch`.
    pub fn new(epoch: Instant, client: u32, recording: bool) -> Tracer {
        Tracer {
            recording,
            epoch,
            client,
            // Ids stay unique across the clients of one run.
            next_id: client * 10_000_000 + 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, round: u32) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Open {
            id,
            parent,
            layer,
            name,
            round,
            started: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        self.stack.retain(|&id| id != open.id);
        if self.recording {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                layer: open.layer,
                name: open.name,
                round: open.round,
                client: self.client,
                start_us: (open.started - self.epoch).as_secs_f64() * 1e6,
                end_us: (ended - self.epoch).as_secs_f64() * 1e6,
            });
        }
        (ended - open.started).as_secs_f64() * 1e3
    }
}

/// Share of the recorded `round` spans' time that their direct child spans
/// cover: 1.0 means every microsecond of a round is attributed to a call.
pub fn span_coverage(spans: &[Span]) -> f64 {
    let mut round_us = 0.0;
    let mut child_us = 0.0;
    for round in spans.iter().filter(|s| s.name == "round") {
        round_us += round.end_us - round.start_us;
        child_us += spans
            .iter()
            .filter(|s| s.parent == round.id)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>();
    }
    if round_us > 0.0 {
        child_us / round_us
    } else {
        0.0
    }
}

/// Writes `spans` as Chrome trace events (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            text.push_str(",\n");
        }
        text.push_str(&format!(
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.1},\"dur\":{:.1},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}",
            s.layer,
            s.name,
            s.layer,
            s.start_us,
            s.end_us - s.start_us,
            s.client,
            s.id,
            s.parent,
            s.round
        ));
    }
    text.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
