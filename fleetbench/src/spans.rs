//! Spans recorded around the benchmark's calls into the program's
//! layers, and the arithmetic that turns them into per-layer self time,
//! unattributed time and a Chrome trace.

use std::collections::BTreeMap;
use std::time::Instant;

use tytan_trace::{EventKind, Layer, TraceEvent};

/// What a span's time counts as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call into one of the program's layers.
    Layer,
    /// A blocking wait (channel receive, pool drain).
    Wait,
    /// A container that only groups its children (one device job); its
    /// own time is unattributed.
    Group,
}

/// One timed interval on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer prefix>.<call>`, e.g. `platform.boot`.
    pub name: &'static str,
    pub kind: Kind,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Attestation id: the device, if the span works for one...
    pub device: Option<u64>,
    /// ...and that device's round.
    pub round: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records the spans of one thread's work in memory.
pub struct Recorder {
    epoch: Instant,
    thread: String,
    device_side: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    device: Option<u64>,
    round: u64,
    samples: Vec<(&'static str, f64)>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: String, device_side: bool) -> Self {
        Recorder {
            epoch,
            thread,
            device_side,
            spans: Vec::new(),
            open: Vec::new(),
            device: None,
            round: 0,
            samples: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the attestation id stamped on spans entered from now on.
    pub fn attestation(&mut self, device: Option<u64>, round: u64) {
        self.device = device;
        self.round = round;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, kind: Kind) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            kind,
            start,
            end: start,
            parent: self.open.last().copied(),
            device: self.device,
            round: self.round,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) -> Span {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(
            top,
            Some(id),
            "span {} closed out of order",
            self.spans[id].name
        );
        self.spans[id].end = end;
        self.spans[id]
    }

    /// Records a named value (a count, a size, a rate).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    /// Closes whatever is still open (an error cut the work short) and
    /// hands the spans over.
    pub fn finish(mut self) -> Trace {
        while let Some(id) = self.open.last().copied() {
            self.exit(id);
        }
        Trace {
            thread: self.thread,
            device_side: self.device_side,
            spans: self.spans,
            samples: self.samples,
        }
    }
}

/// The spans and samples one recorder collected.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub thread: String,
    pub device_side: bool,
    pub spans: Vec<Span>,
    pub samples: Vec<(&'static str, f64)>,
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span run one after another on its thread, so
/// what they cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.dur();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| span.dur().saturating_sub(covered))
        .collect()
}

/// Total length of the union of half-open `intervals`.
pub fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Wall time and unattributed time of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadTime {
    /// First span start to last span end.
    pub wall: u64,
    /// Wall time no layer span and no blocking wait covers.
    pub unattributed: u64,
}

/// Per-thread wall and unattributed time; traces recorded on the same
/// thread (one per device job) are merged.
pub fn thread_times(traces: &[Trace]) -> BTreeMap<&str, ThreadTime> {
    let mut by_thread: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for trace in traces {
        by_thread
            .entry(trace.thread.as_str())
            .or_default()
            .extend(&trace.spans);
    }
    by_thread
        .into_iter()
        .filter_map(|(thread, spans)| {
            let first = spans.iter().map(|s| s.start).min()?;
            let last = spans.iter().map(|s| s.end).max()?;
            let attributed = covered(
                spans
                    .iter()
                    .filter(|s| s.kind != Kind::Group)
                    .map(|s| (s.start, s.end))
                    .collect(),
            );
            let wall = last - first;
            let unattributed = wall.saturating_sub(attributed);
            Some((thread, ThreadTime { wall, unattributed }))
        })
        .collect()
}

/// The ledger row a span name belongs to: its prefix, grouped into the
/// layers the benchmark reports. Blocking waits are their own row.
pub fn ledger_row(span: &Span) -> Option<&'static str> {
    match span.kind {
        Kind::Group => None,
        Kind::Wait => Some("wait"),
        Kind::Layer => Some(match span.name.split('.').next().unwrap_or("") {
            "farm" | "platform" | "loader" => "provisioning",
            "attest" => "attest",
            "emu" | "cfa" => "engine",
            "proto" => "wire",
            "transport" | "pool" => "transport",
            "verifier" => "verifier",
            "recorder" => "recorder",
            "setup" => "setup",
            _ => "trace",
        }),
    }
}

/// Self time per ledger row, summed over every trace.
pub fn ledger(traces: &[Trace]) -> BTreeMap<&'static str, u64> {
    let mut rows = BTreeMap::new();
    for trace in traces {
        for (span, own) in trace.spans.iter().zip(self_times(&trace.spans)) {
            if let Some(row) = ledger_row(span) {
                *rows.entry(row).or_insert(0) += own;
            }
        }
    }
    rows
}

/// The Chrome-trace process a span shows under: device-side engine work
/// under `emu`, the rest of the device under `core`, the verifier under
/// `fleet`.
fn chrome_layer(trace: &Trace, span: &Span) -> Layer {
    match (trace.device_side, span.name.split('.').next()) {
        (true, Some("emu" | "cfa")) => Layer::Emu,
        (true, _) => Layer::Core,
        (false, _) => Layer::Fleet,
    }
}

/// Chrome `trace_event` records for `traces`: one track per device
/// (`tid = device + 1`) in each process, so one attestation reads from
/// provisioning through the wire to its verdict; spans for no single
/// device sit on track 0. Timestamps are nanoseconds since the epoch.
pub fn chrome_events(traces: &[Trace]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for trace in traces {
        let event = |span: &Span, kind| TraceEvent {
            cycle: match kind {
                EventKind::Exit(_) => span.end,
                _ => span.start,
            },
            layer: chrome_layer(trace, span),
            tid: span.device.map_or(0, |d| d.saturating_add(1) as u32),
            kind,
        };
        // Spans are stored in start order; replaying them against a stack
        // of open ancestors emits properly nested begin/end pairs.
        let mut open: Vec<usize> = Vec::new();
        for (id, span) in trace.spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if is_ancestor(&trace.spans, top, id) {
                    break;
                }
                open.pop();
                let closing = &trace.spans[top];
                events.push(event(closing, EventKind::Exit(closing.name)));
            }
            events.push(event(span, EventKind::Enter(span.name)));
            open.push(id);
        }
        while let Some(top) = open.pop() {
            let closing = &trace.spans[top];
            events.push(event(closing, EventKind::Exit(closing.name)));
        }
    }
    // Each trace's records are already in time order; a stable sort
    // interleaves traces without reordering records of one trace.
    events.sort_by_key(|e| e.cycle);
    events
}

fn is_ancestor(spans: &[Span], ancestor: usize, mut id: usize) -> bool {
    while let Some(parent) = spans[id].parent {
        if parent == ancestor {
            return true;
        }
        id = parent;
    }
    false
}

/// One JSON line per span with its attestation id and parent, for
/// following an attestation outside a trace viewer.
pub fn spans_jsonl(traces: &[Trace]) -> String {
    let mut out = String::new();
    for trace in traces {
        for span in &trace.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"thread\":\"{}\",\"name\":\"{}\",\"device\":{},\"round\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                tytan_trace::chrome::escape_json_string(&trace.thread),
                span.name,
                opt(span.device),
                span.round,
                opt(span.parent.map(|p| p as u64)),
                span.start,
                span.end,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, kind: Kind, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            kind,
            start,
            end,
            parent,
            device: Some(3),
            round: 1,
        }
    }

    fn trace(thread: &str, spans: Vec<Span>) -> Trace {
        Trace {
            thread: thread.to_string(),
            device_side: true,
            spans,
            samples: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("transport.device_wait", Kind::Wait, 0, 100, None),
            span("proto.device_decode", Kind::Layer, 10, 20, Some(0)),
            span("proto.device_decode", Kind::Layer, 60, 90, Some(0)),
            span("attest.respond", Kind::Layer, 100, 130, None),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30, 30]);
        let rows = ledger(&[trace("w", spans)]);
        assert_eq!(rows.get("wait"), Some(&60));
        assert_eq!(rows.get("wire"), Some(&40));
        assert_eq!(rows.get("attest"), Some(&30));
    }

    #[test]
    fn union_of_intervals() {
        assert_eq!(covered(vec![]), 0);
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(vec![(20, 25), (0, 10), (2, 3)]), 15);
        assert_eq!(covered(vec![(0, 10), (10, 12)]), 12);
    }

    #[test]
    fn unattributed_is_wall_minus_layer_and_wait_cover() {
        // One worker thread ran two device jobs (group spans). Inside the
        // first, 20 ns sit between layer spans; between the jobs, 5 ns of
        // pool hand-off; the second job is fully covered.
        let job_a = vec![
            span("farm.job", Kind::Group, 0, 100, None),
            span("platform.boot", Kind::Layer, 0, 50, Some(0)),
            span("transport.device_wait", Kind::Wait, 70, 100, Some(0)),
        ];
        let job_b = vec![
            span("farm.job", Kind::Group, 105, 125, None),
            span("attest.respond", Kind::Layer, 105, 125, Some(0)),
        ];
        let verifier = vec![
            span("verifier.idle", Kind::Wait, 0, 40, None),
            span("verifier.flush", Kind::Layer, 40, 60, None),
        ];
        let traces = [
            trace("worker-0", job_a),
            trace("verifier", verifier),
            trace("worker-0", job_b),
        ];
        let times = thread_times(&traces);
        assert_eq!(
            times.get("worker-0"),
            Some(&ThreadTime {
                wall: 125,
                unattributed: 25
            })
        );
        assert_eq!(
            times.get("verifier"),
            Some(&ThreadTime {
                wall: 60,
                unattributed: 0
            })
        );
    }

    #[test]
    fn recorder_nests_and_finish_closes_open_spans() {
        let mut rec = Recorder::new(Instant::now(), "t".to_string(), true);
        rec.attestation(Some(7), 2);
        let outer = rec.enter("farm.job", Kind::Group);
        let inner = rec.enter("platform.boot", Kind::Layer);
        let closed = rec.exit(inner);
        assert_eq!(closed.parent, Some(outer));
        assert_eq!((closed.device, closed.round), (Some(7), 2));
        rec.enter("loader.load", Kind::Layer);
        let trace = rec.finish();
        assert_eq!(trace.spans.len(), 3);
        assert!(trace.spans.iter().all(|s| s.end >= s.start));
        assert!(trace.spans[0].end >= trace.spans[2].end);
    }

    #[test]
    fn chrome_records_nest_per_track() {
        let spans = vec![
            span("farm.job", Kind::Group, 0, 100, None),
            span("platform.boot", Kind::Layer, 0, 40, Some(0)),
            span("emu.run", Kind::Layer, 40, 90, Some(0)),
        ];
        let events = chrome_events(&[trace("w", spans)]);
        let shape: Vec<(u64, &str, bool)> = events
            .iter()
            .map(|e| {
                (
                    e.cycle,
                    e.kind.name(),
                    matches!(e.kind, EventKind::Enter(_)),
                )
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                (0, "farm.job", true),
                (0, "platform.boot", true),
                (40, "platform.boot", false),
                (40, "emu.run", true),
                (90, "emu.run", false),
                (100, "farm.job", false),
            ]
        );
        assert!(events.iter().all(|e| e.tid == 4));
        assert_eq!(events[3].layer, Layer::Emu);
        assert_eq!(events[0].layer, Layer::Core);
    }
}
