//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions — never inside the program. All spans of one op share
//! the op id, and each names the span that caused it. Spans stay in memory
//! (one buffer per load thread) and are written out once, at the end of
//! the run, as Chrome trace-event JSON.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Op id shared by every span of one op.
    pub op: u64,
    /// Span id, unique within its op (1 is the op's root).
    pub id: u32,
    /// Id of the span that caused this one (0 for the root).
    pub parent: u32,
    /// Layer boundary name, e.g. `client.query`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Load thread that recorded it.
    pub thread: u32,
}

/// The id of an op's root span.
pub const ROOT: u32 = 1;

/// Per-thread span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    thread: u32,
    op: u64,
    next_id: u32,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// An empty buffer for load thread `thread`, timed from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> SpanBuf {
        SpanBuf {
            epoch,
            thread,
            op: 0,
            next_id: ROOT,
            spans: Vec::new(),
        }
    }

    /// Begin op `op`: the next span recorded with [`SpanBuf::root`] is its
    /// root.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.next_id = ROOT + 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record the op's root span over `[start, end)`.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            op: self.op,
            id: ROOT,
            parent: 0,
            name,
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
            thread: self.thread,
        });
    }

    /// Reserve a span id (for a parent whose interval is known only after
    /// its children ran; see [`SpanBuf::record`]).
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span with a reserved id over `[start, end)`.
    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let start_ns = self.ns(start);
        let dur_ns = self.ns(end).saturating_sub(start_ns);
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns,
            dur_ns,
            thread: self.thread,
        });
        dur_ns
    }

    /// Run `f` inside a new span under `parent`; returns its result and
    /// duration in ns.
    pub fn time<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        let dur = self.record(id, parent, name, start, Instant::now());
        (out, dur)
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.op,
            s.id,
            s.parent
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_of_one_op_share_its_id_and_link_to_their_cause() {
        let mut buf = SpanBuf::new(Instant::now(), 3);
        buf.begin_op(7);
        let t0 = Instant::now();
        let (v, _) = buf.time(ROOT, "client.query", || 41 + 1);
        let replay = buf.reserve();
        let r0 = Instant::now();
        buf.time(replay, "core.query", || ());
        buf.record(replay, ROOT, "replay", r0, Instant::now());
        buf.root("op", t0, Instant::now());
        assert_eq!(v, 42);
        assert!(buf.spans.iter().all(|s| s.op == 7 && s.thread == 3));
        let by_name = |n: &str| buf.spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by_name("op").id, ROOT);
        assert_eq!(by_name("client.query").parent, ROOT);
        assert_eq!(by_name("core.query").parent, by_name("replay").id);
        assert_eq!(by_name("replay").parent, ROOT);
        let json = chrome_json(&buf.spans);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }
}
