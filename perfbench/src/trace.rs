//! Benchmark-side tracing: the one clock every timing reads, spans kept in
//! memory and written out when the run ends, and the observer wrapper that
//! times §2.2 sampling without a span per round.
//!
//! Spans are recorded only in benchmark code, around each call into a
//! layer. A layer's self time is its span's duration minus the part its
//! child spans cover.

use rotor::rotor_analysis::report::Json;
use rotor::rotor_core::{CoverProcess, Observer};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call; every timing in the benchmark reads
/// this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint: allow(wall-clock) -- benchmark timing only; no simulated result depends on it
    let now = Instant::now();
    let epoch = *EPOCH.get_or_init(|| now);
    u64::try_from(now.duration_since(epoch).as_nanos()).expect("run shorter than 584 years")
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.build` or `core.ring.sim`.
    pub name: String,
    /// Start, in [`now_ns`] nanoseconds.
    pub start: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The sweep cell the span belongs to.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span and counter recorder. A disabled tracer records
/// nothing and costs one branch per call.
pub struct Tracer {
    on: bool,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Counters recorded at the same boundaries as the spans.
    pub counts: BTreeMap<String, u64>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, enabled or not.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            counts: BTreeMap::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            cell: None,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in stack order");
        }
    }

    /// Records a closed span measured elsewhere (on a worker thread) as a
    /// child of `parent`.
    pub fn record(
        &mut self,
        name: &str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            cell,
        });
        Some(self.spans.len() - 1)
    }

    /// Adds to a counter.
    pub fn count(&mut self, name: impl Into<String>, n: u64) {
        if self.on {
            *self.counts.entry(name.into()).or_default() += n;
        }
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<String, i128> {
        let mut out: BTreeMap<String, i128> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_default() += i128::from(s.nanos());
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name.clone()).or_default() -= i128::from(s.nanos());
            }
        }
        out
    }

    /// The spans as JSON lines, tagged with `pass`.
    pub fn to_json_lines(&self, pass: &str, out: &mut String) {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Int(v as u64));
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("pass", Json::Str(pass.to_string())),
                ("id", Json::Int(id as u64)),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::Int(s.start)),
                ("end_ns", Json::Int(s.end)),
                ("parent", opt(s.parent)),
                ("cell", opt(s.cell)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
    }
}

/// Wraps an observer and times the calls on which a stride-`s` sampler
/// does its work (every `s`-th round and the covering round). The calls in
/// between are one branch inside the drive loop; they are counted, not
/// timed, and stay in the engine's time. Aggregated as a count and a
/// total instead of one span per round.
pub struct TimedObserver<O> {
    /// The wrapped observer.
    pub inner: O,
    stride: u64,
    /// Every call.
    pub calls: u64,
    /// Nanoseconds spent in the timed calls.
    pub nanos: u64,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`, timing the calls a stride-`stride` sampler acts on.
    pub fn new(inner: O, stride: u64) -> Self {
        TimedObserver {
            inner,
            stride: stride.max(1),
            calls: 0,
            nanos: 0,
        }
    }
}

impl<P: CoverProcess + ?Sized, O: Observer<P>> Observer<P> for TimedObserver<O> {
    fn observe(&mut self, p: &P) {
        self.calls += 1;
        let round = p.round();
        if !round.is_multiple_of(self.stride) && p.cover_round() != Some(round) {
            self.inner.observe(p);
            return;
        }
        let start = now_ns();
        self.inner.observe(p);
        self.nanos += now_ns() - start;
    }
}
