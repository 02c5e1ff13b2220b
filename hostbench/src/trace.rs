//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written once, at the end of a traced run,
//! in the Chrome `trace_event` shape that `wm_stream::trace` emits for
//! simulated runs (`ph: "X"` duration events), so both open in the same
//! viewer. Timestamps here are real host microseconds.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `frontend` or `sim.run`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; does nothing (and reads no clock)
/// when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Does this tracer record?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute the following spans to `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest in it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in ns: each span's duration minus the
    /// durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    /// The spans as a Chrome `trace_event` document. `args` carries each
    /// span's index, parent index and job id.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(
            "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {\"name\": \"host\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n  {{\"name\": \"{}\", \"cat\": \"host\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 0, \"tid\": 0, \
                 \"args\": {{\"span\": {i}, \"parent\": {parent}, \"job\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.job
            ));
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
        out
    }
}

/// Self time per span name over `spans`, in ns.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(children);
    }
    out
}
