//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span carries its name, start and end (nanoseconds since the
//! tracer was created), the index of the span that was open when it
//! started (its parent) and the id of the trial it belongs to. Spans
//! are kept in memory and written out once, when the run ends. A
//! disabled tracer records nothing: `span` then only calls its body.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    run: u32,
}

/// Records nested spans when enabled; a no-op wrapper otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Tracer {
    /// A tracer that records spans when `on` is true.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next trial: later spans carry its id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under whatever
    /// span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[idx as usize].end = end;
        out
    }

    /// Records a span timed by the caller, nested under whatever span
    /// is open. Hot loops use it to share one clock read between the
    /// end of one span and the start of the next.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            run: self.run,
        });
    }

    /// Per trial and per span name: total duration and total self time
    /// (duration minus the time covered by child spans), in
    /// nanoseconds.
    pub fn totals(&self) -> SpanTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = SpanTotals::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.run).or_default().entry(s.name).or_default();
            let dur = s.end - s.start;
            t.total_ns += dur;
            t.self_ns += dur - child.min(dur);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `run  index  parent  name  start_ns  end_ns` (parent `-` for a
    /// top-level span).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "run\tindex\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.run, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Per trial id, per span name: the trial's [`Totals`].
pub type SpanTotals = BTreeMap<u32, BTreeMap<&'static str, Totals>>;

/// Aggregate of all spans of one name within one trial.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}
