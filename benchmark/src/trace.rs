//! Spans and counters for `--trace 1` runs, plus the process readings.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (nothing inside the library is instrumented). They are held in memory
//! and aggregated into the per-layer metrics when the run ends; `--spans
//! PATH` also writes them out, one JSON object per line.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One timed call: `start`/`end` are seconds since the run began, `parent`
/// indexes the enclosing span, `op` identifies the workload operation.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct Record {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Record {
    /// Summed duration of every span named `name` (over all threads).
    pub fn busy(&self, name: &str) -> f64 {
        // `fold` from +0.0: an empty `sum` of floats is -0.0.
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + (s.end - s.start))
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// A counter's total (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of the spans named `name`: their duration minus that of
    /// their direct children.
    pub fn self_time(&self, name: &str) -> f64 {
        let children = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .fold(0.0, |total, s| total + (s.end - s.start));
        self.busy(name) - children
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Records spans and counters when enabled; every call is a no-op (and
/// times nothing) when disabled.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    record: Option<Mutex<Record>>,
}

impl Tracer {
    /// A tracer that records when `enabled`; its clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            record: enabled.then(|| Mutex::new(Record::default())),
        }
    }

    /// Whether spans and counters are recorded.
    pub fn enabled(&self) -> bool {
        self.record.is_some()
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its id (`None` when disabled).
    pub fn open(&self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        let record = self.record.as_ref()?;
        let start = self.now();
        // Every update leaves the record valid, so a poisoned lock is safe
        // to keep using.
        let mut record = record.lock().unwrap_or_else(PoisonError::into_inner);
        record.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        Some(record.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<usize>) {
        if let (Some(record), Some(id)) = (&self.record, id) {
            let end = self.now();
            record.lock().unwrap_or_else(PoisonError::into_inner).spans[id].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let result = f();
        self.close(id);
        result
    }

    /// Adds `value` to a counter.
    pub fn count(&self, name: &'static str, value: f64) {
        if let Some(record) = &self.record {
            *record
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .counters
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    /// The record (empty when disabled).
    pub fn finish(self) -> Record {
        self.record
            .map(|r| r.into_inner().unwrap_or_else(PoisonError::into_inner))
            .unwrap_or_default()
    }
}

/// Peak resident set size (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User and system CPU seconds of the process so far, from
/// `/proc/self/stat` (fields 14 and 15, in Linux's fixed 100 Hz user
/// clock ticks).
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? / 100.0, ticks(12)? / 100.0))
}
