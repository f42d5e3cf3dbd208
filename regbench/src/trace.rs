//! In-memory spans for the `--trace 1` run.
//!
//! A span records one call from the benchmark into a layer: its name,
//! start and end (nanoseconds since the tracer was created), its parent
//! span, and the trace it belongs to (one sweep round or one request).
//! Worker threads record into a [`Local`] buffer that is merged into the
//! [`Tracer`] when dropped, so recording takes no lock. Spans are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Trace id shared by all spans of one round or request.
    pub trace: u64,
    /// Layer call, as `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects every span of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh id for a trace or a span.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A per-thread recording buffer.
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Per span name: (count, total seconds, self seconds), where self
    /// time is a span's duration minus what its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span, closed with [`Local::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A thread's span buffer; merged into its tracer on drop.
#[derive(Debug)]
pub struct Local<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl Local<'_> {
    /// Opens a span.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: u64) -> Open {
        Open {
            id: self.tracer.id(),
            parent,
            trace,
            name,
            start_ns: self.tracer.now_ns(),
        }
    }

    /// Closes `open`, returning its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        self.spans.push(span);
        span.secs()
    }

    /// Runs `f` inside a span, returning its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(name, trace, parent);
        let out = f();
        (out, self.close(open))
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        // A poisoned log only loses spans; never panic in drop.
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}
