//! In-memory span recording around calls into each layer.
//!
//! A span records its id, its parent, the call (request or input item) it
//! belongs to, its name, start and end in nanoseconds since the tracer
//! was created, and an item count. Spans are kept in memory and written
//! out as JSON lines once the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover; children always run on
//! the parent's thread, one after another.
//!
//! Span names starting with `bench.` mark the benchmark's own glue (a
//! pass, a client thread, a call, an output check): their self time is the
//! unattributed gap.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// The call or input item the span works on.
    pub call: u64,
    /// Layer or glue name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work items the span handled (requests, leaves, ...), 0 if not
    /// counted.
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The scope under which root spans are opened.
    pub fn root(&self) -> Scope<'_> {
        Scope {
            tracer: Some(self),
            id: 0,
            call: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time, count and items per span name.
    pub fn breakdown(&self) -> Breakdown {
        Breakdown::of(&self.spans.lock().expect("span log poisoned"))
    }
}

/// Where new spans go: under a live parent of a traced pass, or nowhere.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    id: u64,
    call: u64,
}

impl<'a> Scope<'a> {
    /// A scope that records nothing and reads no clock.
    pub const OFF: Scope<'static> = Scope {
        tracer: None,
        id: 0,
        call: 0,
    };

    /// Whether spans opened here are recorded.
    pub fn is_on(&self) -> bool {
        self.tracer.is_some()
    }

    /// The same scope, tagging new spans with `call`.
    #[must_use]
    pub fn with_call(self, call: u64) -> Self {
        Self { call, ..self }
    }

    /// Opens a span; it is recorded when [`Open::close`] is called.
    pub fn enter(self, name: &'static str) -> Open<'a> {
        let start_ns = self.tracer.map_or(0, Tracer::now_ns);
        let id = self
            .tracer
            .map_or(0, |t| t.next_id.fetch_add(1, Ordering::Relaxed));
        Open {
            parent: self,
            id,
            name,
            start_ns,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        self.counted(name, |s| (f(s), 0))
    }

    /// Runs `f` inside a span named `name`; `f` also returns the span's
    /// item count.
    pub fn counted<T>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> (T, u64)) -> T {
        let open = self.enter(name);
        let (value, items) = f(open.scope());
        open.close(items);
        value
    }
}

/// A span opened by [`Scope::enter`].
#[derive(Debug)]
#[must_use = "a span is recorded only when closed"]
pub struct Open<'a> {
    parent: Scope<'a>,
    id: u64,
    name: &'static str,
    start_ns: u64,
}

impl<'a> Open<'a> {
    /// The scope for this span's children.
    pub fn scope(&self) -> Scope<'a> {
        Scope {
            id: self.id,
            ..self.parent
        }
    }

    /// Ends the span and records it with `items` work items.
    pub fn close(self, items: u64) {
        let Some(tracer) = self.parent.tracer else {
            return;
        };
        let span = Span {
            id: self.id,
            parent: self.parent.id,
            call: self.parent.call,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: tracer.now_ns(),
            items,
        };
        tracer.spans.lock().expect("span log poisoned").push(span);
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed self time in nanoseconds.
    pub self_ns: u64,
    /// Summed items.
    pub items: u64,
}

/// Self time per span name, with the totals that must add up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Totals per span name.
    pub names: BTreeMap<&'static str, NameTotals>,
    /// Summed duration of root spans (the traced passes' wall time, per
    /// thread that ran them).
    pub roots_ns: u64,
    /// Child time that exceeded its parent's duration; nonzero means
    /// spans overlapped and the self times do not add up.
    pub overlap_ns: u64,
}

impl Breakdown {
    fn of(spans: &[Span]) -> Self {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(span.parent).or_default() += span.dur_ns();
        }
        let mut out = Self::default();
        for span in spans {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            out.overlap_ns += children.saturating_sub(span.dur_ns());
            let totals = out.names.entry(span.name).or_default();
            totals.count += 1;
            totals.self_ns += span.dur_ns().saturating_sub(children);
            totals.items += span.items;
            if span.parent == 0 {
                out.roots_ns += span.dur_ns();
            }
        }
        out
    }

    /// Summed self time of spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.names
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 * 1e-9)
    }

    /// Summed items of spans named `name`.
    pub fn items(&self, name: &str) -> u64 {
        self.names.get(name).map_or(0, |t| t.items)
    }

    /// Self time of the benchmark's own glue (`bench.*` spans), seconds.
    pub fn gap_s(&self) -> f64 {
        self.names
            .iter()
            .filter(|(name, _)| name.starts_with("bench."))
            .map(|(_, t)| t.self_ns as f64 * 1e-9)
            .sum()
    }

    /// Summed self time of every span, seconds: equals
    /// [`Breakdown::roots_s`] when no spans overlap.
    pub fn total_self_s(&self) -> f64 {
        self.names.values().map(|t| t.self_ns as f64 * 1e-9).sum()
    }

    /// Summed root span duration, seconds.
    pub fn roots_s(&self) -> f64 {
        self.roots_ns as f64 * 1e-9
    }
}

/// Writes `spans` as one JSON object per line.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"call\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}",
            s.id, s.parent, s.call, s.name, s.start_ns, s.end_ns, s.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_roots() {
        let tracer = Tracer::new();
        tracer.root().span("bench.pass", |pass| {
            pass.with_call(1).counted("layer.a", |inner| {
                inner.span("layer.b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                ((), 7)
            });
            pass.span("layer.c", |_| std::hint::black_box(3));
        });
        let b = tracer.breakdown();
        assert_eq!(b.overlap_ns, 0);
        assert_eq!(b.names["layer.b"].count, 1);
        assert_eq!(b.items("layer.a"), 7);
        assert!(b.self_s("layer.b") >= 0.002);
        let sum: u64 = b.names.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, b.roots_ns);
        let spans = tracer.spans();
        let a = spans
            .iter()
            .find(|s| s.name == "layer.a")
            .expect("recorded");
        assert_eq!(a.call, 1);
    }

    #[test]
    fn off_scope_records_nothing() {
        let value = Scope::OFF.span("layer.a", |s| {
            assert!(!s.is_on());
            5
        });
        assert_eq!(value, 5);
    }
}
