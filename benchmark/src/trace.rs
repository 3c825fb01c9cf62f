//! In-memory spans recorded around the benchmark's calls into the crates.
//!
//! Every timed section of the benchmark goes through [`Tracer::timed`]:
//! the elapsed time it returns is what the metrics are computed from, and
//! when tracing is on the same interval is also kept as a [`Span`] (name,
//! start, end, parent, lifecycle id). Spans stay in memory and are written
//! out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub lifecycle: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    lifecycle: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            lifecycle: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on carry this lifecycle id.
    pub fn set_lifecycle(&self, id: u32) {
        self.lifecycle.store(id, Ordering::Relaxed);
    }

    /// The innermost open span of the calling thread, for handing to a
    /// thread it spawns (see [`Tracer::adopt`]).
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Makes `parent` the parent of the spans the calling (fresh) thread
    /// records.
    pub fn adopt(&self, parent: Option<u32>) {
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            open.clear();
            open.extend(parent);
        });
    }

    /// Runs `f`, returning its value and the elapsed seconds; records the
    /// interval as a span when tracing is on.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            let start = Instant::now();
            let value = f();
            return (value, start.elapsed().as_secs_f64());
        }
        let parent = self.current();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                lifecycle: self.lifecycle.load(Ordering::Relaxed),
            });
            (spans.len() - 1) as u32
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id as usize].start_ns = start_ns;
        spans[id as usize].end_ns = start_ns + elapsed.as_nanos() as u64;
        (value, elapsed.as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default)]
pub struct SpanSummary {
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the part of each interval its child spans cover.
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Groups spans by name and computes self time: a span's duration minus
/// the union of its children's intervals, clipped to the span.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = span.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.max(cursor);
            let end = end.min(span.end_ns);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        let summary = by_name.entry(span.name).or_default();
        summary.count += 1;
        summary.total_ns += span.duration_ns();
        summary.self_ns += span.duration_ns() - covered;
        summary.durations_ns.push(span.duration_ns());
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            lifecycle: 0,
        };
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (recorded by an adopted thread) and overruns the
            // parent: only 30..100 minus the overlap counts.
            span("b", 30, 120, Some(0)),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary["root"].total_ns, 100);
        assert_eq!(summary["root"].self_ns, 10);
        assert_eq!(summary["a"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let tracer = Tracer::new(false);
        let (value, secs) = tracer.timed("x", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let tracer = Tracer::new(true);
        tracer.set_lifecycle(3);
        tracer.timed("outer", || tracer.timed("inner", || ()));
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].lifecycle, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
