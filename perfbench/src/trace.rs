//! In-memory span recorder for the traced replay.
//!
//! A span is one call the benchmark makes into a layer's public API:
//! name, start, end, the span that caused it, and the request it served.
//! Spans stay in memory until the run ends, then go to a TSV file. A
//! disabled tracer records nothing and reads no clock, so the untraced
//! replay runs the same calls without the recording cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `solution.enumerate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span served (0 for set-up work).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

/// The recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Is this the traced pass?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.ns_at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close `id` (must be the innermost open span).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns_at(Instant::now());
    }

    /// Rename a span once its outcome is known (a session call becomes
    /// `session.hit` or `session.cold`).
    pub fn relabel(&mut self, id: SpanId, name: &'static str) {
        if self.enabled {
            self.spans[id].name = name;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span timed elsewhere (inside a callback the recorder
    /// cannot reach), nested in the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// Add `v` to a named counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// A counter's total (0 if never touched).
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Per-request durations of spans called `name`.
    pub fn by_request_ns(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0.0) += s.ns() as f64;
        }
        out
    }

    /// Summed duration of the named spans, in seconds.
    pub fn total_secs(&self, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.ns() as f64 / 1e9)
            .sum()
    }

    /// Per span name: calls, total time and self time (total minus the
    /// part its child spans cover), in seconds, sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut rows: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ns();
            row.2 += s.ns().saturating_sub(child_ns[i]);
        }
        rows.into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e9, own as f64 / 1e9))
            .collect()
    }

    /// Every span as TSV: `id name start_ns end_ns parent request`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let rows = t.summary();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        assert!(outer.2 >= inner.2);
        assert!(outer.3 < outer.2, "self time excludes the child");
        assert!(t.to_tsv().lines().nth(2).unwrap().contains("\t0\t1"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        t.count("c", 1.0);
        t.end(id);
        assert!(t.summary().is_empty());
        assert_eq!(t.total("c"), 0.0);
    }
}
