//! In-memory spans around the harness's calls into each layer. Spans are
//! kept in a vector while the pass runs and written out when it ends; a
//! disabled tracer runs the same closures without recording, which is the
//! untraced side of `trace.overhead_share`.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer row this span adds to, e.g. `core.parse`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's creation to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's creation to the return.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and only runs the closures
    /// otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the span that is
    /// open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted
/// twice, and a child is clipped to its parent).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    parent.duration_ns().saturating_sub(covered)
}

/// Seconds of self time summed over every span called `name`.
pub fn self_secs(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(id, _)| self_time_ns(spans, id))
        .sum();
    ns as f64 / 1e9
}

/// One line of the span file.
#[derive(Debug, serde::Serialize)]
pub struct SpanRecord {
    name: &'static str,
    /// Nanoseconds from the start of the pass.
    start: u64,
    end: u64,
    /// Index, within the pass, of the span that caused this one.
    parent: Option<u64>,
    pass: String,
    workload: String,
}

/// The span file's records for one pass of `workload`.
pub fn records(workload: &str, pass: &str, spans: &[Span]) -> Vec<SpanRecord> {
    spans
        .iter()
        .map(|s| SpanRecord {
            name: s.name,
            start: s.start_ns,
            end: s.end_ns,
            parent: s.parent.map(|p| p as u64),
            pass: pass.to_string(),
            workload: workload.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 70, Some(0)),
            span("deep", 12, 18, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert_eq!(self_time_ns(&spans, 1), 14);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_time_ns(&spans, 3), 6);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = [
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("a", 140, 160, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("b", 190, 250, Some(0)),
        ];
        // Covered: 110..160 (50) and 190..200 (10).
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert!((self_secs(&spans, "a") - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut on = Tracer::new(true);
        let got = on.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(got, 7);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
