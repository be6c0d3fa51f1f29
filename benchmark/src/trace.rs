//! Spans recorded from outside the program, around the calls into each
//! layer. Kept in memory, written out when the traced run ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one (manifest, seed) run share this.
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans opened from now on belong to `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// End the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::object()
                        .with("id", s.id)
                        .with("parent", s.parent)
                        .with("run", s.run)
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part its child spans cover.
/// Children never overlap here — everything is recorded on one thread.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns() - children
}

/// Summed self time, in seconds, of every span called `name`.
pub fn self_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_ns(spans, s.id))
        .sum::<u64>() as f64
        / 1e9
}

/// How many spans are called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // drive [0, 1000] holds two round_end spans; the second holds a
        // grandchild that must not be subtracted from drive twice
        let spans = vec![
            span(0, None, "engine.drive", 0, 1_000),
            span(1, Some(0), "observers.round_end", 100, 300),
            span(2, Some(0), "observers.round_end", 500, 900),
            span(3, Some(2), "inner", 600, 700),
        ];
        assert_eq!(self_ns(&spans, 0), 1_000 - 200 - 400);
        assert_eq!(self_ns(&spans, 2), 400 - 100);
        assert_eq!(self_ns(&spans, 3), 100);
        assert_eq!(self_seconds(&spans, "observers.round_end"), 500e-9);
        assert_eq!(count(&spans, "observers.round_end"), 2);
        // self times partition the root span
        let total: u64 = (0..spans.len()).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut t = Tracer::new();
        t.set_run(7);
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner);
        t.close(outer);
        let after = t.open("after");
        t.close(after);
        let s = t.spans();
        assert_eq!(s[inner].parent, Some(outer));
        assert_eq!(s[after].parent, None);
        assert!(s.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        assert!(s[outer].start_ns <= s[inner].start_ns && s[inner].end_ns <= s[outer].end_ns);
    }
}
