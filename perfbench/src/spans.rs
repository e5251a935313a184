//! In-memory spans for the traced run: name, start, end, parent and
//! request id, written out as JSON lines when the run ends.

use acs_errors::json::{object, Value};
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. `open` returns an id that `close` ends; children name
/// their parent's id.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: f64::NAN,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// End span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end = now;
        span.duration()
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the part of it its children cover.
    #[must_use]
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        self_time(span.start, span.end, &children)
    }

    /// Total duration of the spans named `name`, and their count.
    #[must_use]
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.duration(), n + 1))
    }

    /// All spans as JSON lines (the trace file's content).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(
                &object(vec![
                    ("id", Value::Number(id as f64)),
                    ("name", Value::String(s.name.to_owned())),
                    ("start_s", Value::Number(s.start)),
                    ("end_s", Value::Number(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                    ),
                    ("req", Value::Number(s.req as f64)),
                ])
                .to_json(),
            );
            out.push('\n');
        }
        out
    }
}

/// `[start, end]` minus the union of `children` clipped to it. Children
/// may nest inside one another or overlap; covered time counts once.
#[must_use]
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(1.0, 4.0, &[]), 3.0);
    }

    #[test]
    fn nested_children_count_once() {
        // A child and its own child (nested inside it) cover [2, 5].
        assert_eq!(self_time(0.0, 10.0, &[(2.0, 5.0), (3.0, 4.0)]), 7.0);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // [1,4] and [3,6] overlap: union [1,6]; [8,9] is disjoint.
        assert_eq!(
            self_time(0.0, 10.0, &[(3.0, 6.0), (1.0, 4.0), (8.0, 9.0)]),
            4.0
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(
            self_time(2.0, 6.0, &[(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]),
            2.0
        );
    }

    #[test]
    fn tracer_links_parents_and_exports_every_span() {
        let mut t = Tracer::new();
        let root = t.open("root", None, 7);
        t.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let (total, count) = t.total("child");
        assert_eq!(count, 1);
        assert!(t.self_time(root) <= t.spans()[root].duration() - total + 1e-12);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":0") && lines.contains("\"req\":7"));
    }
}
