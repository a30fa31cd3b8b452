//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call into a
//! layer; nothing inside the libraries is instrumented. They stay in memory and
//! are written out (`--trace-out`) only when the run ends.

use crate::json::Json;
use std::time::{Duration, Instant};

/// One recorded interval: a name, the span that caused it, start and end.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    /// `None` while the span is still open (or was abandoned by an error).
    pub end: Option<Duration>,
}

/// Identifier of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span opened inside it that was left open) and
    /// returns its duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let now = self.origin.elapsed();
        while let Some(open) = self.open.pop() {
            self.spans[open].end.get_or_insert(now);
            if open == id.0 {
                break;
            }
        }
        self.seconds(id)
    }

    /// Records an interval measured elsewhere (e.g. inside a `ReadSource`
    /// wrapper the library calls back into) as a child of `parent`.
    pub fn record(&mut self, name: &str, parent: SpanId, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent.0),
            start: start.saturating_duration_since(self.origin),
            end: Some(end.saturating_duration_since(self.origin)),
        });
    }

    /// Duration of one span in seconds (0 while open).
    pub fn seconds(&self, id: SpanId) -> f64 {
        duration_of(&self.spans[id.0]).as_secs_f64()
    }

    /// A span's duration minus the part of it its direct children cover.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id.0))
            .map(duration_of)
            .sum();
        duration_of(&self.spans[id.0])
            .saturating_sub(children)
            .as_secs_f64()
    }

    /// The spans as a JSON array (`name`, `parent`, `start_ns`, `end_ns`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(id as f64)),
                        ("name".into(), Json::Str(span.name.clone())),
                        (
                            "parent".into(),
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns".into(), Json::Num(span.start.as_nanos() as f64)),
                        (
                            "end_ns".into(),
                            span.end
                                .map_or(Json::Null, |e| Json::Num(e.as_nanos() as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

fn duration_of(span: &Span) -> Duration {
    span.end
        .map_or(Duration::ZERO, |end| end.saturating_sub(span.start))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans: parent [0, 100] ms with children
    /// [10, 30] and [50, 90], the second holding a grandchild [60, 70].
    fn fixture() -> (Recorder, [SpanId; 4]) {
        let ms = Duration::from_millis;
        let span = |name: &str, parent, start, end| Span {
            name: name.to_string(),
            parent,
            start: ms(start),
            end: Some(ms(end)),
        };
        let recorder = Recorder {
            origin: Instant::now(),
            spans: vec![
                span("root", None, 0, 100),
                span("child", Some(0), 10, 30),
                span("child", Some(0), 50, 90),
                span("grandchild", Some(2), 60, 70),
            ],
            open: Vec::new(),
        };
        (recorder, [SpanId(0), SpanId(1), SpanId(2), SpanId(3)])
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let (rec, [root, first, second, leaf]) = fixture();
        assert!((rec.seconds(root) - 0.100).abs() < 1e-12);
        // 100 - (20 + 40): the grandchild is already inside the second child.
        assert!((rec.self_seconds(root) - 0.040).abs() < 1e-12);
        assert!((rec.self_seconds(first) - 0.020).abs() < 1e-12);
        assert!((rec.self_seconds(second) - 0.030).abs() < 1e-12);
        assert!((rec.self_seconds(leaf) - 0.010).abs() < 1e-12);
    }

    #[test]
    fn enter_and_exit_nest_and_close_abandoned_children() {
        let mut rec = Recorder::new();
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        let abandoned = rec.enter("abandoned");
        assert_eq!(rec.seconds(abandoned), 0.0);
        rec.exit(inner);
        assert!(rec.spans[abandoned.0].end.is_some());
        let start = Instant::now();
        rec.record("callback", outer, start, start + Duration::from_millis(1));
        rec.exit(outer);
        assert_eq!(rec.spans[inner.0].parent, Some(outer.0));
        assert_eq!(rec.spans[abandoned.0].parent, Some(inner.0));
        assert_eq!(rec.spans[3].parent, Some(outer.0));
        assert!(rec.seconds(outer) >= rec.seconds(inner));
        assert!(rec.open.is_empty());
        let next = rec.enter("next");
        assert_eq!(rec.spans[next.0].parent, None);
    }

    #[test]
    fn spans_serialize_with_parent_links() {
        let (rec, _) = fixture();
        let text = rec.to_json().to_string();
        assert!(text.starts_with("[{\"id\":0,\"name\":\"root\",\"parent\":null,\"start_ns\":0,"));
        assert!(text.contains("{\"id\":3,\"name\":\"grandchild\",\"parent\":2,"));
    }
}
