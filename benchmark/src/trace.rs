//! In-memory spans for the traced replay.
//!
//! Spans are recorded around the public library calls the replay makes
//! (the program itself carries no tracing), kept in memory, and written out
//! as `trace.jsonl` when the run ends. Search internals become child spans
//! through [`SpanObserver`], a [`SearchObserver`] that turns the library's
//! `cache_built` / `node_checked` / `table_materialized` / `verdict_reused`
//! callbacks into spans whose start is the callback time minus the reported
//! elapsed time.
//!
//! A disabled tracer records nothing and runs searches with
//! [`psens_core::NoopObserver`], which is how the untraced half of the
//! replay measures what tracing itself costs.

use psens_core::{CheckStage, SearchObserver};
use psens_microdata::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. `parent` is `None` for a request's root span; every span
/// of one replayed request shares its `request_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self, workload: &str) -> JsonValue {
        let mut out = JsonValue::object();
        out.set("workload", JsonValue::Str(workload.to_owned()));
        out.set("id", JsonValue::Int(self.id as i64));
        out.set(
            "parent",
            self.parent
                .map_or(JsonValue::Null, |p| JsonValue::Int(p as i64)),
        );
        out.set("request_id", JsonValue::Int(self.request_id as i64));
        out.set("name", JsonValue::Str(self.name.to_owned()));
        out.set("start_ns", JsonValue::Int(self.start_ns as i64));
        out.set("end_ns", JsonValue::Int(self.end_ns as i64));
        out
    }
}

/// Span recorder shared by the replay and its search observers.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` and passes it the span's id, so
    /// the calls `f` makes can hang child spans off it. Disabled, it just
    /// runs `f` (with id 0).
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        request_id: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            request_id,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span that ended now and lasted `elapsed`.
    fn ended_now(&self, parent: u64, request_id: u64, name: &'static str, elapsed: Duration) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent),
            request_id,
            name,
            start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
            end_ns,
        });
    }

    /// Every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Span name of the node check that settled in `stage` (`evaluator.` plus
/// the library's stage name).
fn stage_span(stage: CheckStage) -> &'static str {
    match stage {
        CheckStage::Condition1 => "evaluator.condition1",
        CheckStage::Condition2 => "evaluator.condition2",
        CheckStage::KAnonymity => "evaluator.k_anonymity",
        CheckStage::DetailedScan => "evaluator.detailed_scan",
        CheckStage::Passed => "evaluator.passed",
    }
}

/// Turns one search's observer callbacks into child spans of `parent` (the
/// search's own span).
pub struct SpanObserver<'a> {
    pub tracer: &'a Tracer,
    pub parent: u64,
    pub request_id: u64,
}

impl SearchObserver for SpanObserver<'_> {
    fn cache_built(&self, elapsed: Duration) {
        self.tracer
            .ended_now(self.parent, self.request_id, "evaluator.build", elapsed);
    }

    fn node_checked(
        &self,
        _height: usize,
        stage: CheckStage,
        _suppressed: usize,
        elapsed: Duration,
    ) {
        self.tracer
            .ended_now(self.parent, self.request_id, stage_span(stage), elapsed);
    }

    fn table_materialized(&self, elapsed: Duration) {
        self.tracer
            .ended_now(self.parent, self.request_id, "masking.materialize", elapsed);
    }

    fn verdict_reused(&self, _height: usize, inferred: bool) {
        let name = if inferred {
            "verdict.inferred"
        } else {
            "verdict.hit"
        };
        self.tracer
            .ended_now(self.parent, self.request_id, name, Duration::ZERO);
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`: overlapping
/// children (parallel-probe workers) are counted once.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it its children
/// cover.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    span.duration_ns() - covered_ns(span.start_ns, span.end_ns, &mut intervals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request_id: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let root = span(1, None, 100, 200);
        // Two parallel workers overlap on [130, 150); a third child spills
        // past the parent's end and is clipped.
        let a = span(2, Some(1), 110, 150);
        let b = span(3, Some(1), 130, 170);
        let c = span(4, Some(1), 190, 260);
        assert_eq!(self_ns(&root, &[&a, &b, &c]), 100 - (60 + 10));
        // Nested and identical intervals.
        let d = span(5, Some(1), 120, 140);
        assert_eq!(self_ns(&root, &[&a, &d, &a.clone()]), 100 - 40);
        assert_eq!(self_ns(&root, &[]), 100);
        // A child covering the whole parent leaves no self time.
        let all = span(6, Some(1), 50, 250);
        assert_eq!(self_ns(&root, &[&all, &b]), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let seen = tracer.span(None, 1, "op", |id| id);
        assert_eq!(seen, 0);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn observer_spans_hang_off_their_search() {
        let tracer = Tracer::new(true);
        tracer.span(None, 9, "samarati.search", |search| {
            let observer = SpanObserver {
                tracer: &tracer,
                parent: search,
                request_id: 9,
            };
            observer.cache_built(Duration::from_nanos(5));
            observer.node_checked(1, CheckStage::KAnonymity, 0, Duration::from_nanos(3));
            observer.verdict_reused(1, true);
        });
        let spans = tracer.take();
        let search = spans.iter().find(|s| s.name == "samarati.search").unwrap();
        let children: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == Some(search.id))
            .collect();
        let names: Vec<&str> = children.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "evaluator.build",
                "evaluator.k_anonymity",
                "verdict.inferred"
            ]
        );
        assert!(children.iter().all(|s| s.request_id == 9));
    }
}
