//! The benchmark's own in-memory span recorder.
//!
//! A span is a name, a start, an end and the span that caused it; all
//! spans of one workload's traced run share one run id. Spans live in a
//! `Vec` until the run ends and are then written as Chrome trace-event
//! JSON. The recorder wraps calls *into* the repository's layers from
//! outside — the program itself is not instrumented — so a disabled
//! recorder (the untraced run) costs one branch per call site.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::{arr, num, obj, str, Json};

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps (e.g. `rt.try_run_governed`).
    pub name: &'static str,
    /// Interval start.
    pub start_ns: u64,
    /// Interval end (`start_ns` until the span is closed).
    pub end_ns: u64,
    /// The span that caused this one; `None` for a top-level phase.
    pub parent: Option<SpanId>,
    /// Timeline lane: 0 is the benchmark's thread, `1 + t` worker `t` of
    /// a cascaded run whose event ring was imported.
    pub lane: u32,
}

impl Span {
    /// Interval length.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus what child spans cover).
    pub self_ns: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run_id: String,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    /// A live recorder; `run_id` is shared by every span it records.
    pub fn new(run_id: &str) -> Recorder {
        Recorder {
            origin: Instant::now(),
            run_id: run_id.to_string(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing (the untraced run).
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new("")
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Keep an interval the caller timed itself as a closed child of the
    /// innermost open span (one clock pair serves both the caller's
    /// totals and the trace).
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: self.open.last().copied(),
            lane: 0,
        });
    }

    /// Import an interval measured elsewhere (a worker's phase event) as a
    /// closed child of `parent`; offsets are relative to `parent`'s start
    /// and the interval is clipped to `parent`.
    pub fn import(
        &mut self,
        parent: SpanId,
        name: &'static str,
        lane: u32,
        start_off_ns: u64,
        end_off_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent as usize];
        let start_ns = (p.start_ns + start_off_ns).min(p.end_ns);
        let end_ns = (p.start_ns + end_off_ns).clamp(start_ns, p.end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            lane,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover. Children on different
    /// lanes may overlap each other, so the covered part is the *union*
    /// of their intervals, not their sum.
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .map(|(s, k)| s.dur_ns() - union_len(k, s.start_ns, s.end_ns))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Share (0..=1) of the recorder's lifetime so far that top-level
    /// spans cover.
    pub fn top_level_cover(&self) -> f64 {
        let wall = self.now_ns();
        if wall == 0 {
            return 0.0;
        }
        let mut tops: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        union_len(&mut tops, 0, wall) as f64 / wall as f64
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events,
    /// microsecond timestamps), loadable by `chrome://tracing` / Perfetto.
    pub fn to_chrome_trace(&self) -> Json {
        let selfs = self.self_times();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj(vec![
                    ("name", str(s.name)),
                    ("ph", str("X")),
                    ("ts", num(s.start_ns as f64 / 1e3)),
                    ("dur", num(s.dur_ns() as f64 / 1e3)),
                    ("pid", num(1.0)),
                    ("tid", num(f64::from(s.lane))),
                    (
                        "args",
                        obj(vec![
                            ("id", num(i as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| num(f64::from(p)))),
                            ("run", str(&self.run_id)),
                            ("self_us", num(selfs[i] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("displayTimeUnit", str("ms")),
            ("traceEvents", arr(events)),
        ])
    }
}

/// Length of the union of `intervals`, clipped to `lo..hi`. Sorts in place.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans, so the arithmetic is exact.
    fn fixed(spans: Vec<Span>) -> Recorder {
        Recorder {
            spans,
            ..Recorder::new("t")
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = fixed(vec![
            span("rep", 0, 100, None),
            span("call", 10, 70, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("call", 80, 90, Some(0)),
        ]);
        assert_eq!(r.self_times(), vec![30, 50, 10, 10]);
        let by = r.by_name();
        assert_eq!(
            by["call"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(by["rep"].self_ns, 30);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers' phases overlap in time inside one run span.
        let mut r = fixed(vec![span("run", 100, 200, None)]);
        r.import(0, "w.execute", 1, 0, 60);
        r.import(0, "w.helper", 2, 40, 90);
        // Clipped to the parent: 95..150 becomes 95..100.
        r.import(0, "w.spin", 2, 95, 150);
        assert_eq!(r.spans()[3].end_ns, 200);
        // Union covers 0..90 and 95..100 of the 100 ns parent.
        assert_eq!(r.self_times()[0], 5);
    }

    #[test]
    fn enter_and_exit_nest_under_the_open_span() {
        let mut r = Recorder::new("t");
        let a = r.enter("a");
        let b = r.enter("b");
        r.exit(b);
        r.exit(a);
        let c = r.scope("c", || 7);
        assert_eq!(c, 7);
        let s = r.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(r.top_level_cover() > 0.0 && r.top_level_cover() <= 1.0);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled();
        let a = r.enter("a");
        r.import(a, "x", 1, 0, 1);
        r.exit(a);
        r.record("y", Instant::now(), Duration::ZERO);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_carries_parent_run_and_self_time() {
        let r = fixed(vec![
            span("rep", 0, 4000, None),
            span("call", 1000, 3000, Some(0)),
        ]);
        let text = crate::json::write(&r.to_chrome_trace());
        let back = crate::json::parse(&text).unwrap();
        let Some(Json::Arr(ev)) = back.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(ev[1].get("dur").and_then(Json::as_f64), Some(2.0));
        let args = ev[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("run").and_then(Json::as_str), Some("t"));
        assert_eq!(
            ev[0]
                .get("args")
                .unwrap()
                .get("self_us")
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(ev[0].get("args").unwrap().get("parent"), Some(&Json::Null));
    }
}
