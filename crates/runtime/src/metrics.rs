//! Phase-level observability for the real-thread runtime.
//!
//! `PhaseRecorder` (crate-private) is the always-on counter core behind
//! `RunStats::metrics`: each worker owns one recorder, and every phase
//! change (`PhaseRecorder::transition`) takes **a single timestamp**
//! that simultaneously closes the previous phase and opens the next one.
//! Per-phase totals therefore telescope — their sum equals the worker's
//! wall time *exactly*, by construction, with no gaps and no overlaps.
//! That identity is what the metrics property tests pin down.
//!
//! The opt-in event ring ([`Observe::events`]) additionally keeps every
//! phase interval as a timestamped [`PhaseEventNs`] (bounded by
//! [`Observe::max_events`] per worker), which surfaces in
//! `CascadeMetrics::events` with the same schema the simulator derives
//! from its `ChunkEvent` timeline.

use std::time::Instant;

use cascade_core::{LatencyStats, PhaseKind};

/// Observability options for a cascaded run. The counter core (per-phase
/// totals, handoff latencies, byte counts) is always on — this only
/// controls the optional timestamped event ring.
#[derive(Debug, Clone)]
pub struct Observe {
    /// Record a [`PhaseEventNs`] per phase interval (off by default: the
    /// ring costs one `Vec` push per transition).
    pub events: bool,
    /// Per-worker ring capacity; recording stops at the cap so a long
    /// run cannot exhaust memory. Events lost to the cap are *counted*
    /// and surfaced as `events_dropped` in the metrics report — a
    /// truncated timeline is flagged, never silent.
    pub max_events: usize,
}

impl Default for Observe {
    fn default() -> Self {
        Observe {
            events: false,
            max_events: 1 << 16,
        }
    }
}

impl Observe {
    /// Counter core plus the timestamped event ring.
    pub fn with_events() -> Self {
        Observe {
            events: true,
            ..Observe::default()
        }
    }
}

/// One phase interval of one worker, in integer nanoseconds since the
/// run origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEventNs {
    /// What the worker was doing.
    pub kind: PhaseKind,
    /// Chunk the phase was about, when attributable.
    pub chunk: Option<u64>,
    /// Interval start (ns since the run origin).
    pub start_ns: u64,
    /// Interval end.
    pub end_ns: u64,
}

/// Exact integer count / sum / min / max of nanosecond samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NsStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (u128: immune to overflow).
    pub sum_ns: u128,
    /// Smallest sample (0 when `count == 0`).
    pub min_ns: u64,
    /// Largest sample (0 when `count == 0`).
    pub max_ns: u64,
}

impl NsStats {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min_ns = v;
            self.max_ns = v;
        } else {
            self.min_ns = self.min_ns.min(v);
            self.max_ns = self.max_ns.max(v);
        }
        self.count += 1;
        self.sum_ns += v as u128;
    }

    /// Fold another sample set in, as if its samples had been recorded
    /// here.
    pub fn merge(&mut self, other: &NsStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Convert to the cross-engine [`LatencyStats`] shape.
    pub fn to_latency(self) -> LatencyStats {
        LatencyStats {
            count: self.count,
            sum: self.sum_ns as f64,
            min: self.min_ns as f64,
            max: self.max_ns as f64,
        }
    }
}

fn kind_idx(k: PhaseKind) -> usize {
    match k {
        PhaseKind::Helper => 0,
        PhaseKind::Spin => 1,
        PhaseKind::Execute => 2,
        PhaseKind::Retry => 3,
        PhaseKind::Other => 4,
    }
}

/// Per-worker phase clock. See the module docs for the partition
/// guarantee.
pub(crate) struct PhaseRecorder {
    origin: Instant,
    started: Instant,
    last: Instant,
    kind: PhaseKind,
    chunk: Option<u64>,
    totals: [u128; 5],
    events: Vec<PhaseEventNs>,
    record_events: bool,
    max_events: usize,
    /// Phase intervals not recorded because the ring hit `max_events`.
    dropped: u64,
}

impl PhaseRecorder {
    /// Start the clock in [`PhaseKind::Other`] (worker startup).
    pub(crate) fn new(origin: Instant, obs: &Observe) -> Self {
        let now = Instant::now();
        PhaseRecorder {
            origin,
            started: now,
            last: now,
            kind: PhaseKind::Other,
            chunk: None,
            totals: [0; 5],
            events: Vec::new(),
            record_events: obs.events,
            max_events: obs.max_events,
            dropped: 0,
        }
    }

    /// Close the current phase and open `next`, with one shared
    /// timestamp. Returns `(boundary_ns, closed_ns)`: the boundary's
    /// offset from the run origin and the closed phase's duration.
    pub(crate) fn transition(&mut self, next: PhaseKind, chunk: Option<u64>) -> (u64, u64) {
        let now = Instant::now();
        let closed = now.duration_since(self.last).as_nanos();
        self.totals[kind_idx(self.kind)] += closed;
        if self.record_events {
            if self.events.len() < self.max_events {
                self.events.push(PhaseEventNs {
                    kind: self.kind,
                    chunk: self.chunk,
                    start_ns: self.last.duration_since(self.origin).as_nanos() as u64,
                    end_ns: now.duration_since(self.origin).as_nanos() as u64,
                });
            } else {
                // The ring is full: stop recording but *count* what was
                // lost, so a truncated timeline is visible in the report
                // instead of silently reading as complete.
                self.dropped += 1;
            }
        }
        self.last = now;
        self.kind = next;
        self.chunk = chunk;
        (
            now.duration_since(self.origin).as_nanos() as u64,
            closed as u64,
        )
    }

    /// Stop the clock and write the phase totals, wall time, and event
    /// ring into `stats`. The partition identity
    /// `helper + spin + exec + retry + other == wall` holds exactly.
    pub(crate) fn finish(
        mut self,
        mut stats: super::runner::ThreadStats,
    ) -> super::runner::ThreadStats {
        self.transition(PhaseKind::Other, None);
        stats.helper_ns = self.totals[kind_idx(PhaseKind::Helper)];
        stats.spin_ns = self.totals[kind_idx(PhaseKind::Spin)];
        stats.exec_ns = self.totals[kind_idx(PhaseKind::Execute)];
        stats.retry_ns = self.totals[kind_idx(PhaseKind::Retry)];
        stats.other_ns = self.totals[kind_idx(PhaseKind::Other)];
        stats.wall_ns = self.last.duration_since(self.started).as_nanos();
        stats.events = self.events;
        stats.events_dropped = self.dropped;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_stats_tracks_extremes_exactly() {
        let mut s = NsStats::default();
        s.record(7);
        s.record(3);
        s.record(11);
        assert_eq!((s.count, s.sum_ns, s.min_ns, s.max_ns), (3, 21, 3, 11));
        let l = s.to_latency();
        assert_eq!(l.count, 3);
        assert_eq!(l.sum, 21.0);
    }

    #[test]
    fn recorder_totals_partition_wall_exactly() {
        let origin = Instant::now();
        let mut rec = PhaseRecorder::new(origin, &Observe::with_events());
        rec.transition(PhaseKind::Helper, Some(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.transition(PhaseKind::Spin, Some(0));
        rec.transition(PhaseKind::Execute, Some(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let stats = rec.finish(Default::default());
        let sum = stats.helper_ns + stats.spin_ns + stats.exec_ns + stats.retry_ns + stats.other_ns;
        assert_eq!(sum, stats.wall_ns, "phases must tile the wall exactly");
        // The event ring tiles the same interval: contiguous, in order.
        assert!(!stats.events.is_empty());
        for w in stats.events.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "ring must be gap-free");
        }
    }

    #[test]
    fn event_ring_respects_capacity() {
        let origin = Instant::now();
        let obs = Observe {
            events: true,
            max_events: 2,
        };
        let mut rec = PhaseRecorder::new(origin, &obs);
        for i in 0..10 {
            rec.transition(PhaseKind::Helper, Some(i));
        }
        let stats = rec.finish(Default::default());
        assert_eq!(stats.events.len(), 2);
        // Every interval past the cap is counted, not silently lost:
        // the 10 transitions and the finish each close an interval
        // (the recorder opens one at construction), 2 kept, 9 dropped.
        assert_eq!(stats.events_dropped, 9);
    }
}
