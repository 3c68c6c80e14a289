//! Metrics-soundness properties: the observability layer must *account*
//! for the run, not approximate it.
//!
//! * per worker, the recorded phase durations partition wall time with no
//!   gaps and no overlaps — exactly, in integer nanoseconds;
//! * a fault-free cascade records exactly `chunks - 1` token handoffs
//!   (chunk 0's grant predates the run);
//! * `CascadeMetrics` aggregation is exact under proptest-generated
//!   schedules (pure counting / addition / comparison, no rounding);
//! * the recorder stays within the PR 2 fault-free overhead guard even
//!   with the event ring on.

use std::time::Duration;

use cascade_core::{CascadeMetrics, LatencyStats, MetricsSource, WorkerMetrics};
use cascade_rt::{
    try_run_governed, NsStats, Observe, RtPolicy, RunConfig, RunStats, RunnerConfig, SpecProgram,
};
use cascade_synth::{Synth, Variant};
use proptest::prelude::*;

fn run_observed(n: u64, policy: RtPolicy, nthreads: usize, obs: &Observe) -> RunStats {
    let s = Synth::build(n, Variant::Dense, 77);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    let cfg = RunnerConfig {
        nthreads,
        iters_per_chunk: 512,
        policy,
        poll_batch: 32,
    };
    try_run_governed(
        &k,
        &RunConfig {
            runner: cfg,
            observe: obs.clone(),
            ..Default::default()
        },
    )
    .expect("fault-free run must succeed")
}

#[test]
fn phase_durations_partition_wall_time_exactly() {
    for policy in [RtPolicy::None, RtPolicy::Prefetch, RtPolicy::Restructure] {
        let stats = run_observed(1 << 13, policy, 3, &Observe::with_events());
        assert!(!stats.threads.is_empty());
        for (t, s) in stats.threads.iter().enumerate() {
            let parts = s.helper_ns + s.spin_ns + s.exec_ns + s.retry_ns + s.other_ns;
            assert_eq!(
                parts, s.wall_ns,
                "worker {t} ({policy:?}): phases must tile wall time exactly"
            );
            // The event ring tiles the same interval: contiguous (each
            // interval starts where the previous ended), in order.
            for w in s.events.windows(2) {
                assert_eq!(
                    w[0].end_ns, w[1].start_ns,
                    "worker {t}: event ring has a gap or overlap"
                );
            }
            // ... and the ring's total span is the recorded wall time.
            if let (Some(first), Some(last)) = (s.events.first(), s.events.last()) {
                assert_eq!(
                    (last.end_ns - first.start_ns) as u128,
                    s.wall_ns,
                    "worker {t}: ring span must equal wall time"
                );
            }
        }
        // The derived cross-engine report passes its own invariants.
        stats.metrics().check();
    }
}

#[test]
fn fault_free_handoffs_number_chunks_minus_one() {
    for nthreads in [1usize, 2, 4] {
        let stats = run_observed(
            1 << 13,
            RtPolicy::Restructure,
            nthreads,
            &Observe::default(),
        );
        let m = stats.metrics();
        assert!(stats.chunks > 1, "need a multi-chunk run");
        assert_eq!(
            m.handoff.count,
            stats.chunks - 1,
            "{nthreads} threads: every chunk but the first is handed off exactly once"
        );
        let releases: u64 = stats.threads.iter().map(|t| t.handoffs).sum();
        assert_eq!(
            releases,
            stats.chunks - 1,
            "{nthreads} threads: release count must mirror the takeover count"
        );
        // Exactly one execution sample per chunk, across all workers.
        assert_eq!(m.chunk_exec.count, stats.chunks);
    }
}

#[test]
fn helper_byte_accounting_is_populated() {
    let packed = run_observed(1 << 13, RtPolicy::Restructure, 2, &Observe::default());
    assert!(
        packed.metrics().packed_bytes() > 0,
        "restructure helpers must report packed bytes"
    );
    let prefetched = run_observed(1 << 13, RtPolicy::Prefetch, 2, &Observe::default());
    assert!(
        prefetched.metrics().prefetched_bytes() > 0,
        "prefetch helpers must report covered bytes"
    );
}

#[test]
fn real_and_simulated_reports_share_the_schema() {
    use cascade_core::{run_cascaded, CascadeConfig, HelperPolicy};
    use cascade_mem::machines::pentium_pro;

    let rt = run_observed(1 << 12, RtPolicy::Restructure, 2, &Observe::with_events())
        .metrics()
        .to_json();

    let s = Synth::build(1 << 12, Variant::Dense, 77);
    let report = run_cascaded(
        &pentium_pro(),
        &s.workload,
        &CascadeConfig {
            nprocs: 2,
            chunk_bytes: 16 * 1024,
            policy: HelperPolicy::Restructure { hoist: true },
            jump_out: true,
            calls: 1,
            flush_between_calls: false,
        },
    );
    let sim = report.loops[0].timeline.metrics_with_events(true).to_json();

    // Same keys, same order — only the values and the declared source /
    // time unit differ. That is what makes the two engines diffable with
    // one tool.
    let top_keys = |doc: &str| -> Vec<String> {
        doc.lines()
            .filter(|l| l.starts_with("  \""))
            .filter_map(|l| {
                l.trim()
                    .strip_prefix('"')
                    .map(|r| r.split('"').next().unwrap().to_string())
            })
            .collect()
    };
    assert_eq!(
        top_keys(&rt),
        top_keys(&sim),
        "top-level JSON schema must be identical"
    );
    assert!(rt.contains("\"time_unit\": \"ns\""));
    assert!(sim.contains("\"time_unit\": \"cycles\""));
}

/// The recorder itself (counter core always on, plus the full event
/// ring) must stay within the same fault-free overhead budget PR 2 set
/// for the recovery ladder: min-of-trials, 3x + 10ms slack.
#[test]
fn recorder_overhead_stays_within_the_fault_free_guard() {
    let n = 1u64 << 14;
    let cfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 256,
        policy: RtPolicy::Restructure,
        poll_batch: 8,
    };
    let run = |obs: &Observe| {
        let s = Synth::build(n, Variant::Dense, 1234);
        let prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let k = prog.kernel(0);
        try_run_governed(
            &k,
            &RunConfig {
                runner: cfg.clone(),
                observe: obs.clone(),
                ..Default::default()
            },
        )
        .expect("fault-free run must succeed")
        .elapsed
    };
    let ring = Observe::with_events();
    let counters = Observe::default();
    run(&ring);
    run(&counters);
    let trials = 5;
    let min_elapsed = |obs: &Observe| (0..trials).map(|_| run(obs)).min().unwrap();
    let with_ring = min_elapsed(&ring);
    let without = min_elapsed(&counters);
    let budget = without * 3 + Duration::from_millis(10);
    assert!(
        with_ring <= budget,
        "event ring slowed a fault-free run: {with_ring:?} vs {without:?} (budget {budget:?})"
    );
}

/// Plain-call sanity: the always-on counter core populates the report
/// through the unchanged legacy entry points too.
#[test]
fn counters_are_on_by_default() {
    let s = Synth::build(1 << 12, Variant::Dense, 9);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    let cfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 256,
        policy: RtPolicy::Restructure,
        poll_batch: 16,
    };
    let stats = try_run_governed(&k, &RunConfig::from(cfg)).unwrap();
    let m = stats.metrics();
    assert_eq!(m.source, Some(MetricsSource::Real));
    assert!(m.events.is_empty(), "ring must be opt-in");
    assert!(m.wall_time > 0.0);
    assert_eq!(m.handoff.count, stats.chunks - 1);
    m.check();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `NsStats` aggregation is exact: for any sample stream, count /
    /// sum / min / max match a reference computed in unbounded integers.
    #[test]
    fn ns_stats_aggregation_is_exact(samples in prop::collection::vec(0u64..(1 << 40), 1..64)) {
        let mut s = NsStats::default();
        for &v in &samples {
            s.record(v);
        }
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!(s.sum_ns, samples.iter().map(|&v| v as u128).sum::<u128>());
        prop_assert_eq!(s.min_ns, *samples.iter().min().unwrap());
        prop_assert_eq!(s.max_ns, *samples.iter().max().unwrap());
        // The f64 mirror is exact below 2^53.
        let l = s.to_latency();
        prop_assert_eq!(l.sum as u128, s.sum_ns);
    }

    /// `CascadeMetrics::aggregate` is exact for any proptest-generated
    /// schedule: run-level handoff / chunk-exec distributions equal the
    /// reference aggregation of the per-worker sample streams.
    #[test]
    fn cascade_metrics_aggregation_is_exact(
        schedule in prop::collection::vec(
            (
                prop::collection::vec(0u64..(1 << 40), 0..32), // takeover samples
                prop::collection::vec(0u64..(1 << 40), 0..32), // chunk exec samples
            ),
            1..6,
        )
    ) {
        let mut workers = Vec::new();
        let mut all_takeover: Vec<u64> = Vec::new();
        let mut all_exec: Vec<u64> = Vec::new();
        for (w, (takeovers, execs)) in schedule.iter().enumerate() {
            let mut takeover = NsStats::default();
            for &v in takeovers {
                takeover.record(v);
                all_takeover.push(v);
            }
            let mut chunk_exec = NsStats::default();
            for &v in execs {
                chunk_exec.record(v);
                all_exec.push(v);
            }
            workers.push(WorkerMetrics {
                worker: w as u64,
                chunks: execs.len() as u64,
                takeover: takeover.to_latency(),
                chunk_exec: chunk_exec.to_latency(),
                ..Default::default()
            });
        }
        let mut m = CascadeMetrics { workers, ..Default::default() };
        m.aggregate();

        let reference = |samples: &[u64]| -> LatencyStats {
            let mut r = LatencyStats::default();
            for &v in samples {
                r.record(v as f64);
            }
            r
        };
        prop_assert_eq!(m.handoff, reference(&all_takeover));
        prop_assert_eq!(m.chunk_exec, reference(&all_exec));
        // Exactness, not just f64 agreement: the sums are integers.
        prop_assert_eq!(
            m.handoff.sum as u128,
            all_takeover.iter().map(|&v| v as u128).sum::<u128>()
        );
    }
}
