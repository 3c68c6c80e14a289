//! Stress and edge-case tests of the real-thread cascade runner: extreme
//! chunk/thread ratios, pathological poll batches, and repeated runs over
//! the same program — all must preserve bitwise equivalence with
//! sequential execution.

use cascade_rt::{
    try_run_governed, try_run_governed_sequence, RealKernel, RtPolicy, RunConfig, RunnerConfig,
    SpecProgram,
};
use cascade_synth::{Synth, Variant};
use cascade_wave5::{Parmvr, ParmvrParams};

fn synth_checksum_sequential(n: u64, variant: Variant) -> u64 {
    let s = Synth::build(n, variant, 1234);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    // SAFETY: single-threaded.
    unsafe { k.execute(0..k.iters()) };
    prog.checksum()
}

fn synth_checksum_cascaded(n: u64, variant: Variant, cfg: &RunnerConfig) -> u64 {
    let s = Synth::build(n, variant, 1234);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    try_run_governed(&k, &RunConfig::from(cfg.clone())).unwrap();
    prog.checksum()
}

#[test]
fn more_threads_than_chunks() {
    let n = 1u64 << 10;
    let expected = synth_checksum_sequential(n, Variant::Dense);
    let cfg = RunnerConfig {
        nthreads: 8,
        iters_per_chunk: n, // a single chunk; 7 threads never run
        policy: RtPolicy::Prefetch,
        poll_batch: 4,
    };
    assert_eq!(synth_checksum_cascaded(n, Variant::Dense, &cfg), expected);
}

#[test]
fn one_iteration_chunks() {
    let n = 256u64;
    let expected = synth_checksum_sequential(n, Variant::Dense);
    let cfg = RunnerConfig {
        nthreads: 3,
        iters_per_chunk: 1, // maximal token traffic
        policy: RtPolicy::Restructure,
        poll_batch: 1,
    };
    assert_eq!(synth_checksum_cascaded(n, Variant::Dense, &cfg), expected);
}

#[test]
fn giant_poll_batch_still_jumps_out() {
    let n = 1u64 << 12;
    let expected = synth_checksum_sequential(n, Variant::Sparse);
    let cfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 64,
        policy: RtPolicy::Restructure,
        poll_batch: u64::MAX / 2, // helper packs entire chunk per poll
    };
    assert_eq!(synth_checksum_cascaded(n, Variant::Sparse, &cfg), expected);
}

#[test]
fn repeated_runs_on_fresh_programs_are_stable() {
    let n = 1u64 << 12;
    let first = synth_checksum_cascaded(
        n,
        Variant::Dense,
        &RunnerConfig {
            nthreads: 4,
            iters_per_chunk: 97,
            policy: RtPolicy::Prefetch,
            poll_batch: 8,
        },
    );
    for _ in 0..3 {
        let again = synth_checksum_cascaded(
            n,
            Variant::Dense,
            &RunnerConfig {
                nthreads: 4,
                iters_per_chunk: 97,
                policy: RtPolicy::Prefetch,
                poll_batch: 8,
            },
        );
        assert_eq!(again, first);
    }
}

#[test]
fn sequencing_all_loops_twice_matches_two_sequential_calls() {
    // PARMVR is called repeatedly in wave5; run the 15-loop sequence twice
    // cascaded and compare with twice sequential.
    let build = || {
        let p = Parmvr::build(ParmvrParams {
            scale: 0.005,
            seed: 77,
        });
        SpecProgram::new(p.workload, p.arena).unwrap()
    };
    let expected = {
        let mut prog = build();
        for _ in 0..2 {
            for i in 0..prog.num_loops() {
                let k = prog.kernel(i);
                // SAFETY: single-threaded.
                unsafe { k.execute(0..k.iters()) };
            }
        }
        prog.checksum()
    };
    let mut prog = build();
    let cfg = RunnerConfig {
        nthreads: 3,
        iters_per_chunk: 173,
        policy: RtPolicy::Restructure,
        poll_batch: 13,
    };
    for _ in 0..2 {
        for i in 0..prog.num_loops() {
            let k = prog.kernel(i);
            try_run_governed(&k, &RunConfig::from(cfg.clone())).unwrap();
        }
    }
    assert_eq!(prog.checksum(), expected);
}

#[test]
fn stats_account_every_iteration_under_contention() {
    let n = 1u64 << 13;
    let s = Synth::build(n, Variant::Dense, 5);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    let stats = try_run_governed(
        &k,
        &RunConfig::from(RunnerConfig {
            nthreads: 4,
            iters_per_chunk: 50,
            policy: RtPolicy::Restructure,
            poll_batch: 7,
        }),
    )
    .unwrap();
    assert_eq!(stats.iters, n);
    assert_eq!(stats.chunks, n.div_ceil(50));
    let executed: u64 = stats.threads.iter().map(|t| t.chunks).sum();
    assert_eq!(executed, stats.chunks);
    assert!(stats.helper_coverage() <= 1.0);
}

#[test]
fn persistent_pool_sequence_matches_per_loop_runs() {
    let build = || {
        let p = Parmvr::build(ParmvrParams {
            scale: 0.005,
            seed: 21,
        });
        SpecProgram::new(p.workload, p.arena).unwrap()
    };
    let cfg = RunnerConfig {
        nthreads: 3,
        iters_per_chunk: 211,
        policy: RtPolicy::Restructure,
        poll_batch: 9,
    };
    // Reference: one try_run_governed per loop (threads respawned each loop).
    let expected = {
        let mut prog = build();
        for i in 0..prog.num_loops() {
            let k = prog.kernel(i);
            try_run_governed(&k, &RunConfig::from(cfg.clone())).unwrap();
        }
        prog.checksum()
    };
    // Persistent pool over the whole sequence.
    let mut prog = build();
    let kernels: Vec<_> = (0..prog.num_loops()).map(|i| prog.kernel(i)).collect();
    let stats = try_run_governed_sequence(&kernels, &RunConfig::from(cfg)).unwrap();
    drop(kernels);
    assert_eq!(stats.len(), 15);
    for (l, s) in stats.iter().enumerate() {
        let executed: u64 = s.threads.iter().map(|t| t.chunks).sum();
        assert_eq!(executed, s.chunks, "loop {l}: every chunk exactly once");
    }
    assert_eq!(prog.checksum(), expected, "sequence runner diverged");
}

/// A kernel that panics mid-loop on a specific chunk owner's turn.
struct PanickingKernel {
    panic_at: u64,
    n: u64,
}
impl cascade_rt::RealKernel for PanickingKernel {
    fn iters(&self) -> u64 {
        self.n
    }
    unsafe fn execute(&self, range: std::ops::Range<u64>) {
        if range.contains(&self.panic_at) {
            panic!("kernel exploded at iteration {}", self.panic_at);
        }
    }
}

#[test]
fn a_panicking_kernel_propagates_instead_of_deadlocking() {
    // Without token poisoning the other workers would spin forever and
    // this test would hang; with it, the panic reaches the caller promptly
    // as a typed error.
    let k = PanickingKernel {
        panic_at: 500,
        n: 10_000,
    };
    let result = try_run_governed(
        &k,
        &RunConfig::from(RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        }),
    );
    assert!(
        matches!(
            result,
            Err(cascade_rt::RunError::WorkerPanicked { chunk: 5, .. })
        ),
        "the kernel panic must propagate to the caller, got {result:?}"
    );
}

#[test]
fn poisoned_token_panics_waiters() {
    use cascade_rt::Token;
    let t = Token::new();
    t.poison();
    assert!(t.is_poisoned());
    let r = std::panic::catch_unwind(|| t.wait_for(3));
    assert!(r.is_err(), "waiting on a poisoned token must panic");
}

/// A kernel panicking in loop `l` of a sequence must poison loops `l..`
/// and unblock every worker: the call returns a typed error promptly with
/// all three workers drained, instead of hanging at a barrier or token.
#[test]
fn sequence_panic_poisons_later_loops_and_unblocks_workers() {
    use cascade_rt::RunError;
    let kernels = [
        PanickingKernel {
            panic_at: u64::MAX,
            n: 4_000,
        }, // loop 0: healthy
        PanickingKernel {
            panic_at: 500,
            n: 4_000,
        }, // loop 1: dies on chunk 5
        PanickingKernel {
            panic_at: u64::MAX,
            n: 4_000,
        }, // loop 2: must never hang
    ];
    let cfg = RunnerConfig {
        nthreads: 3,
        iters_per_chunk: 100,
        policy: RtPolicy::None,
        poll_batch: 4,
    };
    match try_run_governed_sequence(&kernels, &RunConfig::from(cfg)) {
        Err(RunError::WorkerPanicked { chunk: 5, .. }) => {}
        other => panic!("expected WorkerPanicked on chunk 5, got {other:?}"),
    }
}

/// Regression: the sequence runner used to skip the configuration
/// validation the single-loop runner performed, so a zero `poll_batch`
/// hung the helpers and a zero `iters_per_chunk` div-by-zeroed the chunk
/// plan.
#[test]
#[should_panic(expected = "poll batch must be positive")]
fn sequence_rejects_zero_poll_batch() {
    let kernels = [PanickingKernel {
        panic_at: u64::MAX,
        n: 1_000,
    }];
    try_run_governed_sequence(
        &kernels,
        &RunConfig::from(RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 100,
            policy: RtPolicy::Restructure,
            poll_batch: 0,
        }),
    )
    .unwrap();
}

#[test]
#[should_panic(expected = "chunks must be non-empty")]
fn sequence_rejects_zero_chunk_iters() {
    let kernels = [PanickingKernel {
        panic_at: u64::MAX,
        n: 1_000,
    }];
    try_run_governed_sequence(
        &kernels,
        &RunConfig::from(RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 0,
            policy: RtPolicy::None,
            poll_batch: 4,
        }),
    )
    .unwrap();
}

/// Fault-free overhead guard: the full recovery ladder
/// (`Tolerance::retrying` — watchdog, health registry, claim/advance CAS
/// hand-off) must cost nothing observable when no fault is injected.
/// Guards against accidentally putting a lock, an `Instant::now()` per
/// iteration, or a heartbeat per poll on the hot path; timing compares
/// the min of several trials with a generous factor so scheduler noise on
/// a shared box does not flake the suite.
#[test]
fn fault_free_retry_ladder_adds_no_measurable_overhead() {
    use cascade_rt::Tolerance;
    use std::time::Duration;

    let n = 1u64 << 14;
    let cfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 256,
        policy: RtPolicy::Restructure,
        poll_batch: 8,
    };
    let expected = synth_checksum_sequential(n, Variant::Dense);
    let run = |tol: &Tolerance| {
        let s = Synth::build(n, Variant::Dense, 1234);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let k = prog.kernel(0);
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg.clone(),
                tolerance: tol.clone(),
                ..Default::default()
            },
        )
        .expect("fault-free run must succeed");
        assert_eq!(prog.checksum(), expected, "fault-free run diverged");
        stats
    };

    let ladder = Tolerance::retrying(Duration::from_secs(5));
    let bare = Tolerance::fail_fast();
    // Warm-up (page faults, thread-pool first-spawn costs), then trials.
    run(&ladder);
    run(&bare);
    let trials = 5;
    let min_elapsed = |tol: &Tolerance| {
        (0..trials)
            .map(|_| {
                let stats = run(tol);
                // The ladder must be armed but silent: no retries, no
                // quarantines, no fault events, no degradation.
                assert!(!stats.degraded);
                assert_eq!(stats.retries, 0);
                assert_eq!(stats.quarantined, 0);
                assert!(
                    stats.faults.is_empty(),
                    "phantom faults: {:?}",
                    stats.faults
                );
                stats.elapsed
            })
            .min()
            .expect("at least one trial")
    };
    let with_ladder = min_elapsed(&ladder);
    let without = min_elapsed(&bare);
    // "No measurable cost": the best-case run with the whole ladder armed
    // stays within 3x + 10ms of the best-case fail-fast run. The absolute
    // slack absorbs millisecond-scale scheduler jitter on tiny runs; the
    // factor catches any per-iteration or per-poll regression, which
    // would show up as 10-100x on this chunk geometry.
    let budget = without * 3 + Duration::from_millis(10);
    assert!(
        with_ladder <= budget,
        "retry/health machinery slowed a fault-free run: {with_ladder:?} vs {without:?} (budget {budget:?})"
    );
}

/// Overhead guard for the verification machinery: with
/// `VerifyPolicy::Off` (the default) the entire verify apparatus — digest
/// publication, packet handoff, journal capture for replay, and the
/// supervisor's arena scrubber — must collapse to the single
/// `cfg.verify.armed()` branch per chunk. Every verify-side counter must
/// read zero and the wall clock must match a governance-free run within
/// scheduler noise; timing compares the min of several trials like the
/// ladder guard above.
#[test]
fn verify_off_costs_one_branch() {
    use cascade_rt::{Tolerance, VerifyPolicy};
    use std::time::Duration;

    let n = 1u64 << 14;
    let runner = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 256,
        policy: RtPolicy::Restructure,
        poll_batch: 8,
    };
    let expected = synth_checksum_sequential(n, Variant::Dense);
    let governed = |verify: VerifyPolicy| {
        let s = Synth::build(n, Variant::Dense, 1234);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let k = prog.kernel(0);
        let cfg = RunConfig {
            runner: runner.clone(),
            tolerance: Tolerance::fail_fast(),
            verify,
            ..RunConfig::default()
        };
        let stats = try_run_governed(&k, &cfg).expect("fault-free run must succeed");
        assert_eq!(prog.checksum(), expected, "fault-free run diverged");
        stats
    };
    let bare = || {
        let s = Synth::build(n, Variant::Dense, 1234);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let k = prog.kernel(0);
        let stats =
            try_run_governed(&k, &RunConfig::from(runner.clone())).expect("bare run must succeed");
        assert_eq!(prog.checksum(), expected, "bare run diverged");
        stats
    };
    // Warm-up, then trials.
    governed(VerifyPolicy::Off);
    bare();
    let trials = 5;
    let with_off = (0..trials)
        .map(|_| {
            let stats = governed(VerifyPolicy::Off);
            // Off must mean *off*: no chunk was verified, no digest or
            // journal time was charged to the verify counter, and the
            // supervisor never scrubbed the arena.
            assert_eq!(stats.scrubs, 0, "scrubber ran with verification off");
            for t in &stats.threads {
                assert_eq!(t.verified_chunks, 0, "chunk verified with verification off");
                assert_eq!(t.verify_ns, 0, "verify time charged with verification off");
            }
            assert!(
                stats.faults.is_empty(),
                "phantom faults: {:?}",
                stats.faults
            );
            stats.elapsed
        })
        .min()
        .expect("at least one trial");
    let without = (0..trials).map(|_| bare().elapsed).min().expect("trial");
    let budget = without * 3 + Duration::from_millis(10);
    assert!(
        with_off <= budget,
        "VerifyPolicy::Off slowed a fault-free run: {with_off:?} vs {without:?} (budget {budget:?})"
    );
}
