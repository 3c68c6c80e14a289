//! Randomized chaos tests of the fault-tolerant runtime: inject panics
//! (fail-stop and mid-mutation), stalls, and slowdowns at random
//! (thread, chunk) points across thread counts 1–4 and require that
//! every run terminates and either salvages a bitwise
//! sequential-identical result or returns a typed [`RunError`] — never a
//! hang, never a silently wrong answer. Mid-mutation panics leave
//! partial writes behind, so their recovery rests entirely on the
//! analyzer-bounded undo journal (the synth kernels are journalable).

use std::time::Duration;

use cascade_rt::{
    try_run_governed, try_run_governed_sequence, FaultEvent, FaultKind, FaultPlan, FaultyKernel,
    RealKernel, RtPolicy, RunConfig, RunError, RunnerConfig, SpecProgram, Tolerance,
};
use cascade_synth::{Synth, Variant};
use cascade_wave5::{Parmvr, ParmvrParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{sequential_checksum, N};

const CHUNK_ITERS: u64 = 64;
const WATCHDOG: Duration = Duration::from_millis(25);
const STALL: Duration = Duration::from_millis(80);

fn random_plan(rng: &mut StdRng, num_chunks: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(CHUNK_ITERS);
    for _ in 0..rng.gen_range(1..=3usize) {
        let chunk = rng.gen_range(0..num_chunks);
        let kind = match rng.gen_range(0..4u32) {
            0 => FaultKind::Panic,
            1 => FaultKind::Stall(STALL),
            2 => FaultKind::Slowdown(Duration::from_millis(rng.gen_range(1..4u64))),
            // Partial writes land before the panic: recovery relies on
            // the journaled rollback.
            _ => FaultKind::PanicMidMutation {
                after_iters: rng.gen_range(1..CHUNK_ITERS),
            },
        };
        plan = plan.inject(chunk, kind);
    }
    plan
}

/// The acceptance matrix: ≥20 randomized plans mixing panic / stall /
/// slowdown over 1–4 threads. Every plan must terminate and either match
/// the sequential checksum bitwise (salvaged or clean) or produce a typed
/// error — and a typed error is only acceptable when salvage could not
/// legitimately run (it can here, so errors are confined to plans whose
/// salvage itself trips a not-yet-fired fault).
#[test]
fn randomized_fault_matrix_always_terminates_and_never_corrupts() {
    let mut rng = StdRng::seed_from_u64(0xFA117);
    let mut salvaged = 0u32;
    let mut clean = 0u32;
    let mut typed_errors = 0u32;
    for case in 0..24u64 {
        let variant = if case % 2 == 0 {
            Variant::Dense
        } else {
            Variant::Sparse
        };
        let expected = sequential_checksum(variant);
        let nthreads = rng.gen_range(1..=4usize);
        let policy = match rng.gen_range(0..3u32) {
            0 => RtPolicy::None,
            1 => RtPolicy::Prefetch,
            _ => RtPolicy::Restructure,
        };
        let s = Synth::build(N, variant, 99);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let num_chunks = prog.workload().loops[0].iters.div_ceil(CHUNK_ITERS);
        let plan = random_plan(&mut rng, num_chunks);
        let cfg = RunnerConfig {
            nthreads,
            iters_per_chunk: CHUNK_ITERS,
            policy,
            poll_batch: 8,
        };
        let faulty = FaultyKernel::new(prog.kernel(0), plan.clone());
        let result = try_run_governed(
            &faulty,
            &RunConfig {
                runner: cfg.clone(),
                tolerance: Tolerance::resilient(WATCHDOG),
                ..Default::default()
            },
        );
        drop(faulty);
        match result {
            Ok(stats) => {
                assert_eq!(
                    prog.checksum(),
                    expected,
                    "case {case}: threads {nthreads}, plan {plan:?} — \
                     run reported success but the result diverged"
                );
                if stats.degraded {
                    salvaged += 1;
                } else {
                    clean += 1;
                }
            }
            Err(RunError::WorkerPanicked { .. } | RunError::Stalled { .. }) => {
                // Typed, diagnosed failure — acceptable, never silent.
                typed_errors += 1;
            }
            Err(other) => panic!("case {case}: unexpected error {other}"),
        }
    }
    // The matrix must actually exercise the recovery machinery.
    assert!(salvaged >= 5, "only {salvaged} salvaged runs of 24");
    assert!(salvaged + clean + typed_errors == 24);
}

/// The retry-tolerance acceptance matrix: the same randomized plan shapes
/// under [`Tolerance::retrying`]. Every injected plan must either complete
/// bitwise-identical *without* `degraded = true` (recovered in-cascade) or
/// fall through to salvage with the fall-through recorded as a
/// [`FaultEvent::RetryAbandoned`] — zero silent corruptions, zero
/// unexplained degradations.
#[test]
fn randomized_retry_matrix_recovers_or_records_fallthrough() {
    let mut rng = StdRng::seed_from_u64(0x2E7121);
    let mut recovered = 0u32;
    let mut fell_through = 0u32;
    let mut clean = 0u32;
    let mut typed_errors = 0u32;
    for case in 0..24u64 {
        let variant = if case % 2 == 0 {
            Variant::Dense
        } else {
            Variant::Sparse
        };
        let expected = sequential_checksum(variant);
        let nthreads = rng.gen_range(1..=4usize);
        let policy = match rng.gen_range(0..3u32) {
            0 => RtPolicy::None,
            1 => RtPolicy::Prefetch,
            _ => RtPolicy::Restructure,
        };
        let s = Synth::build(N, variant, 99);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let num_chunks = prog.workload().loops[0].iters.div_ceil(CHUNK_ITERS);
        let plan = random_plan(&mut rng, num_chunks);
        let cfg = RunnerConfig {
            nthreads,
            iters_per_chunk: CHUNK_ITERS,
            policy,
            poll_batch: 8,
        };
        let faulty = FaultyKernel::new(prog.kernel(0), plan.clone());
        let result = try_run_governed(
            &faulty,
            &RunConfig {
                runner: cfg.clone(),
                tolerance: Tolerance::retrying(WATCHDOG),
                ..Default::default()
            },
        );
        drop(faulty);
        match result {
            Ok(stats) => {
                assert_eq!(
                    prog.checksum(),
                    expected,
                    "case {case}: threads {nthreads}, plan {plan:?} — \
                     run reported success but the result diverged"
                );
                if stats.degraded {
                    // Fall-through to salvage must be explained: the
                    // ladder records why the retry path gave up.
                    assert!(
                        stats
                            .faults
                            .iter()
                            .any(|f| matches!(f, FaultEvent::RetryAbandoned { .. })),
                        "case {case}: threads {nthreads}, plan {plan:?} — \
                         degraded without a RetryAbandoned event: {:?}",
                        stats.faults
                    );
                    fell_through += 1;
                } else if stats.retries > 0 {
                    recovered += 1;
                } else {
                    clean += 1;
                }
            }
            Err(RunError::WorkerPanicked { .. } | RunError::Stalled { .. }) => {
                typed_errors += 1;
            }
            Err(other) => panic!("case {case}: unexpected error {other}"),
        }
    }
    // The matrix must exercise both rungs: in-cascade recovery and the
    // recorded fall-through to salvage. (Exact counts race on stall
    // timing; the seed yields roughly 4 recovered / 5 fell-through.)
    assert!(
        recovered >= 2,
        "only {recovered} in-cascade recoveries of 24"
    );
    assert!(fell_through >= 2, "only {fell_through} fall-throughs of 24");
    assert_eq!(recovered + fell_through + clean + typed_errors, 24);
}

/// A panic-only plan under retry tolerance with ≥2 threads recovers fully
/// in-cascade: no degraded flag, the retry and quarantine are visible in
/// the stats, and the result is bitwise sequential-identical.
#[test]
fn panic_only_plans_recover_in_cascade_across_thread_counts() {
    for nthreads in 2..=4usize {
        let expected = sequential_checksum(Variant::Dense);
        let s = Synth::build(N, Variant::Dense, 99);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let num_chunks = prog.workload().loops[0].iters.div_ceil(CHUNK_ITERS);
        let plan = FaultPlan::new(CHUNK_ITERS).inject(num_chunks / 2, FaultKind::Panic);
        let cfg = RunnerConfig {
            nthreads,
            iters_per_chunk: CHUNK_ITERS,
            policy: RtPolicy::None,
            poll_batch: 8,
        };
        let faulty = FaultyKernel::new(prog.kernel(0), plan);
        // No stall is injected here, so the watchdog is only a deadlock
        // backstop: seconds wide, or an oversubscribed host (up to 4
        // threads beside the other fault tests) can have a descheduled
        // worker struck as stalled and break the exact counts below.
        let stats = try_run_governed(
            &faulty,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::retrying(Duration::from_secs(5)),
                ..Default::default()
            },
        )
        .expect("retry tolerance must recover a fail-stop panic");
        drop(faulty);
        assert!(
            !stats.degraded,
            "threads {nthreads}: fell through to salvage"
        );
        assert_eq!(stats.retries, 1, "threads {nthreads}");
        assert_eq!(stats.quarantined, 1, "threads {nthreads}");
        assert!(stats
            .faults
            .iter()
            .any(|f| matches!(f, FaultEvent::ChunkRetried { .. })));
        assert_eq!(prog.checksum(), expected, "threads {nthreads}: diverged");
    }
}

/// Fault targeted at a specific (thread, chunk) point via round-robin
/// ownership: the reported error names that thread.
#[test]
fn typed_error_names_the_injected_thread_and_chunk() {
    let nthreads = 3u64;
    let target_chunk = FaultPlan::chunk_owned_by(2, 4, nthreads); // thread 2, 5th turn
    let s = Synth::build(N, Variant::Dense, 99);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let plan = FaultPlan::new(CHUNK_ITERS).inject(target_chunk, FaultKind::Panic);
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let cfg = RunnerConfig {
        nthreads: nthreads as usize,
        iters_per_chunk: CHUNK_ITERS,
        policy: RtPolicy::None,
        poll_batch: 8,
    };
    match try_run_governed(&faulty, &RunConfig::from(cfg)) {
        Err(RunError::WorkerPanicked { thread: 2, chunk }) => assert_eq!(chunk, target_chunk),
        other => panic!("expected WorkerPanicked on thread 2, got {other:?}"),
    }
}

/// A faulted loop mid-sequence: the persistent pool drains instead of
/// hanging, and salvage finishes the faulted loop plus every later loop
/// for a bitwise sequential-identical final state.
#[test]
fn sequence_salvages_across_loops_bitwise() {
    let build = || {
        let p = Parmvr::build(ParmvrParams {
            scale: 0.005,
            seed: 31,
        });
        SpecProgram::new(p.workload, p.arena).unwrap()
    };
    let expected = {
        let mut prog = build();
        for i in 0..prog.num_loops() {
            let k = prog.kernel(i);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
        }
        prog.checksum()
    };
    let mut prog = build();
    let faulted_loop = 6;
    let kernels: Vec<_> = (0..prog.num_loops())
        .map(|i| {
            let mut plan = FaultPlan::new(CHUNK_ITERS);
            if i == faulted_loop {
                plan = plan.inject(3, FaultKind::Panic);
            }
            FaultyKernel::new(prog.kernel(i), plan)
        })
        .collect();
    let cfg = RunnerConfig {
        nthreads: 3,
        iters_per_chunk: CHUNK_ITERS,
        policy: RtPolicy::Restructure,
        poll_batch: 8,
    };
    let stats = try_run_governed_sequence(
        &kernels,
        &RunConfig {
            runner: cfg,
            tolerance: Tolerance::resilient(WATCHDOG),
            ..Default::default()
        },
    )
    .expect("sequence salvage must recover");
    drop(kernels);
    assert_eq!(stats.len(), 15);
    for (l, s) in stats.iter().enumerate() {
        assert_eq!(s.degraded, l >= faulted_loop, "loop {l}: degraded flag");
    }
    assert!(stats[faulted_loop]
        .faults
        .iter()
        .any(|f| matches!(f, cascade_rt::FaultEvent::WorkerPanicked { chunk: 3, .. })));
    assert_eq!(prog.checksum(), expected, "salvaged sequence diverged");
}

/// Stalls mid-sequence drain the pool via the watchdog and still converge
/// to the sequential result.
#[test]
fn sequence_stall_is_salvaged_bitwise() {
    let build = || {
        let p = Parmvr::build(ParmvrParams {
            scale: 0.005,
            seed: 47,
        });
        SpecProgram::new(p.workload, p.arena).unwrap()
    };
    let expected = {
        let mut prog = build();
        for i in 0..prog.num_loops() {
            let k = prog.kernel(i);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
        }
        prog.checksum()
    };
    let mut prog = build();
    let kernels: Vec<_> = (0..prog.num_loops())
        .map(|i| {
            let mut plan = FaultPlan::new(CHUNK_ITERS);
            if i == 2 {
                plan = plan.inject(1, FaultKind::Stall(STALL));
            }
            FaultyKernel::new(prog.kernel(i), plan)
        })
        .collect();
    let cfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: CHUNK_ITERS,
        policy: RtPolicy::None,
        poll_batch: 8,
    };
    let stats = try_run_governed_sequence(
        &kernels,
        &RunConfig {
            runner: cfg,
            tolerance: Tolerance::resilient(WATCHDOG),
            ..Default::default()
        },
    )
    .expect("stalled sequence must salvage");
    drop(kernels);
    assert!(stats[2].degraded);
    assert_eq!(prog.checksum(), expected);
}
