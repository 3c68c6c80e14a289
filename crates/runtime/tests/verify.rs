//! Online verified execution under injected silent corruption: a
//! [`FaultKind::SilentBitFlip`] executes the chunk normally but XORs a
//! byte inside (or outside) its analyzer-computed write footprint, and
//! the run must detect it *online* — at the next checksummed handoff,
//! never after the run — blame the guilty worker, and either repair in
//! place (recovery armed) or fail with a typed error whose committed
//! prefix is bitwise clean.

use std::time::Duration;

use cascade_rt::{
    try_run_governed, try_run_governed_sequence, FaultEvent, FaultKind, FaultPlan, FaultyKernel,
    MemBudget, RealKernel, RtPolicy, RunConfig, RunError, RunnerConfig, SpecProgram, Tolerance,
    VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_wave5::{Parmvr, ParmvrParams};

mod common;
use common::{sequential_checksum, N};

const CHUNK_ITERS: u64 = 64;
const WATCHDOG: Duration = Duration::from_millis(200);

/// A flip that lands after every iteration of the chunk has run, so the
/// corruption survives to commit instead of being legitimately
/// overwritten by a later iteration of the same chunk.
fn flip_in_footprint() -> FaultKind {
    FaultKind::SilentBitFlip {
        after_iters: CHUNK_ITERS,
        offset: 17,
        xor: 0x40,
        in_footprint: true,
    }
}

fn cfg(nthreads: usize, tolerance: Tolerance, verify: VerifyPolicy) -> RunConfig {
    RunConfig {
        runner: RunnerConfig {
            nthreads,
            iters_per_chunk: CHUNK_ITERS,
            policy: RtPolicy::None,
            poll_batch: 8,
        },
        tolerance,
        verify,
        ..RunConfig::default()
    }
}

/// EveryChunk + a recovery path: the flip is detected at the very next
/// handoff, the guilty worker is blamed, the chunk is repaired in place
/// from the verified replay, and the run finishes bitwise
/// sequential-identical — not degraded.
#[test]
fn in_footprint_flip_is_detected_blamed_and_repaired_online() {
    let expected = sequential_checksum(Variant::Dense);
    let s = Synth::build(N, Variant::Dense, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let plan = FaultPlan::new(CHUNK_ITERS).inject(4, flip_in_footprint());
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let stats = try_run_governed(
        &faulty,
        &cfg(3, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk),
    )
    .expect("a repairable flip must not fail the run");
    drop(faulty);
    assert!(!stats.degraded, "repair is in-cascade, not salvage");
    assert!(
        stats.faults.iter().any(|f| matches!(
            f,
            FaultEvent::CorruptionDetected {
                chunk: 4,
                repaired: true,
                ..
            }
        )),
        "missing repaired CorruptionDetected: {:?}",
        stats.faults
    );
    // Round-robin ownership: chunk 4 of 3 workers ran on thread 1.
    assert!(
        stats.faults.iter().any(|f| matches!(
            f,
            FaultEvent::WorkerBlamed {
                thread: 1,
                chunk: 4,
                strikes: 1,
            }
        )),
        "missing WorkerBlamed: {:?}",
        stats.faults
    );
    let verified: u64 = stats.threads.iter().map(|t| t.verified_chunks).sum();
    assert!(verified > 0, "no chunk was actually replay-verified");
    assert!(stats.scrubs >= 2, "baseline + post-join arena scrubs");
    assert_eq!(prog.checksum(), expected, "repaired run diverged");
}

/// The final chunk has no downstream claimant: its packet is verified by
/// the supervisor after the join — still before the run returns.
#[test]
fn final_chunk_flip_is_verified_by_the_supervisor() {
    let expected = sequential_checksum(Variant::Dense);
    let s = Synth::build(N, Variant::Dense, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let last_chunk = prog.workload().loops[0].iters.div_ceil(CHUNK_ITERS) - 1;
    let plan = FaultPlan::new(CHUNK_ITERS).inject(last_chunk, flip_in_footprint());
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let stats = try_run_governed(
        &faulty,
        &cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk),
    )
    .expect("the supervisor repairs the final chunk");
    drop(faulty);
    assert!(stats.faults.iter().any(|f| matches!(
        f,
        FaultEvent::CorruptionDetected { chunk, repaired: true, .. } if *chunk == last_chunk
    )));
    assert_eq!(prog.checksum(), expected);
}

/// Fail-fast tolerance (no retry, no salvage): detection rolls the
/// corrupted chunk back to its pre-image and poisons. The typed error
/// names the blamed worker and the chunk, and its committed prefix is
/// exact — re-executing sequentially from it converges bitwise.
#[test]
fn fail_fast_flip_poisons_with_an_exact_clean_resume_point() {
    let expected = sequential_checksum(Variant::Dense);
    let s = Synth::build(N, Variant::Dense, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let plan = FaultPlan::new(CHUNK_ITERS).inject(5, flip_in_footprint());
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let committed = match try_run_governed(
        &faulty,
        &cfg(2, Tolerance::default(), VerifyPolicy::EveryChunk),
    ) {
        Err(RunError::Corrupted {
            thread: Some(t),
            chunk: Some(5),
            committed_iters,
        }) => {
            // chunk 5 of 2 workers ran on thread 1.
            assert_eq!(t, 1, "blame names the executor");
            committed_iters
        }
        other => panic!("expected Corrupted on chunk 5, got {other:?}"),
    };
    drop(faulty);
    // The corrupted chunk rolled back to its own first iteration.
    assert_eq!(committed, 5 * CHUNK_ITERS);
    let k = prog.kernel(0);
    // SAFETY: the run drained before returning; single-threaded resume.
    unsafe { k.execute(committed..k.iters()) };
    assert_eq!(prog.checksum(), expected, "resume from the prefix diverged");
}

/// A repeat offender: two flips on chunks owned by the same worker. The
/// first conviction is a strike; the second quarantines the worker via
/// the roster remap, and the survivors still finish bitwise.
#[test]
fn repeat_corruption_quarantines_the_guilty_worker() {
    let expected = sequential_checksum(Variant::Dense);
    let s = Synth::build(N, Variant::Dense, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    // Chunks 4 and 7 are both owned by thread 1 of 3 (round-robin).
    let plan = FaultPlan::new(CHUNK_ITERS)
        .inject(4, flip_in_footprint())
        .inject(7, flip_in_footprint());
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let stats = try_run_governed(
        &faulty,
        &cfg(3, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk),
    )
    .expect("survivors finish after the quarantine");
    drop(faulty);
    assert_eq!(stats.quarantined, 1, "faults: {:?}", stats.faults);
    assert!(stats.faults.iter().any(|f| matches!(
        f,
        FaultEvent::WorkerQuarantined {
            thread: 1,
            chunk: 7,
        }
    )));
    assert!(stats.faults.iter().any(|f| matches!(
        f,
        FaultEvent::WorkerBlamed {
            thread: 1,
            strikes: 2,
            ..
        }
    )));
    assert_eq!(prog.checksum(), expected);
}

/// Sampled(k) replays chunk indices divisible by k: a flip on a sampled
/// chunk is caught and repaired exactly like EveryChunk.
#[test]
fn sampled_policy_catches_flips_on_sampled_chunks() {
    let expected = sequential_checksum(Variant::Sparse);
    let s = Synth::build(N, Variant::Sparse, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let plan = FaultPlan::new(CHUNK_ITERS).inject(6, flip_in_footprint());
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let stats = try_run_governed(
        &faulty,
        &cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::Sampled(3)),
    )
    .expect("chunk 6 is sampled under Sampled(3)");
    drop(faulty);
    assert!(stats.faults.iter().any(|f| matches!(
        f,
        FaultEvent::CorruptionDetected {
            chunk: 6,
            repaired: true,
            ..
        }
    )));
    assert_eq!(prog.checksum(), expected);
}

/// A flip *outside* every write footprint of the loop is invisible to
/// per-chunk verification by construction — the arena scrubber brackets
/// it: baseline digest before the spawn, drift detected after the join,
/// typed error with unassignable blame and a fully-committed prefix.
#[test]
fn out_of_footprint_flip_is_caught_by_the_arena_scrubber() {
    let s = Synth::build(N, Variant::Sparse, 99);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    {
        // The scenario only makes sense if this workload *has* bytes
        // outside its write footprints for the flip to land on.
        let k = prog.kernel(0);
        // SAFETY: single-threaded probe on a throwaway byte.
        assert!(
            unsafe { k.corrupt_byte(0..k.iters(), 0, 0, false) },
            "workload has no out-of-footprint bytes; pick another variant"
        );
    }
    let iters = prog.workload().loops[0].iters;
    let plan = FaultPlan::new(CHUNK_ITERS).inject(
        3,
        FaultKind::SilentBitFlip {
            after_iters: CHUNK_ITERS,
            offset: 12_345,
            xor: 0x01,
            in_footprint: false,
        },
    );
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    match try_run_governed(
        &faulty,
        &cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk),
    ) {
        Err(RunError::Corrupted {
            thread: None,
            chunk: None,
            committed_iters,
        }) => {
            // Every chunk committed clean; the drift lies outside them.
            assert_eq!(committed_iters, iters);
        }
        other => panic!("expected scrubber-detected Corrupted, got {other:?}"),
    }
}

/// The threat model, demonstrated: with `VerifyPolicy::Off` the same
/// flip sails through — the run reports success and the result silently
/// diverges. This is exactly what the armed policies exist to prevent.
#[test]
fn verify_off_misses_the_flip_and_silently_diverges() {
    let expected = sequential_checksum(Variant::Dense);
    let s = Synth::build(N, Variant::Dense, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let last_chunk = prog.workload().loops[0].iters.div_ceil(CHUNK_ITERS) - 1;
    // Last chunk: nothing downstream can legitimately overwrite the flip.
    let plan = FaultPlan::new(CHUNK_ITERS).inject(last_chunk, flip_in_footprint());
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let stats = try_run_governed(&faulty, &cfg(2, Tolerance::default(), VerifyPolicy::Off))
        .expect("nothing detects the flip");
    drop(faulty);
    assert!(stats.faults.is_empty());
    assert_eq!(stats.scrubs, 0, "scrubber must be off when verify is Off");
    assert_ne!(
        prog.checksum(),
        expected,
        "the injected flip should have corrupted the result"
    );
}

/// Corruption mid-sequence: the faulted loop repairs in place and every
/// loop still converges bitwise; the per-loop stats pin the detection to
/// the right loop.
#[test]
fn sequence_repairs_corruption_and_stays_bitwise() {
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
    let faulted_loop = 5;
    let kernels: Vec<_> = (0..prog.num_loops())
        .map(|i| {
            let mut plan = FaultPlan::new(CHUNK_ITERS);
            if i == faulted_loop {
                plan = plan.inject(2, flip_in_footprint());
            }
            FaultyKernel::new(prog.kernel(i), plan)
        })
        .collect();
    let stats = try_run_governed_sequence(
        &kernels,
        &cfg(3, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk),
    )
    .expect("the sequence repairs and continues");
    drop(kernels);
    for (l, s) in stats.iter().enumerate() {
        assert!(!s.degraded, "loop {l} degraded");
        let detected = s
            .faults
            .iter()
            .any(|f| matches!(f, FaultEvent::CorruptionDetected { .. }));
        assert_eq!(
            detected,
            l == faulted_loop,
            "loop {l}: detection in the wrong loop: {:?}",
            s.faults
        );
        // The end-of-loop barrier leader scrubs between loops.
        assert!(s.scrubs > 0, "loop {l}: no arena scrub ran");
    }
    assert_eq!(prog.checksum(), expected, "sequence diverged after repair");
}

/// Armed verification meters only the executors' steady-state undo
/// journals. Publishing a verification packet must not hand the metered
/// journal buffer away: the next capture would regrow it from nothing and
/// reserve the growth again, so `used` would climb with the chunk count
/// and a small budget would refuse a fault-free run part way through.
#[test]
fn armed_verification_meters_a_steady_state_not_the_chunk_count() {
    const CHUNK: u64 = 1_024;
    let run = |chunks: u64, budget: MemBudget| {
        let s = Synth::build(chunks * CHUNK, Variant::Dense, 99);
        let prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let mut cfg = cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk);
        cfg.runner.iters_per_chunk = CHUNK;
        cfg.budget = budget.clone();
        try_run_governed(&prog.kernel(0), &cfg).map(|_| budget.used())
    };
    let used_16 = run(16, MemBudget::unlimited()).expect("16 chunks run");
    let used_64 = run(64, MemBudget::unlimited()).expect("64 chunks run");
    assert!(used_16 > 0, "the undo journals are metered");
    assert_eq!(used_16, used_64, "metered bytes grew with the chunk count");
    // 64 chunks of 1,024 iterations: two 4 KiB journals fit 64 KiB with
    // room to spare, however many chunks the run commits.
    let used = run(64, MemBudget::limited(64 << 10)).expect("fits its budget");
    assert_eq!(used, used_64);
}
