//! Property tests for online verified execution: randomized silent bit
//! flips inside and outside the analyzer-computed write footprints, under
//! randomized thread counts and tolerances.
//!
//! The properties pin the detection boundary exactly:
//! - an in-footprint flip on a replay-verified chunk is detected online,
//!   blamed on the worker that actually executed the chunk (never an
//!   innocent one), and either repaired bitwise or failed with an exact
//!   clean resume point;
//! - an out-of-footprint flip is bracketed by the arena scrubber when the
//!   policy is armed, with unassignable blame — and with verification off
//!   the same flip provably survives into the end state (that divergence
//!   is precisely what an armed policy buys);
//! - a single fault never quarantines anyone (quarantine needs repeat
//!   strikes), innocent or guilty.

use std::time::Duration;

use cascade_rt::{
    try_run_governed, FaultEvent, FaultKind, FaultPlan, FaultyKernel, RealKernel, RtPolicy,
    RunConfig, RunError, RunnerConfig, SpecProgram, Tolerance, VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use proptest::prelude::*;

mod common;
use common::{sequential_checksum, N};

const CHUNK_ITERS: u64 = 64;
const WATCHDOG: Duration = Duration::from_millis(200);

fn tolerance_for(case: u8) -> Tolerance {
    match case % 3 {
        0 => Tolerance {
            watchdog: Some(WATCHDOG),
            retry: None,
            salvage: false,
        },
        1 => Tolerance::retrying(WATCHDOG),
        _ => Tolerance::resilient(WATCHDOG),
    }
}

fn variant_for(dense: bool) -> Variant {
    if dense {
        Variant::Dense
    } else {
        Variant::Sparse
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An in-footprint flip on any chunk, under `EveryChunk`, any thread
    /// count and any tolerance: detected online, blamed on the chunk's
    /// actual executor, repaired bitwise (recovery armed) or failed with
    /// the exact committed prefix (fail-fast) — and never a quarantine,
    /// because one fault is one strike.
    #[test]
    fn in_footprint_flips_are_detected_blamed_and_recovered(
        dense in any::<bool>(),
        nthreads in 1..=4usize,
        chunk in 0..(N / CHUNK_ITERS),
        offset in any::<u64>(),
        bit in 0..8u32,
        tol_case in 0..3u8,
    ) {
        let variant = variant_for(dense);
        let expected = sequential_checksum(variant);
        let s = Synth::build(N, variant, 99);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let iters = prog.workload().loops[0].iters;
        prop_assume!(chunk < iters / CHUNK_ITERS); // full chunks only
        let plan = FaultPlan::new(CHUNK_ITERS).inject(
            chunk,
            FaultKind::SilentBitFlip {
                after_iters: CHUNK_ITERS,
                offset,
                xor: 1 << bit,
                in_footprint: true,
            },
        );
        let tolerance = tolerance_for(tol_case);
        let recovers = tolerance.retry.is_some() || tolerance.salvage;
        let cfgv = RunConfig {
            runner: RunnerConfig {
                nthreads,
                iters_per_chunk: CHUNK_ITERS,
                policy: RtPolicy::None,
                poll_batch: 8,
            },
            tolerance,
            verify: VerifyPolicy::EveryChunk,
            ..RunConfig::default()
        };
        // Single fault, no crashes: round-robin ownership holds, so the
        // only worker that may be blamed is the chunk's executor.
        let guilty = chunk % nthreads as u64;
        let faulty = FaultyKernel::new(prog.kernel(0), plan);
        let result = try_run_governed(&faulty, &cfgv);
        drop(faulty);
        let faults = match &result {
            Ok(stats) => stats.faults.clone(),
            Err(_) => Vec::new(),
        };
        for f in &faults {
            match f {
                FaultEvent::WorkerBlamed { thread, .. } => prop_assert_eq!(
                    *thread, guilty, "an innocent worker was blamed"
                ),
                FaultEvent::WorkerQuarantined { .. } => {
                    return Err(TestCaseError::fail(
                        "a single fault must never quarantine",
                    ));
                }
                _ => {}
            }
        }
        match result {
            Ok(stats) => {
                prop_assert!(recovers, "fail-fast must not absorb a detected flip");
                prop_assert!(
                    stats.faults.iter().any(|f| matches!(
                        f,
                        FaultEvent::CorruptionDetected { chunk: c, repaired: true, .. }
                            if *c == chunk
                    )),
                    "flip escaped online detection: {:?}",
                    stats.faults
                );
                prop_assert_eq!(prog.checksum(), expected, "repair diverged");
            }
            Err(RunError::Corrupted {
                thread,
                chunk: c,
                committed_iters,
            }) => {
                prop_assert!(!recovers, "a recovering run must repair, not fail");
                prop_assert_eq!(c, Some(chunk));
                prop_assert_eq!(thread, Some(guilty), "blame must name the executor");
                prop_assert_eq!(committed_iters, chunk * CHUNK_ITERS);
                {
                    let k = prog.kernel(0);
                    // SAFETY: every worker drained before the error returned.
                    unsafe { k.execute(committed_iters..k.iters()) };
                }
                prop_assert_eq!(prog.checksum(), expected, "resume diverged");
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }

    /// An out-of-footprint flip is invisible to chunk verification by
    /// construction, and it may land anywhere outside the write
    /// footprints — benign padding, or an *index array*, where the
    /// corrupted index either crashes execution (caught by the existing
    /// ladder, loudly) or redirects it while staying in bounds. The
    /// properties that must hold regardless:
    /// - armed, the run NEVER reports success — the scrubber brackets
    ///   whatever execution didn't trip over, with unassignable blame
    ///   and a fully committed prefix;
    /// - corruption outside every footprint never blames a worker;
    /// - off, a run that does report success provably carries the flip
    ///   into its end state (the divergence an armed policy prevents).
    #[test]
    fn out_of_footprint_flips_are_scrubbed_iff_armed(
        dense in any::<bool>(),
        nthreads in 1..=3usize,
        chunk in 0..(N / CHUNK_ITERS),
        offset in any::<u64>(),
        bit in 0..8u32,
        armed in any::<bool>(),
    ) {
        let variant = variant_for(dense);
        let expected = sequential_checksum(variant);
        let s = Synth::build(N, variant, 99);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let iters = prog.workload().loops[0].iters;
        prop_assume!(chunk < iters / CHUNK_ITERS);
        {
            // Only meaningful when the workload has bytes outside its
            // write footprints for the flip to land on.
            let k = prog.kernel(0);
            // SAFETY: single-threaded probe on a throwaway byte.
            prop_assume!(unsafe { k.corrupt_byte(0..k.iters(), 0, 0, false) });
        }
        let plan = FaultPlan::new(CHUNK_ITERS).inject(
            chunk,
            FaultKind::SilentBitFlip {
                after_iters: CHUNK_ITERS,
                offset,
                xor: 1 << bit,
                in_footprint: false,
            },
        );
        let cfgv = RunConfig {
            runner: RunnerConfig {
                nthreads,
                iters_per_chunk: CHUNK_ITERS,
                policy: RtPolicy::None,
                poll_batch: 8,
            },
            tolerance: Tolerance::retrying(WATCHDOG),
            verify: if armed {
                VerifyPolicy::EveryChunk
            } else {
                VerifyPolicy::Off
            },
            ..RunConfig::default()
        };
        let faulty = FaultyKernel::new(prog.kernel(0), plan);
        let result = try_run_governed(&faulty, &cfgv);
        drop(faulty);
        match result {
            Ok(_) if armed => {
                return Err(TestCaseError::fail(
                    "armed verification reported success over an out-of-footprint flip",
                ));
            }
            Ok(_) => prop_assert_ne!(
                prog.checksum(),
                expected,
                "an out-of-footprint flip is never overwritten — it must survive"
            ),
            Err(RunError::Corrupted { thread, chunk: c, committed_iters }) => {
                prop_assert!(armed, "nothing can report corruption with verification off");
                prop_assert_eq!(thread, None, "unassignable blame must stay unassigned");
                prop_assert_eq!(c, None);
                prop_assert_eq!(committed_iters, iters, "scrub runs post-join");
            }
            // A flip into an index array can crash execution outright;
            // the existing ladder reports it loudly either way.
            Err(RunError::WorkerPanicked { .. } | RunError::Stalled { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected outcome {other}")))
            }
        }
    }
}
