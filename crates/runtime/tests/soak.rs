//! Governance soak: a timed storm of concurrent cancellation, deadlines,
//! memory budgets, and injected faults against the fault-tolerant
//! runtime. Each iteration races a canceller thread (or an armed
//! deadline, or a tight memory budget) against a randomized fault plan
//! across all three tolerances, and requires the clean-state guarantee
//! to hold every time: a successful run is bitwise sequential-identical,
//! a governed abort reports the exact committed prefix and resuming
//! sequentially from it is bitwise identical, and every other outcome is
//! a typed error — never a hang, never silent corruption.
//!
//! The storm runs for `CASCADE_SOAK_SECS` seconds (default 2 — a smoke
//! run; CI's soak-smoke job raises it) with a hard per-iteration shape
//! that keeps a single pass well under a second.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cascade_rt::{
    ckpt, try_run_governed, CancelToken, CkptMeta, CkptPolicy, CkptSink, CkptWriter, FaultEvent,
    FaultKind, FaultPlan, FaultyKernel, MemBudget, RealKernel, RtPolicy, RunConfig, RunError,
    RunnerConfig, SpecProgram, Tolerance, VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::to_text;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{quiet_injected_panics, sequential_checksum, N};

const CHUNK_ITERS: u64 = 64;
const WATCHDOG: Duration = Duration::from_millis(25);
const STALL: Duration = Duration::from_millis(40);

/// Held for the whole of each storm test. The storms' watchdogs are short
/// (25 ms), and two storms running side by side on a small host starve
/// each other's healthy chunks into declared stalls: the harness runs the
/// tests of one binary in parallel, so the storms take turns here.
static STORM: Mutex<()> = Mutex::new(());

/// This storm's turn. A storm that failed poisons the lock, which is no
/// reason to fail the other.
fn storm_turn() -> MutexGuard<'static, ()> {
    STORM.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_plan(rng: &mut StdRng, num_chunks: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(CHUNK_ITERS);
    // Roughly half the iterations run fault-free so the storm also
    // samples pure-governance schedules.
    for _ in 0..rng.gen_range(0..=2usize) {
        let chunk = rng.gen_range(0..num_chunks);
        let kind = match rng.gen_range(0..4u32) {
            0 => FaultKind::Panic,
            1 => FaultKind::Stall(STALL),
            2 => FaultKind::Slowdown(Duration::from_millis(rng.gen_range(1..3u64))),
            _ => FaultKind::PanicMidMutation {
                after_iters: rng.gen_range(1..CHUNK_ITERS),
            },
        };
        plan = plan.inject(chunk, kind);
    }
    plan
}

fn tolerance_for(case: u64) -> Tolerance {
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

/// The storm loop. Iterations are bounded by wall clock, not count, so
/// the harness scales from a 2 s smoke run to a CI soak without edits.
#[test]
fn governance_storm_never_corrupts_and_always_resumes() {
    let _turn = storm_turn();
    quiet_injected_panics();
    let secs: u64 = std::env::var("CASCADE_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut rng = StdRng::seed_from_u64(0x50AC);
    let mut iterations = 0u64;
    let mut governed_aborts = 0u64;
    let mut completions = 0u64;
    let mut typed = 0u64;
    while Instant::now() < deadline {
        let case = iterations;
        let variant = if case.is_multiple_of(2) {
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
        let token = CancelToken::new();
        // Rotate the governance pressure: external canceller thread,
        // armed deadline, or a tight memory budget.
        let (run_deadline, budget, canceller) = match case % 3 {
            0 => {
                let token = token.clone();
                let delay = Duration::from_micros(rng.gen_range(0..5_000u64));
                let h = std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    token.cancel("soak canceller");
                });
                (None, MemBudget::unlimited(), Some(h))
            }
            1 => {
                let d = Duration::from_micros(rng.gen_range(200..4_000u64));
                (Some(d), MemBudget::unlimited(), None)
            }
            _ => {
                let limit = rng.gen_range(256..32_768u64);
                (None, MemBudget::limited(limit), None)
            }
        };
        let mut tolerance = tolerance_for(case);
        if let (Some(d), Some(w)) = (run_deadline, tolerance.watchdog) {
            // A watchdog longer than the deadline is a config error.
            tolerance.watchdog = Some(w.min(d));
        }
        let run_cfg = RunConfig {
            runner: cfg,
            tolerance,
            deadline: run_deadline,
            budget,
            cancel: token,
            ..RunConfig::default()
        };
        let faulty = FaultyKernel::new(prog.kernel(0), plan.clone());
        let result = try_run_governed(&faulty, &run_cfg);
        drop(faulty);
        if let Some(h) = canceller {
            let _ = h.join();
        }
        match result {
            Ok(_) => {
                assert_eq!(
                    prog.checksum(),
                    expected,
                    "case {case}: threads {nthreads}, plan {plan:?} — \
                     run reported success but the result diverged"
                );
                completions += 1;
            }
            Err(
                RunError::Cancelled {
                    committed_iters, ..
                }
                | RunError::DeadlineExceeded {
                    committed_iters, ..
                }
                | RunError::BudgetExceeded {
                    committed_iters, ..
                },
            ) => {
                // The clean-state guarantee: finish sequentially from the
                // reported prefix, bitwise.
                {
                    let k = prog.kernel(0);
                    // SAFETY: every worker drained before the error returned.
                    unsafe { k.execute(committed_iters..k.iters()) };
                }
                assert_eq!(
                    prog.checksum(),
                    expected,
                    "case {case}: threads {nthreads}, plan {plan:?} — \
                     resume from iter {committed_iters} diverged"
                );
                governed_aborts += 1;
            }
            Err(RunError::WorkerPanicked { .. } | RunError::Stalled { .. }) => {
                typed += 1;
            }
            Err(other) => panic!("case {case}: unexpected error {other}"),
        }
        iterations += 1;
    }
    assert!(iterations > 0, "the storm never ran");
    // Sanity on coverage, not exact counts (timing-dependent): the storm
    // must see at least one of each broad outcome class over a full run.
    eprintln!(
        "soak: {iterations} iterations — {completions} completed, \
         {governed_aborts} governed aborts, {typed} typed errors"
    );
}

/// The corruption storm: every (tolerance × verify policy) cell of the
/// matrix takes randomized in-footprint bit flips. Replaying policies
/// (`EveryChunk`, `Sampled` on a sampled chunk) must detect every flip
/// online and either repair bitwise or fail with an exact clean resume
/// point; non-replaying policies (`Off`, `Checksum` — the executor
/// digests its own corrupted bytes) must still finish without hangs or
/// spurious errors, documenting exactly where the detection boundary is.
#[test]
fn corruption_storm_detects_iff_the_policy_replays() {
    let _turn = storm_turn();
    quiet_injected_panics();
    const SAMPLE_K: u64 = 3;
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let policies = [
        VerifyPolicy::Off,
        VerifyPolicy::Checksum,
        VerifyPolicy::EveryChunk,
        VerifyPolicy::Sampled(SAMPLE_K),
    ];
    for tol_case in 0..3u64 {
        for verify in policies {
            for round in 0..2u64 {
                let case = tol_case * 8 + round;
                let variant = if case.is_multiple_of(2) {
                    Variant::Dense
                } else {
                    Variant::Sparse
                };
                let expected = sequential_checksum(variant);
                let s = Synth::build(N, variant, 99);
                let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
                let iters = prog.workload().loops[0].iters;
                let num_chunks = iters.div_ceil(CHUNK_ITERS);
                // Land the flip on a chunk the policy replays, and on a
                // full chunk so `after_iters` always fires.
                let full_chunks = iters / CHUNK_ITERS;
                let chunk = match verify {
                    VerifyPolicy::Sampled(k) => (rng.gen_range(0..full_chunks.div_ceil(k))) * k,
                    _ => rng.gen_range(0..full_chunks),
                };
                let plan = FaultPlan::new(CHUNK_ITERS).inject(
                    chunk,
                    FaultKind::SilentBitFlip {
                        after_iters: CHUNK_ITERS,
                        offset: rng.gen_range(0..u64::MAX),
                        xor: 1 << rng.gen_range(0..8u32),
                        in_footprint: true,
                    },
                );
                let tolerance = tolerance_for(tol_case);
                let recovers = tolerance.retry.is_some() || tolerance.salvage;
                let nthreads = rng.gen_range(1..=4usize);
                let run_cfg = RunConfig {
                    runner: RunnerConfig {
                        nthreads,
                        iters_per_chunk: CHUNK_ITERS,
                        policy: RtPolicy::None,
                        poll_batch: 8,
                    },
                    tolerance,
                    verify,
                    ..RunConfig::default()
                };
                let ctx = format!(
                    "tol {tol_case}, verify {verify:?}, chunk {chunk}, \
                     threads {nthreads}, {variant:?}"
                );
                let faulty = FaultyKernel::new(prog.kernel(0), plan);
                let result = try_run_governed(&faulty, &run_cfg);
                drop(faulty);
                let replays = matches!(verify, VerifyPolicy::EveryChunk)
                    || matches!(verify, VerifyPolicy::Sampled(k) if chunk.is_multiple_of(k));
                match result {
                    Ok(stats) if replays => {
                        assert!(recovers, "{ctx}: fail-fast must not absorb a flip");
                        assert!(
                            stats.faults.iter().any(|f| matches!(
                                f,
                                FaultEvent::CorruptionDetected { chunk: c, repaired: true, .. }
                                    if *c == chunk
                            )),
                            "{ctx}: flip escaped online detection: {:?}",
                            stats.faults
                        );
                        assert_eq!(prog.checksum(), expected, "{ctx}: repair diverged");
                    }
                    Ok(_) => {
                        // Off / Checksum / unsampled chunk: the flip is
                        // invisible by design; the run must simply finish.
                        // (The end state may legitimately diverge — that
                        // is exactly what armed replaying policies buy.)
                    }
                    Err(RunError::Corrupted {
                        thread,
                        chunk: Some(c),
                        committed_iters,
                        bytes,
                    }) if replays && !recovers => {
                        assert_eq!(c, chunk, "{ctx}: blamed the wrong chunk");
                        assert_eq!(bytes, 0..0, "{ctx}: a chunk's detection names no range");
                        assert!(thread.is_some(), "{ctx}: in-footprint flip has an executor");
                        assert_eq!(committed_iters, chunk * CHUNK_ITERS, "{ctx}");
                        assert!(c < num_chunks, "{ctx}");
                        {
                            let k = prog.kernel(0);
                            // SAFETY: every worker drained before the
                            // error returned.
                            unsafe { k.execute(committed_iters..k.iters()) };
                        }
                        assert_eq!(prog.checksum(), expected, "{ctx}: resume diverged");
                    }
                    Err(other) => panic!("{ctx}: unexpected outcome {other}"),
                }
            }
        }
    }
}

/// Kill-during-verify, modeled at the durability layer: with an armed
/// `VerifyPolicy`, checkpoint publication is deferred until the chunk's
/// handoff has been verified — so no matter where a kill lands (here: a
/// fail-fast corruption poisons the run between commit and the next
/// handoff), the checkpoint on disk never contains an unverified chunk,
/// and resuming from it converges bitwise.
#[test]
fn kill_during_verify_never_persists_an_unverified_chunk() {
    quiet_injected_panics();
    let expected = sequential_checksum(Variant::Dense);
    let flip = FaultKind::SilentBitFlip {
        after_iters: CHUNK_ITERS,
        offset: 17,
        xor: 0x40,
        in_footprint: true,
    };
    let dir = std::env::temp_dir().join(format!("cascade-soak-verify-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let s = Synth::build(N, Variant::Dense, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let text = to_text(prog.workload());
    let base = prog.arena_mut().bytes().to_vec();
    let iters = prog.workload().loops[0].iters;
    let writer = CkptWriter::create(
        &dir,
        &text,
        CkptMeta {
            loop_index: 0,
            iters,
            iters_per_chunk: CHUNK_ITERS,
        },
        &base,
    )
    .expect("writer creation");
    let sink = CkptSink::new(writer, CkptPolicy::EveryChunks(1));
    let run_cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: 3,
            iters_per_chunk: CHUNK_ITERS,
            policy: RtPolicy::None,
            poll_batch: 8,
        },
        // Fail-fast: detection poisons the run on the spot — the closest
        // in-process stand-in for dying mid-verification.
        tolerance: Tolerance {
            watchdog: Some(Duration::from_millis(200)),
            retry: None,
            salvage: false,
        },
        verify: VerifyPolicy::EveryChunk,
        ckpt_sink: Some(sink.clone()),
        ..RunConfig::default()
    };
    let plan = FaultPlan::new(CHUNK_ITERS).inject(5, flip);
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let committed = match try_run_governed(&faulty, &run_cfg) {
        Err(RunError::Corrupted {
            chunk: Some(5),
            committed_iters,
            bytes,
            ..
        }) => {
            assert_eq!(bytes, 0..0, "a chunk's detection names no arena range");
            committed_iters
        }
        other => panic!("expected online corruption detection, got {other:?}"),
    };
    drop(faulty);
    assert_eq!(committed, 5 * CHUNK_ITERS);
    assert_eq!(sink.error(), None, "the sink must not have tripped");

    // The checkpoint on disk stops exactly at the verified prefix: the
    // corrupted chunk was committed and journaled but never published.
    let ck = ckpt::load(&dir).expect("checkpoint must load");
    assert_eq!(
        ck.committed_iters(),
        committed,
        "an unverified chunk leaked into the durable checkpoint"
    );
    let (mut restored, at) = ck.into_program().expect("restore");
    assert_eq!(at, committed);
    {
        let k = restored.kernel(0);
        // SAFETY: single-threaded — the documented sequential resume.
        unsafe { k.execute(at..k.iters()) };
    }
    assert_eq!(
        restored.arena_mut().bytes(),
        {
            let s = Synth::build(N, Variant::Dense, 99);
            let mut reference = SpecProgram::new(s.workload, s.arena).unwrap();
            {
                let k = reference.kernel(0);
                // SAFETY: single-threaded.
                unsafe { k.execute(0..k.iters()) };
            }
            assert_eq!(reference.checksum(), expected);
            reference.arena_mut().bytes().to_vec()
        }
        .as_slice(),
        "resume from the verified checkpoint prefix diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The repaired counterpart: with retry armed the same flip is repaired
/// in place and the run completes; the final (supervisor-published)
/// checkpoint then covers the whole verified run and restores bitwise.
#[test]
fn repaired_run_checkpoints_the_whole_verified_prefix() {
    quiet_injected_panics();
    let expected = sequential_checksum(Variant::Dense);
    let dir =
        std::env::temp_dir().join(format!("cascade-soak-verify-repair-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let s = Synth::build(N, Variant::Dense, 99);
    let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let text = to_text(prog.workload());
    let base = prog.arena_mut().bytes().to_vec();
    let iters = prog.workload().loops[0].iters;
    let writer = CkptWriter::create(
        &dir,
        &text,
        CkptMeta {
            loop_index: 0,
            iters,
            iters_per_chunk: CHUNK_ITERS,
        },
        &base,
    )
    .expect("writer creation");
    let sink = CkptSink::new(writer, CkptPolicy::EveryChunks(1));
    let run_cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: 3,
            iters_per_chunk: CHUNK_ITERS,
            policy: RtPolicy::None,
            poll_batch: 8,
        },
        tolerance: Tolerance::retrying(Duration::from_millis(200)),
        verify: VerifyPolicy::EveryChunk,
        ckpt_sink: Some(sink.clone()),
        ..RunConfig::default()
    };
    let plan = FaultPlan::new(CHUNK_ITERS).inject(
        5,
        FaultKind::SilentBitFlip {
            after_iters: CHUNK_ITERS,
            offset: 17,
            xor: 0x40,
            in_footprint: true,
        },
    );
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let stats = try_run_governed(&faulty, &run_cfg).expect("repairable flip");
    drop(faulty);
    assert!(stats.faults.iter().any(|f| matches!(
        f,
        FaultEvent::CorruptionDetected {
            chunk: 5,
            repaired: true,
            ..
        }
    )));
    assert_eq!(sink.error(), None);
    assert_eq!(sink.committed().1, iters, "final installment missing");
    assert_eq!(prog.checksum(), expected);

    let ck = ckpt::load(&dir).expect("load");
    assert_eq!(ck.committed_iters(), iters);
    let (mut restored, at) = ck.into_program().expect("restore");
    assert_eq!(at, iters);
    assert_eq!(
        restored.arena_mut().bytes(),
        prog.arena_mut().bytes(),
        "checkpointed repaired run diverged from the live repaired run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
