//! Online verified execution under injected silent corruption: a
//! [`FaultKind::SilentBitFlip`] executes the chunk normally but XORs a
//! byte inside (or outside) its analyzer-computed write footprint, and
//! the run must detect it *online* — at the next checksummed handoff,
//! never after the run — blame the guilty worker, and either repair in
//! place (recovery armed) or fail with a typed error whose committed
//! prefix is bitwise clean.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use cascade_rt::interp::SCRUB_BLOCK;
use cascade_rt::{
    ckpt, try_run_governed, try_run_governed_sequence, CancelKind, CancelToken, CkptMeta,
    CkptPolicy, CkptSink, CkptWriter, FaultEvent, FaultKind, FaultPlan, FaultyKernel, MemBudget,
    RealKernel, RetryPolicy, RtPolicy, RunConfig, RunError, RunStats, RunnerConfig, SpecKernel,
    SpecProgram, Tolerance, VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::{
    to_text, AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};
use cascade_wave5::{Parmvr, ParmvrParams};

mod common;
use common::{sequential_checksum, splitmix64, N};

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
            bytes,
        }) => {
            // chunk 5 of 2 workers ran on thread 1.
            assert_eq!(t, 1, "blame names the executor");
            assert_eq!(bytes, 0..0, "a chunk's detection names no arena range");
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
/// it: baseline before the start barrier, drift found after the end barrier,
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
            bytes,
        }) => {
            // Every chunk committed clean; the drift lies outside them.
            assert_eq!(committed_iters, iters);
            assert!(!bytes.is_empty(), "a scrubber verdict names its block");
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
        // The workers scrub between loops.
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

/// A worker's pack arena and undo-journal buffer live for the whole run,
/// so a sequence meters one loop's steady state, not one per loop: eight
/// copies of a loop reserve exactly what the loop alone reserves, and run
/// under that budget.
#[test]
fn sequence_meters_one_steady_state_not_one_per_loop() {
    let s = Synth::build(1 << 16, Variant::Sparse, 7);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let run = |loops: usize, budget: MemBudget| {
        let mut cfg = cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::Off);
        cfg.runner.iters_per_chunk = 1_024;
        cfg.budget = budget.clone();
        let kernels: Vec<_> = (0..loops).map(|_| prog.kernel(0)).collect();
        try_run_governed_sequence(&kernels, &cfg).map(|_| budget.used())
    };
    let single = run(1, MemBudget::unlimited()).expect("one loop runs");
    assert!(single > 0, "the undo journals are metered");
    assert_eq!(run(8, MemBudget::unlimited()), Ok(single));
    assert_eq!(run(8, MemBudget::limited(single)), Ok(single));
}

/// A `SpecKernel` whose footprint visitor panics once, on its `nth` call,
/// after the visit itself has run: mid-read, from the caller's side.
struct PanickyVisitor<'p> {
    inner: SpecKernel<'p>,
    calls: AtomicU64,
    nth: u64,
}

impl RealKernel for PanickyVisitor<'_> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        // SAFETY (every forward below): under the caller's own guarantee.
        unsafe { self.inner.execute(range) }
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        unsafe { self.inner.journal_rollback(range, buf) }
    }
    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        let bounded = unsafe { self.inner.visit_footprint(range, visit) };
        if self.calls.fetch_add(1, AtomicOrdering::SeqCst) + 1 == self.nth {
            panic!("footprint visitor panics after its visit");
        }
        bounded
    }
    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        unsafe { self.inner.replay_footprint(range, pre_image) }
    }
}

/// Every in-place read of a committed footprint is one guarded call, with
/// one outcome when it panics: nothing to check against, so no blame and
/// no event. The first visit is chunk 0's commit digest, and a panic
/// there publishes no packet, so chunk 0 goes unverified. The second is
/// chunk 1's claimant comparing its replay of chunk 0 with the committed
/// bytes, and a panic there counts chunk 0 verified, as an unreadable
/// capture always has. Either way the run stays bitwise sequential.
#[test]
fn a_panicking_footprint_read_verifies_unblamed_and_stays_bitwise() {
    let expected = sequential_checksum(Variant::Dense);
    let chunks = N.div_ceil(CHUNK_ITERS);
    // The final chunk is verified by the supervisor, which counts none.
    for (nth, verified) in [(1, chunks - 2), (2, chunks - 1)] {
        let s = Synth::build(N, Variant::Dense, 99);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let k = PanickyVisitor {
            inner: prog.kernel(0),
            calls: AtomicU64::new(0),
            nth,
        };
        let stats = try_run_governed(
            &k,
            &cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk),
        )
        .expect("an unreadable footprint never fails the run");
        assert!(k.calls.into_inner() >= nth, "visit {nth} never happened");
        assert_eq!(stats.faults, vec![], "visit {nth} panicked");
        let counted: u64 = stats.threads.iter().map(|t| t.verified_chunks).sum();
        assert_eq!(counted, verified, "visit {nth} panicked");
        assert_eq!(prog.checksum(), expected, "visit {nth} panicked");
    }
}

/// Iterations per chunk in the scrub-block suites below.
const SCRUB_CHUNK: u64 = 1_024;

/// Two loops over three arrays whose unwritten gaps cut into three scrub
/// blocks. Loop 0 writes `X` (256 KiB at 1.5 MiB) from `A` (1.5 MiB,
/// before it) and `B` (1 MiB + 4,000 B, after it), so its gaps make the
/// blocks `[0, 1M)` (the first), `[1M, 2M)` (which `X` cuts in two) and
/// `[2M, 2.75M + 4,000)` (the partial last). Loop 1 runs the other way:
/// it updates `A` from `X` and `B`, writing inside loop 0's gaps.
fn gapped_program() -> SpecProgram {
    const ITERS: u64 = 1 << 16;
    let (a_len, b_len) = (3 << 17, (1 << 18) + 1_000);
    let mut space = AddressSpace::new();
    let a = space.alloc("A", 4, a_len);
    let x = space.alloc("X", 4, ITERS);
    let b = space.alloc("B", 4, b_len);
    let stream = |name, array, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base: 0, stride: 1 },
        mode,
        bytes: 4,
        hoistable: mode == Mode::Read,
    };
    let spec = |name: &str, refs| LoopSpec {
        name: name.into(),
        iters: ITERS,
        refs,
        compute: 3.0,
        hoistable_compute: 1.0,
        hoist_result_bytes: 4,
    };
    let loops = vec![
        spec(
            "x from a and b",
            vec![
                stream("A(i)", a, Mode::Read),
                stream("B(i)", b, Mode::Read),
                stream("X(i)", x, Mode::Write),
            ],
        ),
        spec(
            "a from x and b",
            vec![
                stream("X(i)", x, Mode::Read),
                stream("B(i)", b, Mode::Read),
                stream("A(i)", a, Mode::Modify),
            ],
        ),
    ];
    let mut arena = Arena::new(&space);
    for (id, len) in [(a, a_len), (b, b_len)] {
        for i in 0..len {
            arena.set_u32(&space, id, i, splitmix64(i ^ u64::from(id.0) << 40) as u32);
        }
    }
    let workload = Workload {
        space,
        index: IndexStore::new(),
        loops,
    };
    SpecProgram::new(workload, arena).unwrap()
}

/// One scrub block hashed: the block, its bytes, its digest, and the
/// thread that hashed it.
type Hashed = (usize, Range<u64>, u64, ThreadId);

/// A kernel that forwards to `inner` and logs every scrub block it
/// hashes, in hashing order: a scrub ends a run that drifted with a typed
/// error, so the log is how a test sees who hashed what.
struct ScrubLog<K> {
    inner: K,
    log: Mutex<Vec<Hashed>>,
}

impl<K> ScrubLog<K> {
    fn new(inner: K) -> Self {
        ScrubLog {
            inner,
            log: Mutex::default(),
        }
    }

    fn into_log(self) -> Vec<Hashed> {
        self.log.into_inner().unwrap()
    }
}

impl<K: RealKernel> RealKernel for ScrubLog<K> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        // SAFETY (every forward below): under the caller's own guarantee.
        unsafe { self.inner.execute(range) }
    }
    fn panics_before_mutation(&self) -> bool {
        self.inner.panics_before_mutation()
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        unsafe { self.inner.journal_rollback(range, buf) }
    }
    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        unsafe { self.inner.visit_footprint(range, visit) }
    }
    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        unsafe { self.inner.replay_footprint(range, pre_image) }
    }
    fn scrub_blocks(&self) -> Option<usize> {
        self.inner.scrub_blocks()
    }
    unsafe fn scrub_block(&self, b: usize) -> (Range<u64>, u64) {
        let (bytes, d) = unsafe { self.inner.scrub_block(b) };
        let me = std::thread::current().id();
        self.log.lock().unwrap().push((b, bytes.clone(), d, me));
        (bytes, d)
    }
}

/// A flip of the byte at `addr`, outside every write footprint, after
/// chunk `SCRUB_CHUNK`'s body ran.
fn flip_at(addr: u64) -> FaultKind {
    FaultKind::SilentBitFlip {
        after_iters: SCRUB_CHUNK,
        offset: addr,
        xor: 0x10,
        in_footprint: false,
    }
}

fn scrub_cfg(nthreads: usize) -> RunConfig {
    let mut cfg = cfg(
        nthreads,
        Tolerance::retrying(WATCHDOG),
        VerifyPolicy::EveryChunk,
    );
    cfg.runner.iters_per_chunk = SCRUB_CHUNK;
    cfg
}

/// Split a one-loop scrub log into its two scrubs (the baseline's
/// hashes all come before the start barrier, the compare's after the
/// end barrier), checking that each hashed every one of `blocks` once,
/// on `threads` workers and never on the calling thread.
fn two_scrubs(log: &[Hashed], blocks: usize, threads: usize) -> (&[Hashed], &[Hashed]) {
    assert_eq!(log.len(), 2 * blocks, "two scrubs of {blocks} blocks");
    let (base, now) = log.split_at(blocks);
    for pass in [base, now] {
        let mut seen: Vec<usize> = pass.iter().map(|h| h.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..blocks).collect::<Vec<_>>(), "each block once");
        let mut by: Vec<ThreadId> = pass.iter().map(|h| h.3).collect();
        by.sort_unstable_by_key(|id| format!("{id:?}"));
        by.dedup();
        assert_eq!(by.len(), threads, "hashed by {by:?}");
        assert!(
            !by.contains(&std::thread::current().id()),
            "the caller scrubbed"
        );
    }
    (base, now)
}

/// The blocks of `now` whose digest differs from `base`'s.
fn drifted<'h>(base: &[Hashed], now: &'h [Hashed]) -> Vec<&'h Hashed> {
    let at = |b: usize| base.iter().find(|h| h.0 == b).map(|h| h.2);
    now.iter().filter(|h| at(h.0) != Some(h.2)).collect()
}

/// The arena scrub is shared by the pool: every worker hashes alternate
/// scrub blocks, before the start barrier and after the end barrier. An
/// out-of-footprint flip in the first block, on either side of the
/// written array that cuts a block in two, or in the partial last block
/// drifts that block alone, at every thread count, and fails the run with
/// a scrubber verdict after two scrubs.
#[test]
fn out_of_footprint_flips_are_caught_in_every_scrub_block() {
    const M: u64 = SCRUB_BLOCK;
    let prog = gapped_program();
    let extent = prog.workload().space.extent();
    let k = prog.kernel(0);
    let iters = k.iters();
    let blocks = k.scrub_blocks().expect("affine footprints are bounded");
    // SAFETY: no run is in flight.
    let spans: Vec<Range<u64>> = (0..blocks).map(|b| unsafe { k.scrub_block(b) }.0).collect();
    assert_eq!(spans, [0..M, M..2 * M, 2 * M..extent]);
    assert_ne!(extent % M, 0, "the last block is partial");
    // Each flipped byte and the block that holds it: the first byte, the
    // bytes on either side of `X`, and the last byte.
    let cases = [(0, 0), (3 * M / 2 - 1, 1), (7 * M / 4, 1), (extent - 1, 2)];
    for nthreads in 1..=3 {
        let clean = try_run_governed(&prog.kernel(0), &scrub_cfg(nthreads)).expect("clean run");
        assert_eq!(clean.scrubs, 2, "{nthreads} threads: baseline + compare");
        for (addr, block) in cases {
            let plan = FaultPlan::new(SCRUB_CHUNK).inject(2, flip_at(addr));
            let k = ScrubLog::new(FaultyKernel::new(prog.kernel(0), plan));
            match try_run_governed(&k, &scrub_cfg(nthreads)) {
                Err(RunError::Corrupted {
                    thread: None,
                    chunk: None,
                    committed_iters,
                    bytes,
                }) => {
                    assert_eq!(committed_iters, iters);
                    assert_eq!(bytes, spans[block], "{nthreads} threads, flip at {addr}");
                }
                other => panic!("{nthreads} threads, flip at {addr}: got {other:?}"),
            }
            let log = k.into_log();
            let (base, now) = two_scrubs(&log, blocks, nthreads.min(blocks));
            let moved = drifted(base, now);
            assert_eq!(
                moved.len(),
                1,
                "{nthreads} threads, flip at {addr}: {moved:?}"
            );
            assert_eq!(moved[0].0, block, "flip at {addr}");
            assert!(moved[0].1.contains(&addr), "{:?} misses {addr}", moved[0].1);
            // Put the byte back for the next case.
            // SAFETY: no run is in flight.
            assert!(unsafe { prog.kernel(0).corrupt_byte(0..1, addr, 0x10, false) });
        }
    }
}

/// A baseline is taken per loop, after every earlier loop finished: loop
/// 1 legitimately writes inside loop 0's gaps, and neither loop's scrub
/// reports drift.
#[test]
fn a_later_loop_writing_an_earlier_loops_gaps_is_no_drift() {
    let expected = {
        let mut seq = gapped_program();
        for l in 0..2 {
            let k = seq.kernel(l);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
        }
        seq.checksum()
    };
    for nthreads in 1..=3 {
        let mut prog = gapped_program();
        // SAFETY (both digests): no run is in flight.
        let before = unsafe { prog.kernel(0).scrub_digest() }.unwrap();
        let stats =
            try_run_governed_sequence(&[prog.kernel(0), prog.kernel(1)], &scrub_cfg(nthreads))
                .expect("writes of a later loop are no drift");
        for (l, s) in stats.iter().enumerate() {
            assert_eq!(s.scrubs, 2, "{nthreads} threads, loop {l}");
            assert_eq!(s.faults, vec![], "{nthreads} threads, loop {l}");
        }
        let after = unsafe { prog.kernel(0).scrub_digest() }.unwrap();
        assert_ne!(after, before, "loop 1 must write inside loop 0's gaps");
        assert_eq!(prog.checksum(), expected, "{nthreads} threads");
    }
}

/// A worker quarantined in loop 0 keeps pacing the barriers but takes no
/// share of a later scrub: the survivor hashes every block of loop 1, so
/// a flip in either worker's share is still caught.
#[test]
fn a_worker_quarantined_in_loop_0_takes_no_share_of_loop_1s_scrub() {
    const M: u64 = SCRUB_BLOCK;
    let prog = gapped_program();
    let (iters, blocks) = {
        let k = prog.kernel(0);
        (k.iters(), k.scrub_blocks().unwrap())
    };
    // Chunk 1 is worker 1's: it panics, is quarantined, and a survivor
    // retries the chunk. Loop 1 runs the same loop again.
    let run = |flip: Option<u64>| {
        let panics = FaultPlan::new(SCRUB_CHUNK).inject(1, FaultKind::Panic);
        let flips = flip.map_or(FaultPlan::new(SCRUB_CHUNK), |addr| {
            FaultPlan::new(SCRUB_CHUNK).inject(2, flip_at(addr))
        });
        let kernels = [
            ScrubLog::new(FaultyKernel::new(prog.kernel(0), panics)),
            ScrubLog::new(FaultyKernel::new(prog.kernel(0), flips)),
        ];
        let result = try_run_governed_sequence(&kernels, &scrub_cfg(2));
        let [_, second] = kernels;
        (result, second.into_log())
    };
    let (clean, log) = run(None);
    let stats = clean.expect("the retry ladder recovers the panic");
    assert_eq!(stats[0].quarantined, 1, "{:?}", stats[0].faults);
    assert_eq!(stats[1].scrubs, 2);
    two_scrubs(&log, blocks, 1);
    // Blocks 0 and 1: one in each share of a two-worker crew.
    for addr in [0, 3 * M / 2 - 1] {
        let (result, log) = run(Some(addr));
        match result {
            Err(RunError::Corrupted {
                thread: None,
                chunk: None,
                committed_iters,
                bytes,
            }) => {
                assert_eq!(committed_iters, 2 * iters);
                assert!(bytes.contains(&addr), "{bytes:?} misses {addr}");
            }
            other => panic!("flip at {addr}: got {other:?}"),
        }
        let (base, now) = two_scrubs(&log, blocks, 1);
        let moved = drifted(base, now);
        assert_eq!(moved.len(), 1, "flip at {addr}: {moved:?}");
        assert!(moved[0].1.contains(&addr), "{:?} misses {addr}", moved[0].1);
        // SAFETY: no run is in flight.
        assert!(unsafe { prog.kernel(0).corrupt_byte(0..1, addr, 0x10, false) });
    }
}

// ---------------------------------------------------------------------------
// The verify window: audits deferred past independent chunks
// ---------------------------------------------------------------------------

/// The window's loop: the dense synthetic loop in 16 chunks of 4,096
/// iterations, long enough that a helper phase audits beside the next
/// execution.
const WINDOW_N: u64 = 1 << 16;
const WINDOW_CHUNK: u64 = 4_096;
/// The first chunk, a middle one, and the last two.
const WINDOW_FLIPS: [u64; 4] = [0, 7, 14, 15];

fn window_program() -> SpecProgram {
    let s = Synth::build(WINDOW_N, Variant::Dense, 99);
    SpecProgram::new(s.workload, s.arena).unwrap()
}

fn window_expected() -> u64 {
    let mut prog = window_program();
    let k = prog.kernel(0);
    // SAFETY: single-threaded.
    unsafe { k.execute(0..k.iters()) };
    prog.checksum()
}

fn window_cfg(nthreads: usize, tolerance: Tolerance) -> RunConfig {
    let mut c = cfg(nthreads, tolerance, VerifyPolicy::EveryChunk);
    c.runner.iters_per_chunk = WINDOW_CHUNK;
    c
}

fn window_flip(chunk_iters: u64) -> FaultKind {
    FaultKind::SilentBitFlip {
        after_iters: chunk_iters,
        offset: 17,
        xor: 0x40,
        in_footprint: true,
    }
}

fn helper_audits(stats: &RunStats) -> u64 {
    stats.threads.iter().map(|t| t.helper_audits).sum()
}

fn has(stats: &RunStats, want: impl Fn(&FaultEvent) -> bool) -> bool {
    stats.faults.iter().any(want)
}

/// A run that repairs in place lets the dense loop's chunks execute past
/// pending audits, and the helper phases audit them: every chunk but the
/// final one is still counted once. A fail-fast run defers nothing.
#[test]
fn a_repairing_run_audits_in_helper_phases_and_a_fail_fast_one_does_not() {
    let expected = window_expected();
    for (tolerance, defers) in [
        (Tolerance::retrying(WATCHDOG), true),
        (Tolerance::fail_fast(), false),
    ] {
        let mut prog = window_program();
        let stats = try_run_governed(&prog.kernel(0), &window_cfg(2, tolerance)).unwrap();
        let verified: u64 = stats.threads.iter().map(|t| t.verified_chunks).sum();
        assert_eq!(verified, stats.chunks - 1, "every chunk but the final one");
        assert_eq!(helper_audits(&stats) > 0, defers, "{:?}", stats.threads);
        assert!(stats.audit_coverage() <= 1.0);
        assert_eq!(prog.checksum(), expected);
    }
}

/// (a) Retry armed, every chunk replayed: a flip on the first chunk, a
/// middle one or either of the last two is repaired and blamed on its
/// executor, as when every audit ran before the next chunk, and the run
/// ends bitwise sequential.
#[test]
fn deferred_audits_repair_and_blame_each_flip_bitwise() {
    let expected = window_expected();
    for c in WINDOW_FLIPS {
        let mut prog = window_program();
        let plan = FaultPlan::new(WINDOW_CHUNK).inject(c, window_flip(WINDOW_CHUNK));
        let faulty = FaultyKernel::new(prog.kernel(0), plan);
        let stats = try_run_governed(&faulty, &window_cfg(2, Tolerance::retrying(WATCHDOG)))
            .unwrap_or_else(|e| panic!("flip on chunk {c}: {e:?}"));
        drop(faulty);
        assert!(!stats.degraded, "chunk {c}: {:?}", stats.faults);
        assert!(
            has(&stats, |f| matches!(
                f,
                FaultEvent::CorruptionDetected { chunk, repaired: true, .. } if *chunk == c
            )),
            "chunk {c}: {:?}",
            stats.faults
        );
        assert!(
            has(&stats, |f| matches!(
                f,
                FaultEvent::WorkerBlamed { thread, chunk, strikes: 1 }
                    if *chunk == c && *thread == c % 2
            )),
            "chunk {c}: {:?}",
            stats.faults
        );
        assert_eq!(prog.checksum(), expected, "flip on chunk {c}");
    }
}

/// (d) The same flips under fail-fast: no audit is deferred, so each ends
/// the run with the corrupted chunk named, its executor blamed and a
/// committed prefix that stops at the chunk, from which a sequential
/// resume converges bitwise.
#[test]
fn fail_fast_flips_keep_their_exact_typed_prefix() {
    let expected = window_expected();
    for c in WINDOW_FLIPS {
        let mut prog = window_program();
        let plan = FaultPlan::new(WINDOW_CHUNK).inject(c, window_flip(WINDOW_CHUNK));
        let faulty = FaultyKernel::new(prog.kernel(0), plan);
        let result = try_run_governed(&faulty, &window_cfg(2, Tolerance::fail_fast()));
        drop(faulty);
        match result {
            Err(RunError::Corrupted {
                thread: Some(thread),
                chunk: Some(chunk),
                committed_iters,
                bytes,
            }) => {
                assert_eq!((thread, chunk), (c % 2, c));
                assert_eq!(committed_iters, c * WINDOW_CHUNK);
                assert_eq!(bytes, 0..0);
            }
            other => panic!("flip on chunk {c}: expected Corrupted, got {other:?}"),
        }
        let k = prog.kernel(0);
        // SAFETY: the run drained before returning; single-threaded.
        unsafe { k.execute(c * WINDOW_CHUNK..k.iters()) };
        assert_eq!(prog.checksum(), expected, "resume after chunk {c}");
    }
}

/// A run that fails on another fault still audits its pending packets
/// before it reports. Retry is armed with an empty budget and salvage is
/// off: chunk 4's executor flips a byte of its own chunk, whose audit the
/// window defers past chunk 5's claim, and chunk 5 then panics. The
/// panic fails the run, and the supervisor's drain after the join audits
/// chunk 4 and repairs it, so every chunk below 5 is bitwise the
/// sequential result.
#[test]
fn a_failed_run_audits_its_pending_packets_before_it_reports() {
    let expected = window_expected();
    let mut prog = window_program();
    let plan = FaultPlan::new(WINDOW_CHUNK)
        .inject(4, window_flip(WINDOW_CHUNK))
        .inject(5, FaultKind::Panic);
    let faulty = FaultyKernel::new(prog.kernel(0), plan);
    let tolerance = Tolerance {
        watchdog: Some(WATCHDOG),
        retry: Some(RetryPolicy {
            budget: 0,
            ..RetryPolicy::default()
        }),
        salvage: false,
    };
    let result = try_run_governed(&faulty, &window_cfg(2, tolerance));
    drop(faulty);
    match result {
        Err(RunError::WorkerPanicked {
            thread: 1,
            chunk: 5,
        }) => {}
        other => panic!("expected chunk 5's panic, got {other:?}"),
    }
    let k = prog.kernel(0);
    // SAFETY: the run drained before returning; single-threaded.
    unsafe { k.execute(5 * WINDOW_CHUNK..k.iters()) };
    assert_eq!(prog.checksum(), expected, "chunk 4 left unrepaired");
}

/// The dense loop's kernel flipping a committed byte of chunk `victim`
/// as the claimant of the next chunk takes that chunk's write spans,
/// after `victim`'s commit digest and before its audit.
struct FlipOnClaim<'p> {
    inner: SpecKernel<'p>,
    victim: u64,
}

impl RealKernel for FlipOnClaim<'_> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        // SAFETY (every forward below): under the caller's own guarantee.
        unsafe { self.inner.execute(range) }
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        unsafe { self.inner.journal_rollback(range, buf) }
    }
    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        unsafe { self.inner.visit_footprint(range, visit) }
    }
    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        unsafe { self.inner.replay_footprint(range, pre_image) }
    }
    fn write_spans(&self, range: Range<u64>) -> Option<Vec<Range<u64>>> {
        if range.start == (self.victim + 1) * WINDOW_CHUNK {
            let victim = self.victim * WINDOW_CHUNK..range.start;
            // SAFETY: the caller holds the next chunk's claim, so no
            // chunk executes; the victim's executor never audits it, and
            // the only other worker is the caller.
            assert!(unsafe { self.inner.corrupt_byte(victim, 17, 0x40, true) });
        }
        self.inner.write_spans(range)
    }
    fn independent(&self, committed: &[Range<u64>], next: &[Range<u64>]) -> bool {
        self.inner.independent(committed, next)
    }
}

/// A digest-only audit cannot repair, so a repairing run never defers
/// it. Under `Sampled(2)` with retry armed, a post-commit flip on an
/// unsampled chunk is found by the next claimant before its chunk
/// executes: the chunk is rolled back and the typed error's committed
/// prefix stops at its start, from which a sequential resume converges
/// bitwise. Under `Checksum` the run defers no audit at all.
#[test]
fn digest_only_audits_are_never_deferred() {
    let expected = window_expected();
    for c in [1, 7, 13] {
        let mut prog = window_program();
        let k = FlipOnClaim {
            inner: prog.kernel(0),
            victim: c,
        };
        let mut conf = window_cfg(2, Tolerance::retrying(WATCHDOG));
        conf.verify = VerifyPolicy::Sampled(2);
        match try_run_governed(&k, &conf) {
            Err(RunError::Corrupted {
                thread: None,
                chunk: Some(chunk),
                committed_iters,
                ..
            }) => {
                assert_eq!(chunk, c);
                assert_eq!(committed_iters, c * WINDOW_CHUNK, "flip on chunk {c}");
            }
            other => panic!("flip on chunk {c}: expected Corrupted, got {other:?}"),
        }
        let k = prog.kernel(0);
        // SAFETY: the run drained before returning; single-threaded.
        unsafe { k.execute(c * WINDOW_CHUNK..k.iters()) };
        assert_eq!(prog.checksum(), expected, "resume after chunk {c}");
    }
    let mut prog = window_program();
    let mut conf = window_cfg(2, Tolerance::retrying(WATCHDOG));
    conf.verify = VerifyPolicy::Checksum;
    let stats = try_run_governed(&prog.kernel(0), &conf).unwrap();
    let verified: u64 = stats.threads.iter().map(|t| t.verified_chunks).sum();
    assert_eq!(verified, stats.chunks - 1, "every chunk but the final one");
    assert_eq!(helper_audits(&stats), 0, "{:?}", stats.threads);
    assert_eq!(prog.checksum(), expected);
}

/// `y(i + 1) = f(y(i), x(i))`: each chunk reads what the one before it
/// wrote.
fn recurrence_program(n: u64) -> SpecProgram {
    let mut space = AddressSpace::new();
    let x = space.alloc("x", 8, n);
    let y = space.alloc("y", 8, n + 1);
    let stream = |name, array, base, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base, stride: 1 },
        mode,
        bytes: 8,
        hoistable: false,
    };
    let refs = vec![
        stream("x(i)", x, 0, Mode::Read),
        stream("y(i)", y, 0, Mode::Read),
        stream("y(i+1)", y, 1, Mode::Write),
    ];
    one_loop(
        space,
        IndexStore::new(),
        "recurrence",
        n,
        refs,
        |arena, space| {
            for i in 0..n {
                arena.set_f64(space, x, i, (i % 17) as f64 * 0.25 - 1.0);
            }
            arena.set_f64(space, y, 0, 0.75);
        },
    )
}

/// `rho(ij(i)) += f(pq(i))` with every chunk's indices spread over the
/// whole of `rho`: chunks' write footprints overlap.
fn scatter_add_program(n: u64) -> SpecProgram {
    let mut space = AddressSpace::new();
    let rho = space.alloc("rho", 8, n / 4);
    let pq = space.alloc("pq", 8, n);
    let ij = space.alloc("ij", 4, n);
    let mut index = IndexStore::new();
    index.set(ij, (0..n).map(|i| ((i * 7919) % (n / 4)) as u32).collect());
    let refs = vec![
        StreamRef {
            name: "pq(i)",
            array: pq,
            pattern: Pattern::Affine { base: 0, stride: 1 },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        },
        StreamRef {
            name: "rho(ij(i))",
            array: rho,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Modify,
            bytes: 8,
            hoistable: false,
        },
    ];
    one_loop(space, index, "scatter-add", n, refs, |arena, space| {
        for i in 0..n {
            arena.set_f64(space, pq, i, (i % 13) as f64 * 0.125 + 0.25);
        }
    })
}

fn one_loop(
    space: AddressSpace,
    index: IndexStore,
    name: &str,
    iters: u64,
    refs: Vec<StreamRef>,
    fill: impl FnOnce(&mut Arena, &AddressSpace),
) -> SpecProgram {
    let w = Workload {
        space,
        index,
        loops: vec![LoopSpec {
            name: name.into(),
            iters,
            refs,
            compute: 2.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        }],
    };
    let mut arena = Arena::new(&w.space);
    fill(&mut arena, &w.space);
    arena.install_indices(&w.space, &w.index);
    SpecProgram::new(w, arena).unwrap()
}

/// (c) A lag-1 recurrence and a colliding scatter-add: every chunk
/// depends on the one before it, so no audit is deferred (no helper
/// phase audits), and each flip is caught before the next chunk runs,
/// repaired and blamed, bitwise.
#[test]
fn dependent_loops_defer_nothing_and_catch_their_flips() {
    const N: u64 = 1 << 13;
    const CHUNK: u64 = 512;
    let recurrence: fn(u64) -> SpecProgram = recurrence_program;
    for (name, build) in [
        ("recurrence", recurrence),
        ("scatter-add", scatter_add_program),
    ] {
        let expected = {
            let mut prog = build(N);
            let k = prog.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
            prog.checksum()
        };
        let mut prog = build(N);
        let plan = FaultPlan::new(CHUNK).inject(5, window_flip(CHUNK));
        let faulty = FaultyKernel::new(prog.kernel(0), plan);
        let mut c = cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk);
        c.runner.iters_per_chunk = CHUNK;
        let stats = try_run_governed(&faulty, &c).expect("the flip is repaired");
        drop(faulty);
        assert_eq!(helper_audits(&stats), 0, "{name}: an audit was deferred");
        assert!(
            has(&stats, |f| matches!(
                f,
                FaultEvent::CorruptionDetected {
                    chunk: 5,
                    repaired: true,
                    ..
                }
            )),
            "{name}: {:?}",
            stats.faults
        );
        assert!(
            has(&stats, |f| matches!(
                f,
                FaultEvent::WorkerBlamed {
                    thread: 1,
                    chunk: 5,
                    strikes: 1
                }
            )),
            "{name}: {:?}",
            stats.faults
        );
        assert_eq!(prog.checksum(), expected, "{name}");
    }
}

/// The dense loop's kernel, holding chunk `later`'s execution until chunk
/// `audited`'s repair is installed, and chunk `audited`'s replay until
/// chunk `later` executes: an audit of `audited` then lands while
/// `later` runs. Each hold gives up after a few seconds, so a schedule
/// that never meets cannot hang; `met` says whether it met.
struct Held<'p> {
    inner: SpecKernel<'p>,
    audited: u64,
    later: u64,
    later_started: AtomicBool,
    installed: AtomicBool,
    met: AtomicBool,
}

impl Held<'_> {
    fn is(range: &Range<u64>, chunk: u64) -> bool {
        !range.is_empty() && range.start / WINDOW_CHUNK == chunk
    }

    fn hold(flag: &AtomicBool) -> bool {
        let t0 = Instant::now();
        while !flag.load(AtomicOrdering::SeqCst) {
            if t0.elapsed() > Duration::from_secs(5) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }
}

impl RealKernel for Held<'_> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        if Held::is(&range, self.later) {
            self.later_started.store(true, AtomicOrdering::SeqCst);
            let met = Held::hold(&self.installed);
            self.met.store(met, AtomicOrdering::SeqCst);
        }
        // SAFETY (every forward below): under the caller's own guarantee.
        unsafe { self.inner.execute(range) }
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        unsafe { self.inner.visit_footprint(range, visit) }
    }
    unsafe fn corrupt_byte(&self, range: Range<u64>, offset: u64, xor: u8, inside: bool) -> bool {
        unsafe { self.inner.corrupt_byte(range, offset, xor, inside) }
    }
    fn write_spans(&self, range: Range<u64>) -> Option<Vec<Range<u64>>> {
        self.inner.write_spans(range)
    }
    fn independent(&self, committed: &[Range<u64>], next: &[Range<u64>]) -> bool {
        self.inner.independent(committed, next)
    }
    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        if Held::is(&range, self.audited) {
            Held::hold(&self.later_started);
        }
        unsafe { self.inner.replay_footprint(range, pre_image) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        // A repair installs the verified replay bytes through here.
        unsafe { self.inner.journal_rollback(range.clone(), buf) };
        if Held::is(&range, self.audited) {
            self.installed.store(true, AtomicOrdering::SeqCst);
        }
    }
}

/// (b) Worker 1 of 2 executed chunks 1 and 3, both flipped. Chunk 3's
/// audit is deferred past the claims of chunks 4 and 5, so worker 0
/// audits it in its helper phase for chunk 6, the only place it can.
/// The second conviction quarantines worker 1 while it executes chunk 5;
/// it commits chunk 5 and drains, worker 0 finishes, and the run ends
/// bitwise.
#[test]
fn a_second_conviction_quarantines_a_worker_mid_chunk_and_the_run_stays_bitwise() {
    let expected = window_expected();
    let mut prog = window_program();
    let plan = FaultPlan::new(WINDOW_CHUNK)
        .inject(1, window_flip(WINDOW_CHUNK))
        .inject(3, window_flip(WINDOW_CHUNK));
    let held = Held {
        inner: prog.kernel(0),
        audited: 3,
        later: 5,
        later_started: AtomicBool::new(false),
        installed: AtomicBool::new(false),
        met: AtomicBool::new(false),
    };
    let faulty = FaultyKernel::new(held, plan);
    let stats = try_run_governed(&faulty, &window_cfg(2, Tolerance::retrying(WATCHDOG)))
        .expect("the survivor finishes after the quarantine");
    let held = faulty.into_inner();
    assert!(
        held.met.load(AtomicOrdering::SeqCst),
        "chunk 3's repair did not land while chunk 5 ran: {:?}",
        stats.faults
    );
    assert!(!stats.degraded, "{:?}", stats.faults);
    assert_eq!(stats.quarantined, 1, "{:?}", stats.faults);
    assert!(has(&stats, |f| matches!(
        f,
        FaultEvent::WorkerQuarantined {
            thread: 1,
            chunk: 3
        }
    )));
    assert!(has(&stats, |f| matches!(
        f,
        FaultEvent::WorkerBlamed {
            thread: 1,
            chunk: 3,
            strikes: 2
        }
    )));
    assert_eq!(prog.checksum(), expected);
}

/// The window's resident pre-images are reserved from the budget before
/// the first packet is filled: a budget that holds one undo journal but
/// not the window's `nthreads + 1` pre-images cancels the run at chunk 0,
/// with the chunk pristine.
#[test]
fn a_budget_below_the_windows_pre_images_cancels_instead_of_allocating() {
    let journal = WINDOW_CHUNK * 4;
    let window = 3 * journal;
    let budget = MemBudget::limited(journal + window - 1);
    let mut c = window_cfg(2, Tolerance::retrying(WATCHDOG));
    c.budget = budget.clone();
    let prog = window_program();
    match try_run_governed(&prog.kernel(0), &c) {
        Err(RunError::BudgetExceeded {
            needed,
            committed_iters: 0,
            ..
        }) => assert_eq!(needed, window),
        other => panic!("expected BudgetExceeded at chunk 0, got {other:?}"),
    }
    assert!(matches!(
        c.cancel.state().map(|s| s.kind),
        Some(CancelKind::Budget { needed, .. }) if needed == window
    ));
    assert!(budget.used() < journal + window);
    // With room for them, the run fits.
    let mut c = window_cfg(2, Tolerance::retrying(WATCHDOG));
    c.budget = MemBudget::limited(2 * journal + window);
    try_run_governed(&prog.kernel(0), &c).expect("two journals and the window fit");
}

/// `x(ij(i)) += f(a(i))` where chunk `c` of `chunk` iterations updates
/// every element of region `c % 3` of `x`: a chunk's write footprint
/// meets the chunk three before or after it, and no other.
fn region_program(chunks: u64, chunk: u64) -> SpecProgram {
    let n = chunks * chunk;
    let mut space = AddressSpace::new();
    let x = space.alloc("x", 8, 3 * chunk);
    let a = space.alloc("a", 8, n);
    let ij = space.alloc("ij", 4, n);
    let mut index = IndexStore::new();
    index.set(
        ij,
        (0..n)
            .map(|i| ((i / chunk) % 3 * chunk + i % chunk) as u32)
            .collect(),
    );
    let refs = vec![
        StreamRef {
            name: "a(i)",
            array: a,
            pattern: Pattern::Affine { base: 0, stride: 1 },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        },
        StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Modify,
            bytes: 8,
            hoistable: false,
        },
    ];
    one_loop(space, index, "regions", n, refs, |arena, space| {
        for i in 0..n {
            arena.set_f64(space, a, i, (i % 11) as f64 * 0.5 - 2.0);
        }
    })
}

/// The dense loop's kernel cancelling its run as chunk `at` starts.
struct CancelAt<'p> {
    inner: SpecKernel<'p>,
    chunk: u64,
    at: u64,
    cancel: CancelToken,
}

impl RealKernel for CancelAt<'_> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        if range.start == self.at * self.chunk {
            self.cancel.cancel("test: cancel mid-run");
        }
        // SAFETY (every forward below): under the caller's own guarantee.
        unsafe { self.inner.execute(range) }
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        unsafe { self.inner.journal_rollback(range, buf) }
    }
    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        unsafe { self.inner.visit_footprint(range, visit) }
    }
    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        unsafe { self.inner.replay_footprint(range, pre_image) }
    }
    fn write_spans(&self, range: Range<u64>) -> Option<Vec<Range<u64>>> {
        self.inner.write_spans(range)
    }
    fn independent(&self, committed: &[Range<u64>], next: &[Range<u64>]) -> bool {
        self.inner.independent(committed, next)
    }
}

/// A deferring run publishes a checkpoint only with every chunk below it
/// audited: a claim at which the sink is due audits the whole window
/// first. A chunk of the region loop writes over the chunk three before
/// it, and the window defers the chunks in between, so a checkpoint
/// taken past a pending audit would capture bytes a later chunk
/// overwrote. The cadence is the sink's: a run cancelled as chunk `at`
/// starts has published every chunk below `at` under `EveryChunks(1)`
/// and all but at most one under `EveryChunks(2)`, and resumes from
/// there bitwise, for every cancel point and both policies.
#[test]
fn a_deferring_run_checkpoints_only_a_true_prefix() {
    const CHUNKS: u64 = 24;
    const CHUNK: u64 = 256;
    let expected = {
        let mut prog = region_program(CHUNKS, CHUNK);
        let k = prog.kernel(0);
        // SAFETY: single-threaded.
        unsafe { k.execute(0..k.iters()) };
        prog.arena_mut().bytes().to_vec()
    };
    for (p, at) in [1, 2]
        .into_iter()
        .flat_map(|p| [6, 11, 17, 23].map(|at| (p, at)))
    {
        let mut prog = region_program(CHUNKS, CHUNK);
        let dir = std::env::temp_dir().join(format!(
            "cascade-verify-watermark-{}-{p}-{at}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = CkptMeta {
            loop_index: 0,
            iters: CHUNKS * CHUNK,
            iters_per_chunk: CHUNK,
        };
        let text = to_text(prog.workload());
        let base = prog.arena_mut().bytes().to_vec();
        let writer = CkptWriter::create(&dir, &text, meta, &base).expect("writer creation");
        let sink = CkptSink::new(writer, CkptPolicy::EveryChunks(p));
        let mut c = cfg(2, Tolerance::retrying(WATCHDOG), VerifyPolicy::EveryChunk);
        c.runner.iters_per_chunk = CHUNK;
        c.ckpt_sink = Some(sink.clone());
        let k = CancelAt {
            inner: prog.kernel(0),
            chunk: CHUNK,
            at,
            cancel: c.cancel.clone(),
        };
        match try_run_governed(&k, &c) {
            Err(RunError::Cancelled { .. }) => {}
            other => panic!("cancel at chunk {at}: got {other:?}"),
        }
        assert_eq!(sink.error(), None);
        let (mut restored, from) = ckpt::load(&dir)
            .expect("checkpoint loads")
            .into_program()
            .expect("restore");
        let due = at / p * p * CHUNK;
        assert_eq!(
            from, due,
            "every {p} chunks, cancel at chunk {at}: published up to iteration {from}"
        );
        {
            let k = restored.kernel(0);
            // SAFETY: single-threaded: the documented sequential resume.
            unsafe { k.execute(from..k.iters()) };
        }
        assert_eq!(
            restored.arena_mut().bytes(),
            expected.as_slice(),
            "every {p} chunks, cancel at chunk {at}: resume from iteration {from} diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
