//! Online verified execution under injected silent corruption: a
//! [`FaultKind::SilentBitFlip`] executes the chunk normally but XORs a
//! byte inside (or outside) its analyzer-computed write footprint, and
//! the run must detect it *online* — at the next checksummed handoff,
//! never after the run — blame the guilty worker, and either repair in
//! place (recovery armed) or fail with a typed error whose committed
//! prefix is bitwise clean.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

use cascade_rt::interp::SCRUB_BLOCK;
use cascade_rt::{
    try_run_governed, try_run_governed_sequence, FaultEvent, FaultKind, FaultPlan, FaultyKernel,
    MemBudget, RealKernel, RtPolicy, RunConfig, RunError, RunnerConfig, SpecKernel, SpecProgram,
    Tolerance, VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::{
    AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
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
