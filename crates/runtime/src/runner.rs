//! The cascade runner: real threads rotating execution of one sequential
//! loop, exactly as in Figure 1(b) of the paper.
//!
//! There is one engine: a persistent pool runs a list of stages back to
//! back, each a loop and its schedule. [`try_run_governed_sequence`] is
//! that engine over cascaded loops, a single loop ([`try_run_governed`])
//! is the sequence of one, and [`try_run_planned`](crate::try_run_planned)
//! adds the DOALL and DOACROSS stages of [`crate::sched`].
//!
//! Thread `t` owns chunks `t, t+T, t+2T, ...`. While waiting for the token
//! it runs its helper (prefetch or pack) for its next chunk, polling the
//! token every `poll_batch` iterations — the paper's jump-out-of-helper
//! modification at batch granularity. On token arrival it executes its
//! chunk (packed prefix first, original body for any unpacked remainder)
//! and releases the token to the next chunk.
//!
//! ## Fault tolerance
//!
//! Both entry points take a [`Tolerance`] (on [`RunConfig`]) and return
//! a typed [`RunError`] instead of panicking (see `docs/ROBUSTNESS.md`):
//!
//! * every worker catches its own panics per chunk and poisons the token
//!   with a [`PoisonCause::Panicked`] diagnostic (thread, chunk, message);
//! * with a watchdog window set, every waiter — a claimant, or a helper
//!   caught up with its horizon — declares a stall, poisoning the token
//!   with [`PoisonCause::Stalled`], when the token does not move for a
//!   whole window (one wait, `governed_wait`, serves them all);
//! * token hand-off is a compare-and-swap ([`Token::try_advance`]), so a
//!   worker the watchdog declared dead can finish late ([`
//!   FaultEvent::LateCompletion`]) but can never resurrect a poisoned
//!   token;
//! * with salvage enabled, after every worker has joined (join gives both
//!   exclusivity and the happens-before edge) the calling thread finishes
//!   the remaining iteration range sequentially, producing a bitwise
//!   sequential-identical result flagged [`RunStats::degraded`].
//!
//! ## In-cascade recovery (the ladder above salvage)
//!
//! With [`Tolerance::retry`] set, a fault no longer has to abandon
//! cascading. Chunk ownership becomes a dynamic roster (round-robin
//! over the *live* workers) instead of the static `t, t+T, t+2T, ...`
//! stripe, and execution uses the token's claim protocol
//! ([`Token::try_claim`] / [`Token::try_advance`] /
//! [`Token::try_unclaim`]) so exactly-one-executor holds even while
//! ownership is being remapped. The ladder, in order:
//!
//! 1. a worker whose interrupted chunk is *pristine* — the kernel
//!    promises fail-stop panics ([`RealKernel::panics_before_mutation`]),
//!    **or** the chunk's undo journal was rolled back (see below) —
//!    quarantines itself in the run's health registry, removes itself from
//!    the roster (remapping its remaining chunks across survivors,
//!    anchored at the token's current position so no unexecuted chunk is
//!    orphaned), hands a claimed chunk back ([`Token::try_unclaim`]), and
//!    drains — a survivor re-claims and re-executes the chunk and the run
//!    finishes cascaded, *not* `degraded`;
//! 2. a stalled worker is given exponentially growing backoff windows
//!    (strikes in the health registry; a heartbeat between strikes heals
//!    them) before the same quarantine-and-remap — but a worker that
//!    stalls *while holding a claim* may still write, so its chunk is
//!    never retried: recovery is abandoned ([`FaultEvent::RetryAbandoned`])
//!    and the run falls through to poisoning;
//! 3. when the retry budget is exhausted, no survivor remains, or the
//!    interrupted chunk is torn (no fail-stop promise and no journal),
//!    the fault falls through the ladder to PR 1 behavior: token
//!    poisoning, then salvage or a typed error. Every rung leaves a
//!    [`FaultEvent`] in the audit trail.
//!
//! ## Chunk transactions (journaled rollback)
//!
//! Before an execution phase, whenever any recovery path is enabled
//! (retry or salvage), the worker materializes an *undo journal* for the
//! chunk: a snapshot of exactly the bytes the chunk may write, bounded
//! by the `cascade-analyze` write-set footprints
//! ([`RealKernel::journal_capture`]). If the chunk body then panics, the
//! worker rolls the journal back ([`RealKernel::journal_rollback`])
//! *while still holding the claim* — so the rollback happens-before any
//! survivor's re-execution claim, and no torn write-set is ever
//! observable ([`FaultEvent::ChunkRolledBack`]). This retires the
//! fail-stop gate for journalable kernels: retry and salvage stay sound
//! for arbitrary mid-body panics. Kernels whose write footprint is
//! unresolvable (`Journalability::Unjournalable` in `cascade-analyze`
//! terms, i.e. any kernel keeping the `journal_capture` default) fall
//! back to the PR 2 fail-stop gate. A *stalled* claim holder still
//! abandons retry (nobody can roll back a possibly-live writer), but
//! post-join salvage stays sound: by the fault model stalls are finite,
//! so the holder wakes and either completes late or panics and rolls
//! back itself before draining. A plan's split stages run the same
//! transaction: `journal_chunk`, `roll_back_chunk`, `chunk_panicked`.
//!
//! The protocol state machine (token values, claims, poison, retry
//! hand-backs, journal/rollback ordering) is modeled and exhaustively
//! explored in the test-only `check` module (`src/check.rs`).

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use cascade_analyze::plan::Schedule;
use cascade_core::{
    CascadeMetrics, ChunkPlan, MetricsSource, PhaseKind, PhaseSample, WorkerMetrics,
};

use crate::barrier::{BarrierOutcome, FtBarrier};
use crate::govern::{CancelKind, CancelState, CancelToken, Governor, RunConfig};
use crate::health::{HealthRegistry, StrikeVerdict};
use crate::kernel::RealKernel;
use crate::metrics::{NsStats, PhaseEventNs, PhaseRecorder};
use crate::sched::{self, Pending, SplitState};
use crate::token::{lock_recover, PoisonCause, Token, TokenView, EXEC_BIT, POISONED};
use crate::verify::{Auditor, PreImages};

/// Helper policy of the real-thread runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtPolicy {
    /// Spin only (the rotation-overhead ablation).
    None,
    /// Prefetch upcoming operands while waiting.
    Prefetch,
    /// Pack read-only operands into a thread-local sequential buffer while
    /// waiting; falls back to the original body for unpacked iterations.
    Restructure,
}

impl RtPolicy {
    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RtPolicy::None => "none",
            RtPolicy::Prefetch => "prefetched",
            RtPolicy::Restructure => "restructured",
        }
    }
}

/// Runner parameters.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Number of worker threads (processors of the cascade).
    pub nthreads: usize,
    /// Iterations per chunk (the real-runtime analogue of the byte budget;
    /// callers with a [`cascade_trace::LoopSpec`] can derive it from
    /// `chunk_bytes / spec.bytes_per_iter()`).
    pub iters_per_chunk: u64,
    /// Helper policy.
    pub policy: RtPolicy,
    /// Helper iterations between token polls (jump-out granularity).
    pub poll_batch: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            nthreads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            iters_per_chunk: 4096,
            policy: RtPolicy::Restructure,
            poll_batch: 64,
        }
    }
}

/// In-cascade retry policy: how hard to fight for a cascaded finish
/// before falling through to salvage (see the recovery ladder in the
/// module docs and `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total chunk re-executions (across the whole run or sequence) before
    /// further faults fall through the ladder.
    pub budget: u64,
    /// First stall backoff window; doubles per consecutive strike.
    /// Stall recovery is driven by the watchdog, so it needs
    /// [`Tolerance::watchdog`] set; panic recovery does not.
    pub backoff: Duration,
    /// Consecutive no-progress strikes before a stalled worker is
    /// quarantined.
    pub strike_limit: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 4,
            backoff: Duration::from_millis(10),
            strike_limit: 3,
        }
    }
}

/// Fault-tolerance policy of a run, separate from [`RunnerConfig`] so the
/// performance knobs stay orthogonal to the failure-handling ones.
#[derive(Debug, Clone, Default)]
pub struct Tolerance {
    /// Progress-watchdog window: when set, a waiter that sees no progress
    /// at all for a whole window declares a stall and poisons the token.
    /// A waiter is any worker that waits on another's progress: a
    /// claimant waiting for its chunk, a helper caught up with its
    /// kernel's [`RealKernel::helper_horizon`], or, under
    /// [`try_run_planned`](crate::try_run_planned), a split stage's gate
    /// (a DOACROSS chunk's, or a pipelined consumer's on its producer's
    /// frontier). `None` (the default) waits unboundedly. The watchdog is
    /// waiter-driven: a single-thread cascade has no waiters and therefore
    /// no stall detection (it cannot deadlock on the token either — it
    /// always holds it). Progress moves once per chunk — the token, or a
    /// frontier — so the window must exceed one chunk's execution time, or
    /// a healthy peer's chunk reads as a stall.
    pub watchdog: Option<Duration>,
    /// In-cascade recovery: re-execute a faulted chunk on a healthy
    /// worker, quarantining the failed thread and remapping its chunks
    /// across survivors so the run finishes cascaded instead of
    /// `degraded`. Sound only when the interrupted chunk is pristine:
    /// the kernel promises fail-stop panics
    /// ([`RealKernel::panics_before_mutation`]) or its undo journal was
    /// rolled back ([`RealKernel::journal_capture`]) — gated per fault.
    /// Cascaded stages only: a fault in a plan's DOALL or DOACROSS stage
    /// goes straight to salvage/error. Arming it also keeps a plan's
    /// serial residues cascaded rather than pipelined beside their DOALL
    /// consumers, so the ladder covers them. `None` (the default) climbs
    /// straight to salvage/error, exactly PR 1 behavior.
    pub retry: Option<RetryPolicy>,
    /// After a fault, finish the remaining iteration range sequentially on
    /// the calling thread (bitwise-identical result, `degraded` stats)
    /// instead of returning the error. Salvage is refused — the error is
    /// returned — when a chunk body was interrupted mid-flight *torn*:
    /// its undo journal could not be captured or rolled back
    /// ([`RealKernel::journal_capture`]) and the kernel does not promise
    /// fail-stop panics ([`RealKernel::panics_before_mutation`]),
    /// because re-running a half-applied chunk could double-apply
    /// writes. Journalable kernels are always salvageable.
    pub salvage: bool,
}

impl Tolerance {
    /// No watchdog, no retry, no salvage: the first fault is returned as a
    /// typed error as fast as it is observed.
    pub fn fail_fast() -> Self {
        Tolerance::default()
    }

    /// Watchdog plus salvage: detect stalls within `window` and fall back
    /// to sequential execution on any fault.
    pub fn resilient(window: Duration) -> Self {
        Tolerance {
            watchdog: Some(window),
            retry: None,
            salvage: true,
        }
    }

    /// The full recovery ladder: watchdog within `window`, in-cascade
    /// retry with the default [`RetryPolicy`], and sequential salvage for
    /// whatever falls through.
    pub fn retrying(window: Duration) -> Self {
        Tolerance {
            watchdog: Some(window),
            retry: Some(RetryPolicy::default()),
            salvage: true,
        }
    }
}

/// A typed failure of a cascaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configuration or kernel set is unusable (zero threads, empty
    /// chunks, zero poll batch, empty kernel...).
    InvalidConfig(String),
    /// A worker panicked; the diagnostic names the thread and chunk.
    WorkerPanicked {
        /// Worker thread index (0-based).
        thread: u64,
        /// Chunk the worker owned (or was about to own).
        chunk: u64,
    },
    /// The progress watchdog declared a stall: no token movement for a
    /// whole window.
    Stalled {
        /// The chunk the token was stuck on.
        chunk: u64,
        /// How long the waiter watched the token not move.
        waited: Duration,
    },
    /// A sequence loop completed as healthy but its leader's start/end
    /// stamps are missing — the leader died between a barrier and its
    /// stamp. Unreachable through the public API (a dead leader poisons
    /// the loop before it can read as healthy); kept as a typed error so
    /// a protocol regression cannot panic the supervisor.
    LeaderLost {
        /// The loop whose stamps are missing.
        loop_idx: u64,
    },
    /// The run was cancelled cooperatively (via its
    /// [`CancelToken`]) and drained with bitwise-clean state: every
    /// iteration below `committed_iters` is committed exactly once and
    /// nothing above it was touched, so the caller can finish the loop
    /// sequentially from `committed_iters`.
    Cancelled {
        /// Reason recorded by the canceller.
        reason: String,
        /// Iterations committed before the cancellation drained the run
        /// (for a sequence: global across all loops, in order).
        committed_iters: u64,
    },
    /// The whole-run deadline ([`RunConfig::deadline`]) expired and the
    /// governor cancelled the run; same clean-state guarantee as
    /// [`RunError::Cancelled`].
    DeadlineExceeded {
        /// The configured deadline that expired.
        deadline: Duration,
        /// Iterations committed before the run drained.
        committed_iters: u64,
    },
    /// A metered allocation would have exceeded the run's
    /// [`MemBudget`](crate::govern::MemBudget); the run was cancelled
    /// instead of allocating unboundedly. Same clean-state guarantee as
    /// [`RunError::Cancelled`].
    BudgetExceeded {
        /// Bytes the refused reservation asked for.
        needed: u64,
        /// The configured budget limit in bytes.
        limit: u64,
        /// Iterations committed before the run drained.
        committed_iters: u64,
    },
    /// Online verification ([`crate::govern::VerifyPolicy`]) caught
    /// silent data corruption and the tolerance offered no recovery
    /// path. The corrupted chunk was rolled back to its pre-image before
    /// the token was poisoned, so the committed prefix below
    /// `committed_iters` is bitwise clean — a corrupted chunk is never
    /// part of the prefix this error reports (model-checker invariant).
    Corrupted {
        /// The blamed executor, or `None` when the corruption landed
        /// outside every chunk's write footprint (scrubber detection:
        /// no chunk wrote there, so blame is unassignable).
        thread: Option<u64>,
        /// The corrupted chunk, or `None` for out-of-footprint drift.
        chunk: Option<u64>,
        /// Exact sequential resume point (global, for a sequence): every
        /// iteration below it is committed exactly once and uncorrupted.
        committed_iters: u64,
        /// For out-of-footprint drift, the arena bytes of the lowest
        /// drifted scrub block ([`RealKernel::scrub_block`]); empty
        /// (`0..0`) for a chunk's detection, as in
        /// [`FaultEvent::CorruptionDetected`].
        bytes: Range<u64>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidConfig(msg) => write!(f, "invalid cascade configuration: {msg}"),
            RunError::WorkerPanicked { thread, chunk } => {
                write!(f, "worker thread {thread} panicked on chunk {chunk}")
            }
            RunError::Stalled { chunk, waited } => {
                write!(
                    f,
                    "cascade stalled on chunk {chunk} ({waited:?} without progress)"
                )
            }
            RunError::LeaderLost { loop_idx } => {
                write!(
                    f,
                    "sequence loop {loop_idx} finished without its leader's timing stamps"
                )
            }
            RunError::Cancelled {
                reason,
                committed_iters,
            } => {
                write!(
                    f,
                    "run cancelled after {committed_iters} committed iterations: {reason}"
                )
            }
            RunError::DeadlineExceeded {
                deadline,
                committed_iters,
            } => {
                write!(
                    f,
                    "run deadline of {deadline:?} exceeded after {committed_iters} committed iterations"
                )
            }
            RunError::BudgetExceeded {
                needed,
                limit,
                committed_iters,
            } => {
                write!(
                    f,
                    "memory budget exceeded (reservation of {needed} B over the {limit} B limit) \
                     after {committed_iters} committed iterations"
                )
            }
            RunError::Corrupted {
                thread,
                chunk,
                committed_iters,
                bytes,
            } => match (thread, chunk) {
                (Some(t), Some(c)) => write!(
                    f,
                    "silent corruption detected in chunk {c} (blamed on worker {t}); \
                     rolled back, clean through iteration {committed_iters}"
                ),
                _ => write!(
                    f,
                    "silent corruption detected outside every chunk's write footprint, \
                     first drifted block at arena bytes {bytes:?}; committed prefix of \
                     {committed_iters} iterations is clean"
                ),
            },
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Lift a loop-local resume point onto an enclosing sequence: add the
    /// `prior` iterations of the loops that completed before this one to
    /// `committed_iters`. Errors that carry no resume point pass through.
    fn rebased(mut self, prior: u64) -> RunError {
        if let RunError::Cancelled {
            committed_iters, ..
        }
        | RunError::DeadlineExceeded {
            committed_iters, ..
        }
        | RunError::BudgetExceeded {
            committed_iters, ..
        }
        | RunError::Corrupted {
            committed_iters, ..
        } = &mut self
        {
            *committed_iters += prior;
        }
        self
    }
}

/// Something abnormal that happened during a run, in observation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A worker panicked (caught; the token was poisoned with the cause).
    WorkerPanicked {
        /// Worker thread index.
        thread: u64,
        /// Chunk it owned or was about to own.
        chunk: u64,
        /// Stringified panic payload.
        message: String,
    },
    /// A waiter declared a stall after a full watchdog window without any
    /// token movement.
    StallDeclared {
        /// The chunk the token was stuck on.
        chunk: u64,
        /// The window the waiter watched.
        waited: Duration,
    },
    /// A worker declared dead finished its chunk after the poisoning; the
    /// chunk still executed exactly once (the CAS hand-off refused its
    /// release, so the poison stands).
    LateCompletion {
        /// The late worker.
        thread: u64,
        /// The chunk it completed late.
        chunk: u64,
    },
    /// The calling thread finished the remaining range sequentially.
    Salvaged {
        /// First chunk the salvage re-ran (all earlier chunks completed).
        from_chunk: u64,
        /// Iterations executed by the salvage.
        iters: u64,
    },
    /// A detector recorded a no-progress strike against a suspect worker
    /// (retry tolerance only; rate-limited to one event per backoff
    /// window).
    StallStrike {
        /// The suspect worker.
        thread: u64,
        /// The chunk the token was stuck on.
        chunk: u64,
        /// Consecutive strikes against the suspect, this one included.
        strikes: u32,
        /// Backoff granted before the next strike may land.
        backoff: Duration,
    },
    /// A worker was quarantined: removed from the ownership roster, its
    /// remaining chunks remapped across the surviving workers.
    WorkerQuarantined {
        /// The quarantined worker.
        thread: u64,
        /// The chunk it faulted on (or was stuck holding).
        chunk: u64,
    },
    /// A chunk whose owner faulted was re-executed in-cascade by a
    /// survivor — the recovery the retry ladder exists for.
    ChunkRetried {
        /// The recovered chunk.
        chunk: u64,
        /// The worker that faulted on it.
        from_thread: u64,
        /// The survivor that re-executed it.
        by_thread: u64,
    },
    /// In-cascade recovery was not applicable; the fault fell through the
    /// ladder to token poisoning (then salvage or a typed error).
    RetryAbandoned {
        /// The chunk whose recovery was abandoned.
        chunk: u64,
        /// Why the ladder gave up.
        reason: RetryAbandon,
    },
    /// A faulted chunk's undo journal was rolled back: its write-set was
    /// restored to the exact pre-chunk bytes, while the faulting worker
    /// still held the claim — before any retry hand-back or salvage
    /// could observe the torn state.
    ChunkRolledBack {
        /// The worker that rolled its own journal back.
        thread: u64,
        /// The restored chunk.
        chunk: u64,
        /// Journal bytes restored.
        bytes: u64,
    },
    /// Online verification caught silent data corruption: the bytes a
    /// committed chunk left in shared memory disagree with a verified
    /// re-execution (or, for the arena scrubber, bytes outside every
    /// chunk's write footprint drifted between two scrubs).
    CorruptionDetected {
        /// The corrupted chunk (`u64::MAX` for out-of-footprint drift
        /// found by the scrubber, which no chunk owns).
        chunk: u64,
        /// Digest of the bytes a clean execution should have produced.
        expected: u64,
        /// Digest of the bytes actually found in shared memory.
        found: u64,
        /// `true` when the verified replay bytes were installed in place
        /// (recovery); `false` when the chunk was rolled back to its
        /// pre-image and the run failed with [`RunError::Corrupted`].
        repaired: bool,
        /// For scrubber drift, the arena bytes of the first drifted scrub
        /// block ([`RealKernel::scrub_block`]); `expected` and `found`
        /// are then that block's digests. Empty (`0..0`) for a chunk's
        /// detection.
        bytes: Range<u64>,
    },
    /// The sequential tiebreak re-execution confirmed the detected
    /// mismatch twice over and assigned blame to the executor that
    /// committed the wrong bytes. Blame is only ever assigned after the
    /// tiebreak — a lone verifier mismatch could be the *verifier's*
    /// fault (model-checker invariant: no innocent worker is quarantined
    /// under the single-fault assumption).
    WorkerBlamed {
        /// The guilty executor.
        thread: u64,
        /// The chunk it corrupted.
        chunk: u64,
        /// Proven corruption verdicts against it, this one included; the
        /// second strike quarantines (corruption strikes never heal).
        strikes: u32,
    },
}

/// Why in-cascade recovery fell through to poisoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryAbandon {
    /// The retry budget was already spent.
    BudgetExhausted,
    /// The faulting worker was the last live worker: nobody left to
    /// re-execute the chunk.
    NoSurvivors,
    /// The interrupted chunk is torn: the kernel makes no fail-stop
    /// promise and its write-set could not be journaled and rolled back,
    /// so partial writes may remain and the chunk must not be re-run.
    KernelNotFailStop,
    /// The stalled worker holds the execution claim: it may still write,
    /// so its chunk can never be handed to a survivor.
    ExecutorStuck,
}

impl std::fmt::Display for RetryAbandon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryAbandon::BudgetExhausted => write!(f, "retry budget exhausted"),
            RetryAbandon::NoSurvivors => write!(f, "no surviving workers"),
            RetryAbandon::KernelNotFailStop => {
                write!(
                    f,
                    "chunk is torn: kernel is neither fail-stop nor journalable"
                )
            }
            RetryAbandon::ExecutorStuck => write!(f, "stuck executor still holds the claim"),
        }
    }
}

/// Per-thread execution statistics.
#[derive(Debug, Default, Clone)]
pub struct ThreadStats {
    /// Chunks executed by this thread.
    pub chunks: u64,
    /// Iterations covered by helper work before their execution phase.
    pub helper_iters: u64,
    /// Chunks whose helper covered every iteration.
    pub helper_complete: u64,
    /// Nanoseconds inside execution phases.
    pub exec_ns: u128,
    /// Nanoseconds inside helper work.
    pub helper_ns: u128,
    /// Nanoseconds spent pure-spinning on the token.
    pub spin_ns: u128,
    /// Nanoseconds climbing the recovery ladder (0 for fault-free runs).
    pub retry_ns: u128,
    /// Nanoseconds of everything else: startup, roster bookkeeping,
    /// token release.
    pub other_ns: u128,
    /// Whole wall time of the worker. The `PhaseRecorder` closes and
    /// opens adjacent phases with one shared timestamp, so
    /// `helper_ns + spin_ns + exec_ns + retry_ns + other_ns == wall_ns`
    /// holds *exactly* — no gaps, no overlaps.
    pub wall_ns: u128,
    /// Helper phases abandoned before covering their chunk (token
    /// arrival, jump-out, or roster remap).
    pub jump_outs: u64,
    /// Helper poll batches that waited for the dependence horizon to
    /// grow, one per wait however long it lasted (horizon-gated kernels
    /// only).
    pub horizon_stalls: u64,
    /// Bytes packed into the sequential buffer by restructure helpers.
    pub packed_bytes: u64,
    /// Bytes covered by prefetch helpers
    /// ([`RealKernel::prefetch_bytes_per_iter`] × iterations hinted).
    pub prefetched_bytes: u64,
    /// Token handoffs performed (successful releases of a finished
    /// chunk to its successor).
    pub handoffs: u64,
    /// Chunks whose undo journal was rolled back after a mid-body fault
    /// ([`FaultEvent::ChunkRolledBack`] count for this thread).
    pub rollbacks: u64,
    /// Bytes captured into undo journals before execution phases.
    pub journal_bytes: u64,
    /// Nanoseconds spent capturing and rolling back undo journals. This
    /// is a side counter carved out of the execute/retry phases — it is
    /// *not* a sixth phase, so the exact partition
    /// `helper + spin + exec + retry + other == wall` is untouched.
    pub journal_ns: u128,
    /// Durable checkpoints this thread captured and published.
    pub ckpt_count: u64,
    /// Delta bytes written into durable checkpoints by this thread.
    pub ckpt_bytes: u64,
    /// Nanoseconds spent in checkpoint capture and publication. Like
    /// `journal_ns`, a side counter riding inside the Other phase (the
    /// end-of-loop leader's final installment under armed verification
    /// lands after its phases closed) — the exact phase partition is
    /// untouched.
    pub ckpt_ns: u128,
    /// Committed chunks this worker audited (digest check or full
    /// journaled replay, per [`crate::govern::VerifyPolicy`]). Every
    /// chunk of a verified loop but its final one is counted once, on
    /// the worker that audited it; the final one is the end barrier's.
    pub verified_chunks: u64,
    /// Of `verified_chunks`, those audited in a helper phase, beside a
    /// later chunk's execution, instead of by a claimant before its own
    /// ([`RunStats::audit_coverage`]).
    pub helper_audits: u64,
    /// Nanoseconds spent publishing verification packets (executor side)
    /// and auditing committed chunks (claimant or helper). Like `journal_ns`
    /// and `ckpt_ns`, a side counter riding inside the Helper/Other
    /// phases — the exact phase partition
    /// `helper + spin + exec + retry + other == wall` is untouched.
    pub verify_ns: u128,
    /// Nanoseconds of this worker's Execute time in a pipelined
    /// consumer's chunks that committed while their producer was still
    /// running ([`SubLoopStats::overlap`](crate::SubLoopStats::overlap));
    /// part of `exec_ns`, not a phase of its own. Zero outside a pair.
    pub overlap_ns: u128,
    /// Timestamped phase events this worker *dropped* after its event
    /// ring reached
    /// [`Observe::max_events`](crate::metrics::Observe::max_events) (0
    /// when the ring never filled, or when events are off).
    pub events_dropped: u64,
    /// Receive-side handoff latency: previous executor's release →
    /// this worker's winning claim.
    pub takeover: NsStats,
    /// Per-chunk execution-phase durations (count == `chunks`).
    pub chunk_exec: NsStats,
    /// Timestamped phase intervals (empty unless
    /// [`Observe::events`](crate::metrics::Observe::events)).
    pub events: Vec<PhaseEventNs>,
}

/// Whole-run statistics.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall-clock duration of the loop: from the moment the whole pool
    /// has arrived at the loop's start barrier (the leader's stamp) to
    /// the loop's completion — the leader's stamp at the end barrier for
    /// a healthy loop, the end of the sequential salvage for a degraded
    /// one. A loop the pool never reached (it follows the faulted loop
    /// of a salvaged sequence) counts from the start of its salvage.
    pub elapsed: Duration,
    /// Total chunks executed.
    pub chunks: u64,
    /// Total iterations of the loop.
    pub iters: u64,
    /// Per-thread breakdown.
    pub threads: Vec<ThreadStats>,
    /// Whether the run survived a fault by falling back to sequential
    /// execution (the result is still bitwise sequential-identical). A run
    /// recovered in-cascade by the retry ladder is **not** degraded.
    pub degraded: bool,
    /// Abnormal events observed during the run, in order.
    pub faults: Vec<FaultEvent>,
    /// Chunks re-executed in-cascade by a survivor
    /// ([`FaultEvent::ChunkRetried`] count).
    pub retries: u64,
    /// Workers quarantined during the run
    /// ([`FaultEvent::WorkerQuarantined`] count).
    pub quarantined: u64,
    /// Cancel latency in nanoseconds: the cancel firing → the first
    /// worker acting on it. Zero for a run that was never cancelled (a
    /// too-late cancel can still stamp this on a clean run).
    pub cancel_latency_ns: u64,
    /// Peak bytes reserved from the run's
    /// [`MemBudget`](crate::govern::MemBudget) (journal and pack arenas).
    /// Zero when nothing was metered.
    pub budget_high_water: u64,
    /// Arena scrubs performed around the loop (baseline + compare):
    /// digests over the bytes *outside* the loop's whole write
    /// footprint, bracketing out-of-footprint corruption. Zero unless
    /// verification is armed and the kernel can bound its footprint.
    pub scrubs: u64,
}

impl RunStats {
    /// Fraction of audits run in a helper phase, off the critical path:
    /// `helper_audits / verified_chunks` over the workers, in [0, 1]
    /// (0 when nothing was audited).
    pub fn audit_coverage(&self) -> f64 {
        let audits: u64 = self.threads.iter().map(|t| t.verified_chunks).sum();
        let helped: u64 = self.threads.iter().map(|t| t.helper_audits).sum();
        helped as f64 / audits.max(1) as f64
    }

    /// Fraction of iterations covered by helper work, in [0, 1].
    pub fn helper_coverage(&self) -> f64 {
        if self.iters == 0 {
            return 0.0;
        }
        let helped: u64 = self.threads.iter().map(|t| t.helper_iters).sum();
        helped as f64 / self.iters as f64
    }

    /// The observability report (times in nanoseconds) — the same
    /// [`CascadeMetrics`] schema the simulator derives from its
    /// `ChunkEvent` timeline, so simulated and real runs are directly
    /// comparable. For a `degraded` run the report covers the in-cascade
    /// portion only (salvage executes outside the worker pool).
    pub fn metrics(&self) -> CascadeMetrics {
        let workers: Vec<WorkerMetrics> = self
            .threads
            .iter()
            .enumerate()
            .map(|(t, s)| WorkerMetrics {
                worker: t as u64,
                chunks: s.chunks,
                helper_time: s.helper_ns as f64,
                spin_time: s.spin_ns as f64,
                exec_time: s.exec_ns as f64,
                retry_time: s.retry_ns as f64,
                other_time: s.other_ns as f64,
                wall_time: s.wall_ns as f64,
                helper_iters: s.helper_iters,
                helper_complete: s.helper_complete,
                jump_outs: s.jump_outs,
                horizon_stalls: s.horizon_stalls,
                packed_bytes: s.packed_bytes,
                prefetched_bytes: s.prefetched_bytes,
                handoffs: s.handoffs,
                rollbacks: s.rollbacks,
                journal_bytes: s.journal_bytes,
                journal_time: s.journal_ns as f64,
                ckpt_count: s.ckpt_count,
                ckpt_bytes: s.ckpt_bytes,
                ckpt_time: s.ckpt_ns as f64,
                verified_chunks: s.verified_chunks,
                verify_time: s.verify_ns as f64,
                events_dropped: s.events_dropped,
                takeover: s.takeover.to_latency(),
                chunk_exec: s.chunk_exec.to_latency(),
            })
            .collect();
        let mut events: Vec<PhaseSample> = self
            .threads
            .iter()
            .enumerate()
            .flat_map(|(t, s)| {
                s.events.iter().map(move |e| PhaseSample {
                    worker: t as u64,
                    kind: e.kind,
                    chunk: e.chunk,
                    start: e.start_ns as f64,
                    end: e.end_ns as f64,
                })
            })
            .collect();
        events.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.worker.cmp(&b.worker))
                .then(a.end.total_cmp(&b.end))
        });
        let mut m = CascadeMetrics {
            source: Some(MetricsSource::Real),
            chunks: self.chunks,
            iters: self.iters,
            wall_time: self.elapsed.as_nanos() as f64,
            cancel_latency: self.cancel_latency_ns as f64,
            budget_high_water: self.budget_high_water,
            scrubs: self.scrubs,
            workers,
            events,
            ..Default::default()
        };
        m.aggregate();
        m
    }
}

/// Execute `kernel` sequentially (the baseline), returning the wall time.
pub fn run_sequential<K: RealKernel>(kernel: &K) -> Duration {
    let start = Instant::now();
    // SAFETY: single-threaded call; trivially exclusive.
    unsafe { kernel.execute(0..kernel.iters()) };
    start.elapsed()
}

fn run_error_from(cause: &PoisonCause) -> RunError {
    match cause {
        PoisonCause::Panicked { thread, chunk, .. } => RunError::WorkerPanicked {
            thread: *thread,
            chunk: *chunk,
        },
        PoisonCause::Stalled { chunk, waited } => RunError::Stalled {
            chunk: *chunk,
            waited: *waited,
        },
        // The degraded paths intercept cancellation before mapping the
        // cause (they need the exact `committed_iters`); kept total for a
        // foreign token poisoned from outside this module.
        PoisonCause::Cancelled { reason } => RunError::Cancelled {
            reason: reason.clone(),
            committed_iters: 0,
        },
        // `resume_at` is loop-local; the supervisor rebases it onto the
        // sequence's global iteration count ([`RunError::rebased`]).
        PoisonCause::Corrupted {
            thread,
            chunk,
            resume_at,
            bytes,
        } => RunError::Corrupted {
            thread: *thread,
            chunk: *chunk,
            committed_iters: *resume_at,
            bytes: bytes.clone(),
        },
    }
}

/// Drain the run leader-ward with a `Cancelled` poison cause: called by
/// the first worker (or waiter) that acts on the cancel flag. Stamps the
/// cancel latency; the poison itself is first-cause-wins, so a cancel
/// racing a real fault never masks it.
pub(crate) fn poison_cancelled(run: &FtRun, cancel: &CancelToken) {
    cancel.note_observed();
    let reason = cancel
        .state()
        .map(|s| s.reason)
        .unwrap_or_else(|| "cancelled".to_string());
    run.token.poison_with(PoisonCause::Cancelled { reason });
}

/// Map a cancelled run to its typed error, carrying the exact sequential
/// resume point. The kind comes from the run's [`CancelToken`], whose
/// state is installed before its flag: every caller has seen the flag.
fn cancel_error(cancel: &CancelToken, committed_iters: u64) -> RunError {
    match cancel.state() {
        Some(CancelState {
            kind: CancelKind::Deadline { after },
            ..
        }) => RunError::DeadlineExceeded {
            deadline: after,
            committed_iters,
        },
        Some(CancelState {
            kind: CancelKind::Budget { needed, limit },
            ..
        }) => RunError::BudgetExceeded {
            needed,
            limit,
            committed_iters,
        },
        Some(CancelState {
            kind: CancelKind::User,
            reason,
        }) => RunError::Cancelled {
            reason,
            committed_iters,
        },
        None => RunError::Cancelled {
            reason: "cancelled".to_string(),
            committed_iters,
        },
    }
}

/// A cancelled run whose in-flight chunk tore (its rollback panicked, or
/// a concurrent fault left an unjournalable chunk half-applied) must NOT
/// report a clean `Cancelled{committed_iters}` — resuming from it could
/// double-apply writes. Surface the tear as the panic that caused it.
fn torn_fallback(faults: &[FaultEvent]) -> RunError {
    faults
        .iter()
        .rev()
        .find_map(|f| match f {
            FaultEvent::WorkerPanicked { thread, chunk, .. } => Some(RunError::WorkerPanicked {
                thread: *thread,
                chunk: *chunk,
            }),
            _ => None,
        })
        .unwrap_or(RunError::WorkerPanicked {
            thread: 0,
            chunk: 0,
        })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of removing a worker from the [`Roster`].
pub(crate) enum RemoveOutcome {
    /// Removed; the survivors own the remaining chunks.
    Removed,
    /// The worker was already off the roster (a concurrent detector or
    /// the worker itself beat us): recovery is already underway.
    NotLive,
    /// Refused: removing the last live worker would strand the run.
    LastWorker,
}

/// Dynamic chunk→thread ownership: round-robin over the *live* workers,
/// re-anchored whenever a worker is quarantined. `owner(c) =
/// live[(c - base) % live.len()]` for `c >= base`; chunks below `base`
/// already executed (token serialization completes chunks in order), so a
/// remap anchored at the token's current position never orphans an
/// unexecuted chunk.
///
/// Every remap bumps `epoch` under the mutex. A worker keeps its own
/// [`RosterView`] (epoch, its index, live count, base) and computes
/// ownership from it without the lock; it takes the lock only to refresh
/// the view when `epoch` moves, and re-checks the epoch while waiting.
/// A worker acting on a stale epoch is benign: execution rights come from
/// the token claim CAS, never from the roster.
pub(crate) struct Roster {
    epoch: AtomicU64,
    synced: AtomicBool,
    inner: Mutex<RosterInner>,
}

struct RosterInner {
    live: Vec<u64>,
    base: u64,
}

/// A worker's lock-free copy of its roster slot, valid while the
/// roster's epoch equals `epoch` ([`Roster::refresh`]).
struct RosterView {
    epoch: u64,
    /// `(index in the live set, live count, base)`; `None` off the roster.
    slot: Option<(u64, u64, u64)>,
}

impl RosterView {
    /// The smallest chunk `>= from` this snapshot's worker owns, by
    /// [`owned_from`], the shared ownership rule; `None` off the roster.
    #[inline]
    fn next_owned(&self, from: u64) -> Option<u64> {
        let (idx, len, base) = self.slot?;
        Some(owned_from(idx, len, base, from))
    }
}

/// The smallest chunk `>= from` owned by the worker at index `idx` of a
/// live set of `len` workers whose round-robin starts at chunk `base`:
/// the one ownership rule behind the roster, its snapshots and the model
/// checker's protocol model.
pub(crate) fn owned_from(idx: u64, len: u64, base: u64, from: u64) -> u64 {
    let first = base + idx;
    let start = from.max(base);
    if start <= first {
        return first;
    }
    first + (start - first).div_ceil(len) * len
}

impl Roster {
    fn new(nthreads: usize) -> Self {
        Roster {
            epoch: AtomicU64::new(0),
            synced: AtomicBool::new(false),
            inner: Mutex::new(RosterInner {
                live: (0..nthreads as u64).collect(),
                base: 0,
            }),
        }
    }

    #[inline]
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// One-shot (first caller wins) adoption of the health registry's live
    /// set, so a loop later in a sequence starts without the workers
    /// quarantined by earlier loops. Safe to call from every worker: the
    /// inter-loop barrier guarantees no worker still acts on the previous
    /// loop's roster.
    fn sync_with(&self, health: &HealthRegistry) {
        if self.synced.swap(true, Ordering::AcqRel) {
            return;
        }
        let live = health.live();
        let mut inner = lock_recover(&self.inner);
        if inner.live != live {
            inner.live = live;
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The live worker owning `chunk`, or `None` while a remap is in
    /// flight (`chunk` below the anchor) or the roster is empty.
    fn owner_of(&self, chunk: u64) -> Option<u64> {
        let inner = lock_recover(&self.inner);
        if inner.live.is_empty() || chunk < inner.base {
            return None;
        }
        let l = inner.live.len() as u64;
        Some(inner.live[((chunk - inner.base) % l) as usize])
    }

    /// Worker `t`'s view of the roster, taken under the lock; every epoch
    /// bump also happens under it, so the pair is consistent.
    fn view(&self, t: u64) -> RosterView {
        let inner = lock_recover(&self.inner);
        RosterView {
            epoch: self.epoch(),
            slot: inner
                .live
                .iter()
                .position(|&x| x == t)
                .map(|idx| (idx as u64, inner.live.len() as u64, inner.base)),
        }
    }

    /// Re-take `view` if a remap moved the epoch since it was taken.
    #[inline]
    fn refresh(&self, view: &mut RosterView, t: u64) {
        if self.epoch() != view.epoch {
            *view = self.view(t);
        }
    }

    /// The smallest chunk `>= from` owned by worker `t`, or `None` when
    /// `t` is not on the roster: the locked computation that
    /// [`RosterView::next_owned`] must agree with.
    #[cfg(test)]
    fn next_owned(&self, t: u64, from: u64) -> Option<u64> {
        let inner = lock_recover(&self.inner);
        let idx = inner.live.iter().position(|&x| x == t)? as u64;
        Some(owned_from(idx, inner.live.len() as u64, inner.base, from))
    }

    /// Remove worker `t`, re-anchoring the round-robin at `anchor` (the
    /// token's current chunk) so every unexecuted chunk is remapped across
    /// the survivors.
    pub(crate) fn remove(&self, t: u64, anchor: u64) -> RemoveOutcome {
        let mut inner = lock_recover(&self.inner);
        let Some(idx) = inner.live.iter().position(|&x| x == t) else {
            return RemoveOutcome::NotLive;
        };
        if inner.live.len() == 1 {
            return RemoveOutcome::LastWorker;
        }
        inner.live.remove(idx);
        // Monotone: a stale anchor racing a newer remap must never move
        // the round-robin origin backward.
        inner.base = inner.base.max(anchor);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        RemoveOutcome::Removed
    }
}

/// Recovery state shared across a whole run — or a whole loop *sequence*,
/// so a worker quarantined in loop `l` stays quarantined in loop `l + 1`
/// and the retry budget is global.
pub(crate) struct Recovery {
    health: HealthRegistry,
    /// Remaining chunk re-executions (see [`RetryPolicy::budget`]).
    budget: AtomicU64,
    policy: Option<RetryPolicy>,
}

impl Recovery {
    fn new(cfg: &RunConfig) -> Self {
        let (nthreads, tol) = (cfg.runner.nthreads, &cfg.tolerance);
        Recovery {
            health: HealthRegistry::new(nthreads, tol.retry.unwrap_or_default()),
            budget: AtomicU64::new(tol.retry.as_ref().map_or(0, |r| r.budget)),
            policy: tol.retry,
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// Spend one retry from the budget; `false` when it is already dry.
    fn try_consume_budget(&self) -> bool {
        self.budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .is_ok()
    }
}

/// Shared fault-handling state of one stage of an engine run.
pub(crate) struct FtRun<'a> {
    /// The cascade's token; its block also carries the handoff words
    /// (completion point, claimant, handoff stamp: [`Token::handoff`]).
    pub(crate) token: Token,
    faults: Mutex<Vec<FaultEvent>>,
    /// Set when a chunk body was interrupted mid-flight by a kernel that
    /// makes no fail-stop promise — re-running it could double-apply
    /// writes, so salvage must be refused.
    pub(crate) salvage_unsound: AtomicBool,
    /// Chunk ownership map (static round-robin until a quarantine remaps
    /// it).
    pub(crate) roster: Roster,
    /// Failed chunk → failed thread: retry attribution, consumed by
    /// whichever worker eventually executes the chunk. Written and read
    /// only when the retry ladder is armed.
    retry_from: Mutex<HashMap<u64, u64>>,
    /// Time zero of the run: every recorder timestamp and handoff stamp
    /// is an offset from here.
    pub(crate) origin: Instant,
    /// The stage's verification, built only under an armed
    /// [`VerifyPolicy`](crate::VerifyPolicy): its verify window and arena
    /// scrub.
    pub(crate) verify: Option<Auditor<'a>>,
    /// The leader's stamps at the loop's start and end barriers: the two
    /// ends of a healthy loop's [`RunStats::elapsed`].
    started: Mutex<Option<Instant>>,
    ended: Mutex<Option<Instant>>,
    /// The claim cursor and per-worker slots of a `Parallel` or
    /// `DoAcross` stage (unused by a `Sequential` one).
    pub(crate) split: SplitState,
}

impl<'a> FtRun<'a> {
    /// A stage's state for a pool of `nthreads`, `owners` of whom own its
    /// chunks if it splits as DOACROSS, verified by `verify`.
    pub(crate) fn new(
        nthreads: usize,
        owners: usize,
        origin: Instant,
        verify: Option<Auditor<'a>>,
    ) -> Self {
        FtRun {
            token: Token::default(),
            faults: Mutex::new(Vec::new()),
            salvage_unsound: AtomicBool::new(false),
            roster: Roster::new(nthreads),
            retry_from: Mutex::new(HashMap::new()),
            origin,
            verify,
            started: Mutex::new(None),
            ended: Mutex::new(None),
            split: SplitState::new(owners),
        }
    }

    pub(crate) fn record(&self, ev: FaultEvent) {
        lock_recover(&self.faults).push(ev);
    }

    pub(crate) fn take_faults(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut *lock_recover(&self.faults))
    }
}

/// `(retries, quarantined)` tallies for [`RunStats`] from the fault trail.
fn tally(faults: &[FaultEvent]) -> (u64, u64) {
    let retries = faults
        .iter()
        .filter(|f| matches!(f, FaultEvent::ChunkRetried { .. }))
        .count() as u64;
    let quarantined = faults
        .iter()
        .filter(|f| matches!(f, FaultEvent::WorkerQuarantined { .. }))
        .count() as u64;
    (retries, quarantined)
}

/// Execute `kernel` under cascaded execution with full run governance
/// ([`RunConfig`]): the fault-recovery ladder of `cfg.tolerance`,
/// cooperative cancellation via `cfg.cancel`, an optional whole-run
/// deadline that arms a governor thread, a memory budget metering journal
/// and pack arenas, durable checkpoints and online verification. A run
/// that is cancelled drains with bitwise-clean state and returns
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] /
/// [`RunError::BudgetExceeded`] carrying `committed_iters` — resuming
/// `kernel` sequentially from that iteration reproduces the uncancelled
/// result bitwise.
///
/// A single loop is a sequence of one: this is
/// [`try_run_governed_sequence`] over `std::slice::from_ref(kernel)`.
pub fn try_run_governed<K: RealKernel>(kernel: &K, cfg: &RunConfig) -> Result<RunStats, RunError> {
    let mut all = try_run_governed_sequence(std::slice::from_ref(kernel), cfg)?;
    Ok(all.pop().expect("one RunStats per kernel"))
}

/// Execute a whole loop *sequence* (e.g. PARMVR's fifteen loops) under
/// cascaded execution with one persistent pool of worker threads: one
/// tolerance, one cancel token, one deadline, one budget across every
/// loop. Loops are separated by a poisonable barrier — the
/// analogue of the application code between unparallelized loops — which
/// both orders the loops (helpers for loop `i+1` must not read operands
/// loop `i` is still writing) and provides the happens-before edge between
/// them. A fault in loop `l` poisons the tokens of loops `l..` and the
/// barrier, so the pool drains promptly; with salvage enabled the calling
/// thread then finishes loop `l` from its last completed chunk and runs
/// every later loop sequentially. Returns one [`RunStats`] per kernel, in
/// order.
///
/// The `committed_iters` of a governance or corruption error is
/// **global**: the summed iteration counts of every fully completed loop
/// plus the committed prefix of the loop the error landed in, so a caller
/// can replay the remainder of the sequence from exactly that point.
pub fn try_run_governed_sequence<K: RealKernel>(
    kernels: &[K],
    cfg: &RunConfig,
) -> Result<Vec<RunStats>, RunError> {
    // Every loop cascades: with no `Parallel` stage, none can pair.
    let n = kernels.len();
    let (schedules, producer) = (vec![Schedule::Sequential; n], vec![false; n]);
    run_stages(kernels, &schedules, &producer, cfg)
}

/// The engine behind every run: stage `l` runs `kernels[l]` under
/// `schedules[l]`, all stages on the same pool of workers and between the
/// same barriers. A `Sequential` stage cascades ([`ft_worker`]); a
/// `Parallel` or `DoAcross` stage splits its chunks across the pool
/// ([`sched::run_stage`]). Where `producer[l]` ([`sched::pipelined`]),
/// stages `l` and `l + 1` are a pipelined pair, sharing one start and one
/// end barrier: worker 0 runs the producer plain, then joins the consumer
/// the others started on. Every stage fault poisons
/// the stage's token, so one degraded path handles them all: a cancelled
/// stage drains to a clean prefix, and a faulted one is salvaged — its
/// uncommitted chunks, then every later stage, sequentially on the
/// calling thread — or maps to its typed error. Returns one [`RunStats`]
/// per stage.
pub(crate) fn run_stages<K: RealKernel>(
    kernels: &[K],
    schedules: &[Schedule],
    producer: &[bool],
    cfg: &RunConfig,
) -> Result<Vec<RunStats>, RunError> {
    cfg.try_validate()?;
    if kernels.len() > 1 && cfg.ckpt_sink.is_some() {
        // A checkpoint manifest describes exactly one loop's committed
        // prefix; silently checkpointing only part of a sequence would
        // hand back a resume point that skips later loops. Refuse until
        // sequence manifests exist rather than mislead.
        return Err(RunError::InvalidConfig(
            "checkpointing covers a single governed loop; sequences are not \
             resumable yet — run loops individually, each with its own \
             checkpoint directory"
                .into(),
        ));
    }
    if kernels.is_empty() {
        return Err(RunError::InvalidConfig("empty kernel sequence".into()));
    }
    if kernels.iter().any(|k| k.iters() == 0) {
        return Err(RunError::InvalidConfig("empty kernel".into()));
    }
    let _governor = cfg.deadline.map(|d| Governor::arm(&cfg.cancel, d));
    let nthreads = cfg.runner.nthreads;
    let plans: Vec<ChunkPlan> = kernels
        .iter()
        .map(|k| ChunkPlan::by_iterations(k.iters(), cfg.runner.iters_per_chunk))
        .collect();
    // producer[l]: stage l runs plain on worker 0 while the pool runs
    // stage l + 1 behind its frontier, and no barrier parts the two.
    let cascades = |l: usize| sched::cascades(schedules[l], producer[l]);
    let consumer = |l: usize| l > 0 && producer[l - 1];
    // One recovery state for the whole sequence: a worker quarantined in
    // loop l stays out of every later loop's roster, and the retry budget
    // is shared. So is the verification pre-image pool.
    let rec = Recovery::new(cfg);
    let pre_images = Mutex::new(PreImages::new(cfg));
    // One clock for every stage's phase events.
    let origin = Instant::now();
    let verified = cfg.verify.armed();
    let runs: Vec<FtRun> = (0..kernels.len())
        .map(|l| {
            let verify = verified
                .then(|| Auditor::new(&kernels[l], &plans[l], cfg, &rec.health, &pre_images));
            let owners = if producer[l] { 1 } else { nthreads };
            FtRun::new(nthreads, owners, origin, verify)
        })
        .collect();
    let barrier = FtBarrier::new(nthreads);

    // per_thread[t][l] = stats of thread t on loop l (may stop short when
    // a fault drained the pool).
    let per_thread: Vec<Vec<ThreadStats>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nthreads as u64)
            .map(|t| {
                let (plans, runs, rec, barrier) = (&plans, &runs, &rec, &barrier);
                s.spawn(move || {
                    let mut all = Vec::with_capacity(kernels.len());
                    // The worker's pack arena, lent to every cascaded stage
                    // of the run, and its undo-journal buffer, lent to
                    // every stage.
                    let (mut buf, mut jbuf) = (Vec::new(), Vec::new());
                    for (l, kernel) in kernels.iter().enumerate() {
                        // A pair's consumer starts with its producer.
                        let first = l - usize::from(consumer(l));
                        if first == l {
                            if let Some(v) = &runs[l].verify {
                                // The stage's scrub baseline, before its
                                // start barrier. Other stages legitimately
                                // write outside *this* stage's footprint,
                                // so it waits for every earlier one.
                                // SAFETY: every worker is past the last
                                // stage's scrub barrier (its final repair
                                // came before it), and none starts this
                                // stage before its start barrier.
                                unsafe { v.scrub_share(t, false) };
                            }
                            match barrier.wait() {
                                BarrierOutcome::Poisoned => break,
                                BarrierOutcome::Leader => {
                                    let now = Some(Instant::now());
                                    for r in &runs[l..=l + usize::from(producer[l])] {
                                        *lock_recover(&r.started) = now;
                                    }
                                }
                                BarrierOutcome::Follower => {}
                            }
                        }
                        // A quarantined worker executes nothing in a
                        // cascaded stage (ft_worker drains immediately)
                        // but keeps pacing the barriers, so the surviving
                        // cascade stays in lockstep.
                        let mut stats = if cascades(l) {
                            ft_worker(
                                kernel, cfg, &plans[l], &runs[l], rec, t, &mut buf, &mut jbuf,
                            )
                        } else {
                            // A pipelined consumer gates on its producer.
                            let feeder = (first < l).then(|| &runs[first]);
                            sched::run_stage(
                                kernel,
                                cfg,
                                &runs[l],
                                t,
                                schedules[l],
                                feeder,
                                &mut jbuf,
                            )
                        };
                        if producer[l] {
                            // Straight on to the consumer: worker 0 stamps
                            // the producer's end as it joins.
                            if t == 0 {
                                *lock_recover(&runs[l].ended) = Some(Instant::now());
                            }
                            all.push(stats);
                            continue;
                        }
                        // A fault in a pair's producer drains its consumer
                        // too (a consumer's leaves the producer running,
                        // and a cancel reaches both).
                        let cause = || runs[first..=l].iter().find_map(|r| r.token.poison_cause());
                        let mut poisoned = cause().is_some();
                        if !poisoned {
                            match barrier.wait() {
                                BarrierOutcome::Poisoned => {
                                    all.push(stats);
                                    break;
                                }
                                BarrierOutcome::Leader => {
                                    *lock_recover(&runs[l].ended) = Some(Instant::now());
                                    if let Some(v) = &runs[l].verify {
                                        // The window's last packets,
                                        // the final chunk's among them.
                                        poisoned = v.drain(&runs[l], &mut stats).is_err();
                                    }
                                }
                                BarrierOutcome::Follower => {}
                            }
                        }
                        if let Some(v) = runs[l].verify.as_ref().filter(|_| !poisoned) {
                            // SAFETY: every worker is past the end barrier,
                            // and only the leader's final-chunk repair
                            // writes, inside the stage's footprint.
                            unsafe { v.scrub_share(t, true) };
                            match barrier.wait() {
                                BarrierOutcome::Poisoned => {
                                    all.push(stats);
                                    break;
                                }
                                BarrierOutcome::Leader => {
                                    poisoned = !v.scrub_clean(&runs[l]);
                                    if !poisoned {
                                        // The final deferred checkpoint
                                        // installment: claims publish only
                                        // up to the chunk before their own.
                                        // SAFETY: every worker is past the
                                        // scrub barrier, no stage runs before
                                        // the next start barrier, which waits
                                        // for us, and every chunk is committed.
                                        let m = plans[l].num_chunks();
                                        let n = kernel.iters();
                                        unsafe {
                                            publish_ckpt(kernel, cfg, &plans[l], m, n, &mut stats)
                                        };
                                    }
                                }
                                BarrierOutcome::Follower => {}
                            }
                        }
                        all.push(stats);
                        if poisoned {
                            // Propagate the fault: no worker may block on a
                            // loop that will never start, and the poisoned
                            // barrier wakes everyone already waiting.
                            if let Some(cause) = cause() {
                                for later in &runs[l..] {
                                    later.token.poison_with(cause.clone());
                                }
                            }
                            barrier.poison();
                            break;
                        }
                    }
                    all
                })
            })
            .collect();
        // Workers catch their own panics and report through the token, so
        // join only fails if the panic machinery itself misbehaved.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let stats_for = |l: usize, elapsed: Duration, degraded: bool, faults: Vec<FaultEvent>| {
        let (retries, quarantined) = tally(&faults);
        RunStats {
            elapsed,
            chunks: plans[l].num_chunks(),
            iters: kernels[l].iters(),
            threads: per_thread
                .iter()
                .map(|tv| tv.get(l).cloned().unwrap_or_default())
                .collect(),
            degraded,
            faults,
            retries,
            quarantined,
            cancel_latency_ns: cfg.cancel.latency().map_or(0, |d| d.as_nanos() as u64),
            budget_high_water: cfg.budget.high_water(),
            scrubs: runs[l].verify.as_ref().map_or(0, Auditor::scrubs),
        }
    };
    let healthy_stats = |l: usize| -> Result<RunStats, RunError> {
        let (start, end) = loop_stamps(&runs[l].started, &runs[l].ended)
            .ok_or(RunError::LeaderLost { loop_idx: l as u64 })?;
        let faults = runs[l].take_faults();
        Ok(stats_for(l, end.duration_since(start), false, faults))
    };

    let Some(l0) = runs.iter().position(|r| r.token.poison_cause().is_some()) else {
        debug_assert!(
            (0..kernels.len())
                .all(|l| !cascades(l) || runs[l].token.current() == plans[l].num_chunks()),
            "every cascaded stage's token must end one past its last chunk"
        );
        return (0..kernels.len()).map(healthy_stats).collect();
    };

    // --- degraded path ---
    let cause = runs[l0]
        .token
        .poison_cause()
        .expect("position found a cause");
    let iters_before = |l: usize| -> u64 { kernels[..l].iter().map(|k| k.iters()).sum() };
    let cancelled = matches!(cause, PoisonCause::Cancelled { .. });
    // The chunks of stage `l` no worker committed, ascending: a cascaded
    // stage's suffix past its last completed chunk (completion is in
    // token order), a split stage's from its cursor and slots.
    let pending = |l: usize| -> Pending {
        let m = plans[l].num_chunks();
        if cascades(l) {
            let done = runs[l].token.handoff().completed.load(Ordering::Acquire);
            Pending::new((done..m).collect(), m)
        } else {
            runs[l].split.uncommitted(&plans[l], schedules[l])
        }
    };
    // A pair's producer runs to its end once its consumer has committed a
    // chunk, and the prefix lies in the consumer (`prefix_in_consumer`).
    let runs_through = |l: usize| {
        producer[l] && sched::prefix_in_consumer(&pending(l + 1), plans[l + 1].num_chunks())
    };
    let torn = runs
        .iter()
        .any(|r| r.salvage_unsound.load(Ordering::Acquire));
    if cancelled && torn {
        // The in-flight chunk tore while the run drained: the resume
        // guarantee is broken, report the tear instead.
        let all: Vec<FaultEvent> = runs.iter().flat_map(|r| r.take_faults()).collect();
        return Err(torn_fallback(&all));
    }

    // --- a worker panicked, the cascade stalled, or corruption ---
    let err = run_error_from(&cause).rebased(iters_before(l0));
    // Audit the faulted stage's pending packets before its prefix is
    // reported or salvaged from.
    if let Some(v) = &runs[l0].verify {
        if let Some(failed) = v.drain_faulted(&runs[l0], iters_before(l0), &err) {
            return Err(failed);
        }
    }
    // Corruption is never salvaged: the chunk was rolled back to its
    // pre-image (or the drift lies outside every footprint), and the typed
    // error already carries the exact clean resume point — re-executing
    // from `completed` could run on top of the rollback and double-apply
    // writes. `salvage_unsound` is only ever set for a *torn* chunk:
    // interrupted mid-body with neither a fail-stop promise nor a
    // rolled-back undo journal. Journaled chunks were restored bitwise by
    // their faulting worker before it drained, so salvage re-executes
    // pristine state.
    if !cancelled
        && (matches!(cause, PoisonCause::Corrupted { .. }) || !cfg.tolerance.salvage || torn)
    {
        return Err(err);
    }
    let mut out: Vec<RunStats> = if cancelled {
        Vec::new()
    } else {
        (0..l0).map(healthy_stats).collect::<Result<_, _>>()?
    };
    // Finish on this thread, sequentially: after a fault, stage l0's
    // uncommitted chunks and then every later stage; after a cancel, stage
    // l0's holes. Ascending order honours every schedule's dependences,
    // and every worker has joined, so exclusivity and happens-before hold.
    let last = if cancelled {
        l0 + usize::from(runs_through(l0))
    } else {
        kernels.len() - 1
    };
    for l in l0..=last {
        let mut faults = runs[l].take_faults();
        let pending = pending(l);
        let through = runs_through(l);
        let began = (*lock_recover(&runs[l].started)).unwrap_or_else(Instant::now);
        for (i, &c) in pending.chunks.iter().enumerate() {
            // Past the holes, the uncommitted chunks run to the stage's
            // end: a cancel stops at the first of them with every chunk
            // below it committed and none above, so the (global) resume
            // point is exact.
            if i >= pending.holes && !through && (cancelled || cfg.cancel.is_cancelled()) {
                cfg.cancel.note_observed();
                let resume = iters_before(l) + plans[l].range(c).start;
                return Err(cancel_error(&cfg.cancel, resume));
            }
            let r = plans[l].range(c);
            // SAFETY: all workers joined; single-threaded remainder.
            let salvage = catch_unwind(AssertUnwindSafe(|| unsafe { kernels[l].execute(r) }));
            if salvage.is_err() {
                // The kernel fails even sequentially: report the original
                // fault (while filling a cancelled stage's holes, this one).
                return Err(if cancelled {
                    RunError::WorkerPanicked {
                        thread: nthreads as u64,
                        chunk: c,
                    }
                } else {
                    err
                });
            }
        }
        if let Some(&from_chunk) = pending.chunks.first() {
            let iters = pending.chunks.iter().map(|&c| {
                let r = plans[l].range(c);
                r.end - r.start
            });
            faults.push(FaultEvent::Salvaged {
                from_chunk,
                iters: iters.sum(),
            });
        }
        out.push(stats_for(l, began.elapsed(), true, faults));
    }
    if cancelled {
        return Err(cancel_error(&cfg.cancel, iters_before(last + 1)));
    }
    Ok(out)
}

/// Offer the committed prefix — the first `chunks` chunks, ending at
/// iteration `iters` — to the run's checkpoint sink, if it has one. The
/// sink decides whether a checkpoint is due and its contiguity tracking
/// makes a repeated offer a no-op. Helpers never touch the sink, so
/// nothing here blocks them; the cost is a side counter (`ckpt_ns` /
/// `ckpt_bytes` / `ckpt_count`), leaving the exact phase partition
/// untouched. A panic anywhere in the sink skips the checkpoint and lets
/// the run continue.
///
/// # Safety
///
/// No execute may overlap the call and every chunk below `chunks` is
/// committed: the caller holds a claim (capture then happens-before the
/// token handoff, so a checkpoint can never observe an uncommitted write
/// — model-checker invariant 8) or has quiescence.
unsafe fn publish_ckpt<K: RealKernel>(
    kernel: &K,
    cfg: &RunConfig,
    plan: &ChunkPlan,
    chunks: u64,
    iters: u64,
    stats: &mut ThreadStats,
) {
    let Some(sink) = &cfg.ckpt_sink else { return };
    let t0 = Instant::now();
    let written = catch_unwind(AssertUnwindSafe(|| {
        sink.on_commit(
            chunks,
            iters,
            |c| plan.range(c).start,
            // SAFETY: the caller's exclusivity, and capture only reads. A
            // capture that panics skips this checkpoint, as the sink's do.
            |r, buf| unsafe { capture(kernel, r, buf) }.unwrap_or_else(|p| resume_unwind(p)),
        )
    }))
    .unwrap_or(None);
    if let Some(bytes) = written {
        stats.ckpt_count += 1;
        stats.ckpt_bytes += bytes;
    }
    stats.ckpt_ns += t0.elapsed().as_nanos();
}

/// The leader's start/end stamps of a healthy sequence loop, or `None`
/// when either is missing — the leader died between winning a barrier
/// and writing its stamp. That window is unreachable through the public
/// API (a worker dying inside a loop poisons it, so the loop never reads
/// as healthy, and barriers are all-arrive so healthy loops are fully
/// stamped by join time), but a protocol regression here used to
/// `expect` and panic the *supervisor*; callers now surface
/// [`RunError::LeaderLost`] instead.
fn loop_stamps(
    start: &Mutex<Option<Instant>>,
    end: &Mutex<Option<Instant>>,
) -> Option<(Instant, Instant)> {
    let s = (*lock_recover(start))?;
    let e = (*lock_recover(end))?;
    Some((s, e))
}

/// What one helper phase accomplished.
#[derive(Debug, Default, Clone, Copy)]
struct HelperOut {
    /// Iterations packed into the sequential buffer (restructure only).
    packed_iters: u64,
    /// Iterations covered by helper work (prefetched or packed).
    helped_iters: u64,
    /// Poll batches that found no headroom below the dependence horizon
    /// and waited for the token to commit more chunks.
    horizon_stalls: u64,
    /// The phase was abandoned (token arrival / jump-out / remap) before
    /// covering its whole range.
    jumped_out: bool,
}

/// Helper work for chunk `j` (covering `range`): prefetch or pack until
/// the token arrives or the range is exhausted.
///
/// When the kernel declares a [`RealKernel::helper_horizon`] of `lag`
/// (a loop-carried read whose aliasing writes trail by at least `lag`
/// iterations), the helper never touches an iteration `i` unless
/// `i < committed + lag`, where `committed` is the first iteration of
/// the chunk the token currently licenses: every value such an `i` reads
/// was produced by an already-committed chunk and is visible through the
/// token's Acquire load. The horizon *grows* as the token advances, so
/// the helper re-reads it each poll batch; a batch that has caught up
/// with it waits in the [`governed_wait`] until the horizon grows or the
/// helper must jump out, so a stalled executor ahead of it is declared
/// stalled as it would be at the claim.
#[allow(clippy::too_many_arguments)] // a phase is naturally parameterized by all of these
fn helper_phase<K: RealKernel>(
    kernel: &K,
    cfg: &RunConfig,
    run: &FtRun,
    rec: &Recovery,
    plan: &ChunkPlan,
    t: u64,
    j: u64,
    epoch: u64,
    range: &Range<u64>,
    buf: &mut Vec<u8>,
) -> HelperOut {
    let mut out = HelperOut::default();
    let policy = cfg.runner.policy;
    if policy == RtPolicy::None {
        return out;
    }
    let horizon = kernel.helper_horizon();
    let m = plan.num_chunks();
    // Cap a batch end at the current helper horizon. The token read is
    // Acquire (see `Token::raw`), so every write of a chunk below the
    // observed position happens-before any value read under this cap.
    let horizon_cap = |want: u64| -> u64 {
        match horizon {
            None => want,
            Some(lag) => {
                let raw = run.token.raw();
                if raw == POISONED {
                    return 0;
                }
                let pos = Token::chunk_index(raw);
                let committed = if pos >= m {
                    kernel.iters()
                } else {
                    plan.range(pos).start
                };
                committed.saturating_add(lag).min(want)
            }
        }
    };
    // Stop and go claim once the token has reached (or passed) `j`, is
    // poisoned, the run was cancelled, or the roster was remapped — then
    // `j` may no longer be ours to help for.
    let jump_out = || {
        let raw = run.token.raw();
        raw == POISONED
            || Token::chunk_index(raw) >= j
            || run.roster.epoch() != epoch
            || cfg.cancel.is_cancelled()
    };
    buf.clear();
    let mut i = range.start;
    let mut supported = true;
    while supported && i < range.end && !jump_out() {
        let want = (i + cfg.runner.poll_batch).min(range.end);
        let batch_end = horizon_cap(want);
        if batch_end <= i {
            // Caught up with the horizon: wait for the token to commit
            // more chunks (or arrive, via jump-out).
            out.horizon_stalls += 1;
            let grown = || (jump_out() || horizon_cap(want) > i).then_some(());
            let waiter = Waiter::Cascade { rec, t };
            if governed_wait(run, None, cfg, waiter, grown, || run.token.raw()).is_none() {
                break;
            }
            continue;
        }
        if policy == RtPolicy::Prefetch {
            kernel.prefetch_range(i..batch_end);
        } else {
            supported = kernel.pack_range(i..batch_end, buf);
        }
        i = batch_end;
    }
    if !supported {
        // Kernel cannot pack: degrade to nothing packed.
        buf.clear();
        return out;
    }
    out.helped_iters = i - range.start;
    if policy == RtPolicy::Restructure {
        out.packed_iters = out.helped_iters;
    }
    out.jumped_out = i < range.end;
    out
}

/// How a wait for chunk `j` ended.
enum ChunkClaim {
    /// We won the claim CAS: we are the unique executor of `j`.
    Claimed,
    /// The token moved past `j` (someone else executed it — e.g. a
    /// quarantined owner finishing late after its chunk was remapped to
    /// us): recompute ownership and move on.
    Superseded,
    /// The roster epoch moved while we waited: our ownership of `j` may be
    /// stale, recompute.
    Remapped,
    /// The wait halted: the token is poisoned, the run was cancelled, or
    /// we were quarantined. Drain.
    Halted,
}

/// What a waiter should do after declaring a stall.
pub(crate) enum StallAction {
    /// Keep waiting this much longer (a strike backoff, or recovery by
    /// another detector is underway).
    Wait(Duration),
    /// The token is (now) poisoned: stop waiting.
    Poisoned,
}

/// Poison the token with a stall cause; the winning poisoner alone
/// records the event (and, when the retry ladder gave up, why it fell
/// through).
pub(crate) fn poison_stalled(
    run: &FtRun,
    stuck: u64,
    waited: Duration,
    abandon: Option<RetryAbandon>,
) -> StallAction {
    if run.token.poison_with(PoisonCause::Stalled {
        chunk: stuck,
        waited,
    }) {
        run.record(FaultEvent::StallDeclared {
            chunk: stuck,
            waited,
        });
        if let Some(reason) = abandon {
            run.record(FaultEvent::RetryAbandoned {
                chunk: stuck,
                reason,
            });
        }
    }
    StallAction::Poisoned
}

/// A full watchdog window elapsed with no token movement at all. Without
/// retry, poison immediately. With retry, strike the
/// suspect — the stuck chunk's roster owner, or the recorded claimant
/// when an executor went quiet mid-body — granting exponential backoff;
/// on a quarantine verdict either remap the chunk to survivors (it was
/// never claimed, so re-execution is safe) or abandon recovery (a stuck
/// executor may still write, its chunk is unretryable) and poison.
fn declare_stall(
    run: &FtRun,
    rec: &Recovery,
    t: u64,
    raw: u64,
    waited: Duration,
    window: Duration,
) -> StallAction {
    let stuck = Token::chunk_index(raw);
    if !rec.enabled() {
        return poison_stalled(run, stuck, waited, None);
    }
    let executing = raw & EXEC_BIT != 0;
    let suspect = if executing {
        run.token.handoff().claimant.load(Ordering::Acquire)
    } else {
        match run.roster.owner_of(stuck) {
            Some(owner) => owner,
            // A remap is in flight; our own epoch check will fire.
            None => return StallAction::Wait(window),
        }
    };
    if suspect == t {
        // The stuck chunk is (or just became) ours: no self-strike, go
        // recompute ownership instead of waiting here.
        return StallAction::Wait(window);
    }
    match rec.health.strike(suspect) {
        StrikeVerdict::Backoff { wait, fresh } => {
            if fresh {
                run.record(FaultEvent::StallStrike {
                    thread: suspect,
                    chunk: stuck,
                    strikes: rec.health.strikes(suspect),
                    backoff: wait,
                });
            }
            StallAction::Wait(wait)
        }
        StrikeVerdict::Quarantine => {
            if executing {
                // The executor claimed the chunk and went quiet mid-body:
                // it may still write, so the chunk must never be retried.
                return poison_stalled(run, stuck, waited, Some(RetryAbandon::ExecutorStuck));
            }
            if !rec.health.quarantine(suspect) {
                // Another detector won: its remap is underway.
                return StallAction::Wait(window);
            }
            if !rec.try_consume_budget() {
                return poison_stalled(run, stuck, waited, Some(RetryAbandon::BudgetExhausted));
            }
            match run.roster.remove(suspect, stuck) {
                RemoveOutcome::LastWorker => {
                    poison_stalled(run, stuck, waited, Some(RetryAbandon::NoSurvivors))
                }
                RemoveOutcome::NotLive => StallAction::Wait(window),
                RemoveOutcome::Removed => {
                    lock_recover(&run.retry_from).insert(stuck, suspect);
                    run.record(FaultEvent::WorkerQuarantined {
                        thread: suspect,
                        chunk: stuck,
                    });
                    StallAction::Wait(window)
                }
            }
        }
    }
}

/// Spins between two polls of a [`governed_wait`]. Counted on the
/// `dense_handoff`, `planned_mix` and `zoo_prefetch` benchmark workloads,
/// at least 98 % of the claim, gate and horizon-stall waits end sooner
/// (EXPERIMENTS.md has the counts), so a fault-free wait seldom polls.
const POLL_SPINS: u32 = 1024;

/// Who waits in a [`governed_wait`], and what a stall means to it.
#[derive(Clone, Copy)]
pub(crate) enum Waiter<'a> {
    /// Worker `t` of a cascaded stage, at its claim or at its helper's
    /// horizon: it also stops once quarantined, and a stall climbs the
    /// recovery ladder ([`declare_stall`]).
    Cascade { rec: &'a Recovery, t: u64 },
    /// The gate of a split stage's `chunk`: a stall poisons the stage
    /// ([`poison_stalled`]).
    Gate { chunk: u64 },
}

/// Whether a worker of `run` must stop: its token, or that of the stage
/// `feeding` it (a pipelined consumer's producer), is poisoned, or a
/// cancel arrived, which the worker then poisons the token with.
pub(crate) fn halted(run: &FtRun, feeding: Option<&FtRun>, cancel: &CancelToken) -> bool {
    if run.token.is_poisoned() || feeding.is_some_and(|f| f.token.is_poisoned()) {
        return true;
    }
    if cancel.is_cancelled() {
        poison_cancelled(run, cancel);
        return true;
    }
    false
}

/// The one wait of the runtime: spin until `ready` yields a value. Every
/// [`POLL_SPINS`] spins the wait polls governance and yields: it returns
/// `None` when the worker must stop ([`halted`], or a quarantined
/// [`Waiter::Cascade`]). With a watchdog window armed, the first poll
/// reads the clock and the `progress` word and opens the window; every
/// later poll re-arms it if the word moved, and once a whole window has
/// passed without movement the waiter's stall verdict decides: keep
/// waiting (a strike backoff) or stop. Without a watchdog the wait never
/// reads the clock.
pub(crate) fn governed_wait<T>(
    run: &FtRun,
    feeding: Option<&FtRun>,
    cfg: &RunConfig,
    waiter: Waiter<'_>,
    mut ready: impl FnMut() -> Option<T>,
    progress: impl Fn() -> u64,
) -> Option<T> {
    // (last movement seen, deadline, progress word then)
    let mut window: Option<(Instant, Instant, u64)> = None;
    let mut spins = 0u32;
    loop {
        if let Some(v) = ready() {
            return Some(v);
        }
        std::hint::spin_loop();
        spins = spins.wrapping_add(1);
        if !spins.is_multiple_of(POLL_SPINS) {
            continue;
        }
        let quarantined = match waiter {
            Waiter::Cascade { rec, t } => rec.health.is_quarantined(t),
            Waiter::Gate { .. } => false,
        };
        // Poisoning on a cancel while another executor holds a claim is
        // safe: its `completed` store precedes the advance the poison
        // refuses, so the resume point stays exact.
        if quarantined || halted(run, feeding, &cfg.cancel) {
            return None;
        }
        if let Some(w) = cfg.tolerance.watchdog {
            let (now, seen) = (Instant::now(), progress());
            match window {
                Some((moved, deadline, observed)) if seen == observed => {
                    if now >= deadline {
                        let waited = now - moved;
                        let action = match waiter {
                            Waiter::Cascade { rec, t } => {
                                declare_stall(run, rec, t, seen, waited, w)
                            }
                            Waiter::Gate { chunk } => poison_stalled(run, chunk, waited, None),
                        };
                        match action {
                            StallAction::Wait(extra) => window = Some((moved, now + extra, seen)),
                            StallAction::Poisoned => return None,
                        }
                    }
                }
                _ => window = Some((now, now + w, seen)),
            }
        }
        std::thread::yield_now();
    }
}

/// Wait for chunk `j` and claim it, in the [`governed_wait`]. Grants and
/// claims both move the token, so both count as progress; a whole window
/// with no movement climbs the stall ladder in [`declare_stall`].
fn wait_to_claim(
    run: &FtRun,
    rec: &Recovery,
    cfg: &RunConfig,
    t: u64,
    j: u64,
    epoch: u64,
) -> ChunkClaim {
    let claim = || match Token::decode(run.token.raw()) {
        TokenView::Poisoned => Some(ChunkClaim::Halted),
        TokenView::Granted(p) | TokenView::Claimed(p) if p > j => Some(ChunkClaim::Superseded),
        TokenView::Granted(p) if p == j && run.token.try_claim(j) => {
            run.token.handoff().claimant.store(t, Ordering::Release);
            Some(ChunkClaim::Claimed)
            // A claimant that loses the CAS falls through instead and
            // re-observes the token (Superseded soon).
        }
        _ if run.roster.epoch() != epoch => Some(ChunkClaim::Remapped),
        _ => None,
    };
    let waiter = Waiter::Cascade { rec, t };
    governed_wait(run, None, cfg, waiter, claim, || run.token.raw()).unwrap_or(ChunkClaim::Halted)
}

/// Handle a worker panic at chunk `j` (`claimed` = during the execution
/// phase, i.e. we hold the claim; `pristine` = the chunk's shared state
/// is bitwise pre-chunk — the body never started, the kernel promises
/// fail-stop panics, or the undo journal was rolled back). Records the
/// panic ([`chunk_panicked`]) and climbs the recovery ladder; returns
/// `true` when the fault was absorbed in-cascade (self-quarantine, roster
/// remap, claimed chunk handed back for a survivor to retry) and `false`
/// when it fell through to token poisoning.
fn recover_from_panic(
    run: &FtRun,
    rec: &Recovery,
    t: u64,
    j: u64,
    claimed: bool,
    pristine: bool,
    payload: Box<dyn std::any::Any + Send>,
) -> bool {
    let cause = chunk_panicked(run, t, j, pristine, payload);
    let mut abandon = None;
    if rec.enabled() {
        if !pristine {
            abandon = Some(RetryAbandon::KernelNotFailStop);
        } else if !rec.try_consume_budget() {
            abandon = Some(RetryAbandon::BudgetExhausted);
        } else if let Some(anchor) = run.token.position() {
            // Anchor the remap at the token's position — the lowest
            // unexecuted chunk (completion is in token order) — so chunks
            // between it and j are re-owned too, not orphaned.
            match run.roster.remove(t, anchor) {
                RemoveOutcome::LastWorker => abandon = Some(RetryAbandon::NoSurvivors),
                out => {
                    if matches!(out, RemoveOutcome::Removed) {
                        rec.health.quarantine(t);
                        run.record(FaultEvent::WorkerQuarantined {
                            thread: t,
                            chunk: j,
                        });
                    }
                    lock_recover(&run.retry_from).insert(j, t);
                    if !claimed || run.token.try_unclaim(j) {
                        return true;
                    }
                    // The token was poisoned while we recovered: fall
                    // through and report the panic as usual.
                }
            }
        }
        if let Some(reason) = abandon {
            run.record(FaultEvent::RetryAbandoned { chunk: j, reason });
        }
    }
    run.token.poison_with(cause);
    false
}

/// The one record of worker `t` panicking on chunk `j`, in any stage: a
/// [`FaultEvent::WorkerPanicked`], the torn mark unless the chunk is
/// `pristine` (part of its writes may have landed, so neither retry,
/// salvage nor a cancel's resume may re-run it), and the
/// [`PoisonCause::Panicked`] the caller poisons the token with.
pub(crate) fn chunk_panicked(
    run: &FtRun,
    t: u64,
    j: u64,
    pristine: bool,
    payload: Box<dyn std::any::Any + Send>,
) -> PoisonCause {
    let message = panic_message(payload.as_ref());
    run.record(FaultEvent::WorkerPanicked {
        thread: t,
        chunk: j,
        message: message.clone(),
    });
    if !pristine {
        run.salvage_unsound.store(true, Ordering::Release);
    }
    PoisonCause::Panicked {
        thread: t,
        chunk: j,
        message,
    }
}

/// Reserve a worker buffer's capacity growth `needed` from the run's
/// memory budget. A refusal cancels the run with [`CancelKind::Budget`]
/// and poisons `run` instead of allocating on: `false` means drain.
pub(crate) fn reserve_growth(cfg: &RunConfig, run: &FtRun, needed: u64, what: &str) -> bool {
    let refused = !cfg.budget.try_reserve(needed);
    if refused {
        let limit = cfg.budget.limit().unwrap_or(0);
        let reason = format!("{what} exceeds the memory budget");
        cfg.cancel
            .cancel_with(CancelKind::Budget { needed, limit }, &reason);
        poison_cancelled(run, &cfg.cancel);
    }
    !refused
}

/// The one call of [`RealKernel::journal_capture`], under its contract;
/// `Err` carries the payload of a capture that panicked.
unsafe fn capture<K: RealKernel>(k: &K, r: Range<u64>, buf: &mut Vec<u8>) -> thread::Result<bool> {
    // SAFETY: forwarded under the caller's guarantee.
    catch_unwind(AssertUnwindSafe(|| unsafe { k.journal_capture(r, buf) }))
}

/// The one call of [`RealKernel::journal_rollback`], under its contract;
/// `Err` carries the payload of a restore that panicked.
pub(crate) unsafe fn restore<K: RealKernel + ?Sized>(
    k: &K,
    r: Range<u64>,
    bytes: &[u8],
) -> thread::Result<()> {
    // SAFETY: forwarded under the caller's guarantee.
    catch_unwind(AssertUnwindSafe(|| unsafe { k.journal_rollback(r, bytes) }))
}

/// Whether a chunk captures its undo journal before its body, in every
/// stage: when a recovery path could want it re-executed (retry or
/// salvage), or online verification needs a pre-image to replay from.
pub(crate) fn captures(cfg: &RunConfig) -> bool {
    cfg.tolerance.retry.is_some() || cfg.tolerance.salvage || cfg.verify.armed()
}

/// A chunk transaction's first step, in every stage: capture `range`'s
/// undo journal into `buf`, count its time and bytes, and reserve the
/// buffer's capacity growth (capture allocates whether or not it
/// succeeds). `Ok(false)`: unjournalable. `Err(Some(payload))`: the
/// capture panicked, leaving the chunk pristine (capture only reads).
/// `Err(None)`: the budget refused, and the run is cancelled.
///
/// # Safety
///
/// The caller holds chunk `range` exclusively.
pub(crate) unsafe fn journal_chunk<K: RealKernel>(
    kernel: &K,
    cfg: &RunConfig,
    run: &FtRun,
    range: Range<u64>,
    buf: &mut Vec<u8>,
    stats: &mut ThreadStats,
) -> Result<bool, Option<Box<dyn std::any::Any + Send>>> {
    let (t0, cap0) = (Instant::now(), buf.capacity());
    // SAFETY: the caller's exclusivity.
    let captured = unsafe { capture(kernel, range, buf) }.map_err(Some)?;
    let grown = buf.capacity().saturating_sub(cap0) as u64;
    if !reserve_growth(cfg, run, grown, "undo-journal capture") {
        return Err(None);
    }
    if captured {
        stats.journal_ns += t0.elapsed().as_nanos();
        stats.journal_bytes += buf.len() as u64;
    }
    Ok(captured)
}

/// Roll chunk `j` back to `jbuf`, its journal of `range`, counting
/// `rollbacks`, `journal_ns` and a [`FaultEvent::ChunkRolledBack`]. A
/// restore that panics tears the chunk: worker `t`'s panic on `j` poisons
/// the stage ([`chunk_panicked`]), and the result is `false`.
///
/// # Safety
///
/// The caller still holds chunk `j` exclusively — in a cascaded stage,
/// its claim, so the restore happens-before any survivor's re-execution
/// claim — and `jbuf` is the unmodified capture of `range`.
pub(crate) unsafe fn roll_back_chunk<K: RealKernel>(
    kernel: &K,
    run: &FtRun,
    t: u64,
    j: u64,
    range: Range<u64>,
    jbuf: &[u8],
    stats: &mut ThreadStats,
) -> bool {
    let t0 = Instant::now();
    // SAFETY: forwarded under the caller's guarantee.
    let restored = unsafe { restore(kernel, range, jbuf) };
    stats.journal_ns += t0.elapsed().as_nanos();
    if let Err(payload) = restored {
        run.token
            .poison_with(chunk_panicked(run, t, j, false, payload));
        return false;
    }
    stats.rollbacks += 1;
    run.record(FaultEvent::ChunkRolledBack {
        thread: t,
        chunk: j,
        bytes: jbuf.len() as u64,
    });
    true
}

/// Worker `t`'s share of a cascaded stage. `buf` (the pack arena) and
/// `jbuf` (the undo-journal buffer) are the worker's for the whole run:
/// refilled chunk after chunk, they amortize to a steady state, and their
/// metered capacity growth is the peak they pin.
#[allow(clippy::too_many_arguments)] // a stage share is parameterized by all of these
fn ft_worker<K: RealKernel>(
    kernel: &K,
    cfg: &RunConfig,
    plan: &ChunkPlan,
    run: &FtRun,
    rec: &Recovery,
    t: u64,
    buf: &mut Vec<u8>,
    jbuf: &mut Vec<u8>,
) -> ThreadStats {
    let (cancel, policy) = (&cfg.cancel, cfg.runner.policy);
    // The recorder's transitions replace ad-hoc `Instant` pairs: one
    // timestamp both closes the outgoing phase and opens the incoming
    // one, so the per-phase totals tile this worker's wall time exactly.
    let mut phases = PhaseRecorder::new(run.origin, &cfg.observe);
    run.roster.sync_with(&rec.health);
    let mut view = run.roster.view(t);
    let hand = run.token.handoff();
    let mut stats = ThreadStats::default();
    let m = plan.num_chunks();
    let mut cursor = 0u64;
    loop {
        if rec.health.is_quarantined(t) {
            return phases.finish(stats);
        }
        if cancel.is_cancelled() && hand.completed.load(Ordering::Acquire) < m {
            // Cancelled with work still outstanding: drain leader-ward.
            // (When every chunk already committed the run is complete —
            // exactly one terminal outcome, so no poison.)
            poison_cancelled(run, cancel);
            return phases.finish(stats);
        }
        // The token position is the lowest unexecuted chunk: never look
        // for work below it.
        match run.token.position() {
            None => return phases.finish(stats), // poisoned: the supervisor handles recovery
            Some(p) => cursor = cursor.max(p),
        }
        run.roster.refresh(&mut view, t);
        let epoch = view.epoch;
        let Some(j) = view.next_owned(cursor) else {
            return phases.finish(stats); // not on the roster (quarantined before this loop)
        };
        if j >= m {
            // Drained: no chunk of ours remains. With retry enabled, leave
            // the roster *before* exiting — otherwise a later remap could
            // hand a faulted worker's chunks to a worker that has already
            // returned, orphaning them (the model checker found exactly
            // this lost-chunk schedule). Anchoring at the token's current
            // position is safe: everything below it has executed.
            if rec.enabled() {
                if let Some(p) = run.token.position() {
                    let _ = run.roster.remove(t, p);
                }
            }
            return phases.finish(stats);
        }
        let range = plan.range(j);
        let range_len = range.end - range.start;

        // --- helper phase (with jump-out at poll_batch granularity) ---
        phases.transition(PhaseKind::Helper, Some(j));
        if let Some(v) = &run.verify {
            // Audit first: the deferred packets other workers executed,
            // beside the executions the window let past them.
            if !v.helper_audits(run, t, j, &mut stats) {
                return phases.finish(stats);
            }
        }
        let buf_cap0 = buf.capacity();
        let helper = catch_unwind(AssertUnwindSafe(|| {
            helper_phase(kernel, cfg, run, rec, plan, t, j, epoch, &range, buf)
        }));
        let helper = match helper {
            Ok(out) => out,
            Err(payload) => {
                // Helpers never touch loop-written state, so the chunk body
                // is untouched (pristine); both retry and salvage stay
                // sound. Either way (recovered in-cascade or poisoned) this
                // worker is done.
                phases.transition(PhaseKind::Retry, Some(j));
                recover_from_panic(run, rec, t, j, false, true, payload);
                return phases.finish(stats);
            }
        };
        // Meter the pack arena's capacity growth.
        let buf_growth = buf.capacity().saturating_sub(buf_cap0) as u64;
        if !reserve_growth(cfg, run, buf_growth, "helper pack-arena growth") {
            return phases.finish(stats);
        }
        stats.helper_iters += helper.helped_iters;
        stats.horizon_stalls += helper.horizon_stalls;
        if helper.jumped_out {
            stats.jump_outs += 1;
        }
        if helper.packed_iters > 0 {
            stats.packed_bytes += buf.len() as u64;
        }
        if matches!(policy, RtPolicy::Prefetch) {
            stats.prefetched_bytes += helper.helped_iters * kernel.prefetch_bytes_per_iter();
        }
        if helper.helped_iters >= range_len && !matches!(policy, RtPolicy::None) {
            stats.helper_complete += 1;
        }

        // --- wait for the token and claim the chunk ---
        phases.transition(PhaseKind::Spin, Some(j));
        let claim = wait_to_claim(run, rec, cfg, t, j, epoch);
        // A won claim goes straight to Execute, with no clock read between
        // the claim and the body, unless the verify window is settled
        // first: that time stays in Other.
        let audit = run.verify.is_some() && j > 0;
        let next = match claim {
            ChunkClaim::Claimed if !audit => PhaseKind::Execute,
            _ => PhaseKind::Other,
        };
        let (claim_ns, _) = phases.transition(next, Some(j));
        match claim {
            ChunkClaim::Claimed => {}
            ChunkClaim::Superseded | ChunkClaim::Remapped => continue,
            ChunkClaim::Halted => return phases.finish(stats),
        }
        if cancel.is_cancelled() {
            // We hold the claim but the body never started: the chunk is
            // pristine, and poisoning the token discards the claim, so
            // `j` stays the first uncommitted chunk.
            poison_cancelled(run, cancel);
            return phases.finish(stats);
        }
        // Handoff latency: the previous executor stamped the grant of `j`
        // before the advance our claim CAS read from, so (Release/Acquire
        // through the token) the stamp is visible and the pairing exact.
        // Chunk 0's grant predates the run: no stamp, no sample.
        if hand.release_chunk.load(Ordering::Acquire) == j {
            let rel = hand.release_ns.load(Ordering::Relaxed);
            stats.takeover.record(claim_ns.saturating_sub(rel));
        }

        // --- settle the verify window (claim held) ---
        // Every committed chunk this one depends on is audited before it
        // executes: while we hold the claim no other execute runs, so
        // corruption is caught before a handoff passes its bytes on,
        // never after the run. With `VerifyPolicy::Off` this is one
        // branch.
        let mut settled = None;
        if let Some(v) = &run.verify {
            let Some(s) = v.settle(run, t, j, &mut stats) else {
                return phases.finish(stats);
            };
            // Deferred durable checkpoint: with verification armed, the
            // prefix through chunk j - 1 becomes persistable only once
            // every chunk in it is audited (or repaired), so only with
            // the window empty, as a due checkpoint's settle leaves it
            // (publication repeated after a retry is a no-op).
            if s.verified {
                // SAFETY: we hold the claim — no executor is active
                // anywhere — every chunk below `j` is committed, and with
                // the window empty no audit is running.
                unsafe { publish_ckpt(kernel, cfg, plan, j, range.start, &mut stats) };
            }
            if audit {
                phases.transition(PhaseKind::Execute, Some(j));
            }
            settled = Some(s);
        }

        // --- execution phase (we hold the claim: unique executor) ---
        // Chunk transaction: when the run `captures`, take the chunk's
        // undo journal — the analyzer-bounded write-set bytes — before the
        // body runs. The timing rides inside the Execute phase as a side
        // counter (`journal_ns`), so the exact phase partition is
        // untouched.
        let journaled = if captures(cfg) {
            // SAFETY: we hold the claim — the same exclusivity contract
            // as `execute` — and capture only reads.
            match unsafe { journal_chunk(kernel, cfg, run, range.clone(), jbuf, &mut stats) } {
                // The packet's pre-image slots are reserved before the
                // body runs: a refusal, too, leaves the chunk pristine.
                Ok(true)
                    if run
                        .verify
                        .as_ref()
                        .is_some_and(|v| !v.reserve(run, jbuf.len() as u64)) =>
                {
                    return phases.finish(stats)
                }
                Ok(captured) => captured,
                // Refused: the body has not started, so the run drains
                // with the chunk pristine and uncommitted.
                Err(None) => return phases.finish(stats),
                Err(Some(payload)) => {
                    // Capture only reads, so the chunk body never started:
                    // the chunk is pristine and the full ladder applies.
                    phases.transition(PhaseKind::Retry, Some(j));
                    recover_from_panic(run, rec, t, j, true, true, payload);
                    return phases.finish(stats);
                }
            }
        } else {
            false
        };
        let exec = catch_unwind(AssertUnwindSafe(|| {
            let packed_end = range.start + helper.packed_iters;
            // SAFETY: we won the claim CAS for chunk j: the protocol
            // serializes all execute calls and claim/advance form
            // Release/Acquire edges making prior chunks' writes visible.
            unsafe {
                if helper.packed_iters > 0 {
                    kernel.execute_packed(range.start..packed_end, buf);
                    if packed_end < range.end {
                        kernel.execute(packed_end..range.end);
                    }
                } else {
                    kernel.execute(range.clone());
                }
            }
        }));
        if let Err(payload) = exec {
            phases.transition(PhaseKind::Retry, Some(j));
            // Roll the journal back *before* any recovery hand-back.
            let pristine = if journaled {
                // SAFETY: claim still held; `jbuf` is the unmodified
                // capture of this same range.
                unsafe { roll_back_chunk(kernel, run, t, j, range, jbuf, &mut stats) }
            } else {
                kernel.panics_before_mutation()
            };
            recover_from_panic(run, rec, t, j, true, pristine, payload);
            return phases.finish(stats);
        }
        let (exec_end_ns, exec_ns) = phases.transition(PhaseKind::Other, Some(j));
        // Cancellation may have raced the chunk body. We still hold the
        // claim, so abort-must-be-unobservable can hold: roll the journal
        // back (the chunk reverts to uncommitted, bitwise, and is not
        // counted) or, when unjournalable, commit the finished chunk and
        // move the resume point past it — never leave a half-observed
        // state. The rollback happens *before* the poison drains the
        // claim (the model checker's seeded unclaim-before-cancel-rollback
        // bug shows why the order matters); a restore that panics tears
        // the chunk, and the supervisor reports the tear, not a cancel.
        let cancelled = cancel.is_cancelled();
        if cancelled && journaled {
            // SAFETY: claim still held; `jbuf` is the unmodified capture
            // of this same range.
            unsafe { roll_back_chunk(kernel, run, t, j, range.clone(), jbuf, &mut stats) };
        } else {
            stats.chunk_exec.record(exec_ns);
            stats.chunks += 1;
            rec.health.heartbeat(t);
            // Only the claim holder writes `completed`, and claims follow
            // the token, so the value only grows: a plain store, not a
            // locked read-modify-write on the line the next claimant spins
            // on.
            hand.completed.store(j + 1, Ordering::Release);
        }
        if cancelled {
            poison_cancelled(run, cancel);
            return phases.finish(stats);
        }
        // Retry attributions are only ever inserted by the armed ladder.
        if rec.enabled() {
            if let Some(from) = lock_recover(&run.retry_from).remove(&j) {
                if from != t {
                    run.record(FaultEvent::ChunkRetried {
                        chunk: j,
                        from_thread: from,
                        by_thread: t,
                    });
                }
            }
        }

        // --- durable checkpoint (claim still held) ---
        // Under an armed VerifyPolicy publication is deferred to the
        // downstream claimant (the end-of-loop leader, for the final
        // chunk): this chunk enters the checkpoint only after its handoff
        // is verified, so a kill landing between commit and verification
        // can never persist bytes that verification would have rejected.
        if run.verify.is_none() {
            // SAFETY: we hold the claim — the same exclusivity contract
            // as `execute` — and chunks `0..=j` are committed.
            unsafe { publish_ckpt(kernel, cfg, plan, j + 1, range.end, &mut stats) };
        }

        // --- checksummed handoff (claim still held) ---
        // Publish the verification packet into the window before the
        // advance: the downstream claimant's Acquire through its claim CAS
        // sees the packet before chunk j + 1 can execute. `jbuf` itself
        // stays here, so its metered capacity is reused by the next
        // capture. With `VerifyPolicy::Off` this is one branch.
        let digested = match (&run.verify, settled) {
            (Some(v), Some(s)) if journaled => {
                v.publish(t, j, s, jbuf, &mut stats);
                true
            }
            _ => false,
        };

        if j + 1 < m {
            // Stamp the grant of j + 1 *before* publishing it via the
            // advance, so the claimant's latency sample pairs with this
            // release (the final advance grants no one: not a handoff).
            // The stamp is the execute-end boundary, unless armed commit
            // work (the digest, a checkpoint publish) ran since then.
            let stamp_ns = if digested || (cfg.ckpt_sink.is_some() && run.verify.is_none()) {
                Instant::now().duration_since(run.origin).as_nanos() as u64
            } else {
                exec_end_ns
            };
            hand.release_ns.store(stamp_ns, Ordering::Relaxed);
            hand.release_chunk.store(j + 1, Ordering::Release);
        }
        if !run.token.try_advance(j) {
            // Poisoned while we executed (the watchdog declared us dead).
            // The chunk still completed exactly once — record and drain.
            run.record(FaultEvent::LateCompletion {
                thread: t,
                chunk: j,
            });
            return phases.finish(stats);
        }
        if j + 1 < m {
            stats.handoffs += 1;
        }
        cursor = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyKernel};
    use crate::govern::MemBudget;
    use std::cell::UnsafeCell;

    /// prefix-sum-style kernel: order-sensitive across the whole loop.
    struct Chain {
        data: UnsafeCell<Vec<f64>>,
    }
    // SAFETY: `data` is only mutated inside `execute`, serialized by the
    // runner's token protocol.
    unsafe impl Sync for Chain {}
    impl Chain {
        fn new(n: usize) -> Self {
            Chain {
                data: UnsafeCell::new((0..n).map(|i| (i % 97) as f64 * 0.25 + 0.1).collect()),
            }
        }
        fn into_data(self) -> Vec<f64> {
            self.data.into_inner()
        }
    }
    impl RealKernel for Chain {
        fn iters(&self) -> u64 {
            // SAFETY: read of the length; no concurrent mutation outside
            // execute, which does not change the length.
            unsafe { (*self.data.get()).len() as u64 - 1 }
        }
        unsafe fn execute(&self, range: Range<u64>) {
            // SAFETY: exclusive per the trait contract.
            let d = unsafe { &mut *self.data.get() };
            for i in range {
                let i = i as usize;
                // Loop-carried dependence: unparallelizable by design.
                d[i + 1] = (d[i + 1] * 0.5 + d[i] * 0.75).sin() + d[i + 1];
            }
        }
    }

    fn seq_result(n: usize) -> Vec<f64> {
        let k = Chain::new(n);
        // SAFETY: single-threaded.
        unsafe { k.execute(0..k.iters()) };
        k.into_data()
    }

    #[test]
    fn cascaded_matches_sequential_bitwise() {
        let n = 20_000;
        let expected = seq_result(n);
        for threads in [1usize, 2, 3, 4] {
            let k = Chain::new(n);
            let cfg = RunnerConfig {
                nthreads: threads,
                iters_per_chunk: 700,
                policy: RtPolicy::None,
                poll_batch: 16,
            };
            let stats = try_run_governed(&k, &RunConfig::from(cfg.clone())).unwrap();
            assert_eq!(stats.chunks, (n as u64 - 1).div_ceil(700));
            assert!(!stats.degraded);
            assert!(stats.faults.is_empty());
            let got = k.into_data();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    /// `acc(i + 1) = g(acc(i), a(i))` with the read-only `a(i)` packable.
    /// It implements only `pack_iter` (for iterations below `cap`), so the
    /// runner's batches reach it through the trait's default `pack_range`.
    struct PackChain {
        a: Vec<f64>,
        acc: UnsafeCell<Vec<f64>>,
        cap: u64,
        /// Iterations `pack_iter` accepted.
        packed: AtomicU64,
        /// One past the highest iteration `execute_packed` was handed.
        consumed_to: AtomicU64,
    }
    // SAFETY: `acc` is only mutated inside `execute*`, serialized by the
    // runner's token protocol; everything else is read-only or atomic.
    unsafe impl Sync for PackChain {}
    impl PackChain {
        fn new(n: usize, cap: u64) -> Self {
            PackChain {
                a: (0..n).map(|i| (i % 89) as f64 * 0.125 - 3.0).collect(),
                acc: UnsafeCell::new(vec![0.25; n + 1]),
                cap,
                packed: AtomicU64::new(0),
                consumed_to: AtomicU64::new(0),
            }
        }
        /// # Safety: exclusive per the trait contract.
        unsafe fn step(&self, i: u64, a: f64) {
            let acc = unsafe { &mut *self.acc.get() };
            acc[i as usize + 1] = (acc[i as usize] * 0.5 + a).sin();
        }
        /// Chunk 0 waits until chunk 1's helper has packed all of chunk 1
        /// that is below `cap`, so what the helper reaches is forced, not
        /// left to timing.
        fn await_helper(&self, range: &Range<u64>) {
            let want = self.cap.min(2 * range.end).saturating_sub(range.end);
            while range.start == 0 && self.packed.load(Ordering::SeqCst) < want {
                std::thread::yield_now();
            }
        }
    }
    impl RealKernel for PackChain {
        fn iters(&self) -> u64 {
            self.a.len() as u64
        }
        unsafe fn execute(&self, range: Range<u64>) {
            self.await_helper(&range);
            for i in range {
                // SAFETY: forwarded contract.
                unsafe { self.step(i, self.a[i as usize]) };
            }
        }
        fn pack_iter(&self, i: u64, buf: &mut Vec<u8>) -> bool {
            if i >= self.cap {
                return false;
            }
            buf.extend_from_slice(&self.a[i as usize].to_le_bytes());
            self.packed.fetch_add(1, Ordering::SeqCst);
            true
        }
        unsafe fn execute_packed(&self, range: Range<u64>, buf: &[u8]) {
            self.await_helper(&range);
            assert_eq!(buf.len() as u64, 8 * (range.end - range.start));
            self.consumed_to.fetch_max(range.end, Ordering::SeqCst);
            for (i, a) in range.zip(buf.chunks_exact(8)) {
                // SAFETY: forwarded contract.
                unsafe { self.step(i, f64::from_le_bytes(a.try_into().unwrap())) };
            }
        }
    }

    #[test]
    fn iter_only_packers_restructure_through_the_default_pack_range() {
        let (n, ipc) = (4096usize, 256u64);
        let expected = {
            let k = PackChain::new(n, 0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
            k.acc.into_inner()
        };
        // Packs everything / cannot pack from mid-chunk 1 on / never packs.
        for cap in [u64::MAX, ipc + 40, 0] {
            let k = PackChain::new(n, cap);
            let stats = try_run_governed(
                &k,
                &RunConfig::from(RunnerConfig {
                    nthreads: 2,
                    iters_per_chunk: ipc,
                    policy: RtPolicy::Restructure,
                    poll_batch: 16,
                }),
            )
            .unwrap();
            let packed_bytes: u64 = stats.threads.iter().map(|t| t.packed_bytes).sum();
            let consumed_to = k.consumed_to.load(Ordering::SeqCst);
            if cap == u64::MAX {
                assert!(packed_bytes >= 8 * ipc, "chunk 1 was packed whole");
                assert!(consumed_to >= 2 * ipc);
            } else {
                // A chunk the kernel cannot pack to its end degrades to
                // nothing packed: the 40 iterations it did accept are
                // discarded, never handed to `execute_packed`.
                assert_eq!(k.packed.load(Ordering::SeqCst), cap.saturating_sub(ipc));
                assert_eq!((packed_bytes, consumed_to), (0, 0), "cap {cap}");
            }
            assert_eq!(k.acc.into_inner(), expected, "cap {cap}");
        }
    }

    #[test]
    fn all_chunks_execute_exactly_once() {
        let n = 10_000;
        let k = Chain::new(n);
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 512,
            policy: RtPolicy::Prefetch,
            poll_batch: 32,
        };
        let stats = try_run_governed(&k, &RunConfig::from(cfg)).unwrap();
        let total: u64 = stats.threads.iter().map(|t| t.chunks).sum();
        assert_eq!(total, stats.chunks);
        assert_eq!(stats.iters, n as u64 - 1);
    }

    /// A roster with an arbitrary live set and anchor.
    fn roster_of(live: Vec<u64>, base: u64) -> Roster {
        Roster {
            epoch: AtomicU64::new(0),
            synced: AtomicBool::new(true),
            inner: Mutex::new(RosterInner { live, base }),
        }
    }

    #[test]
    fn roster_snapshot_agrees_with_the_locked_computation() {
        // Every live subset of four workers, every anchor and start point:
        // the closed form, the locked roster and a snapshot all return the
        // first chunk the round-robin hands worker `t`.
        for mask in 1u64..16 {
            let live: Vec<u64> = (0..4).filter(|w| mask & (1 << w) != 0).collect();
            for base in 0..8 {
                let roster = roster_of(live.clone(), base);
                for t in 0..4 {
                    let view = roster.view(t);
                    for from in 0..32 {
                        let brute = (from.max(base)..from.max(base) + 8)
                            .find(|&c| live[((c - base) % live.len() as u64) as usize] == t);
                        assert_eq!(
                            roster.next_owned(t, from),
                            brute,
                            "{live:?} b{base} t{t} f{from}"
                        );
                        assert_eq!(
                            view.next_owned(from),
                            brute,
                            "{live:?} b{base} t{t} f{from}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn roster_snapshot_is_refreshed_once_the_epoch_moves() {
        let roster = Roster::new(3);
        let mut view = roster.view(2);
        assert_eq!(view.next_owned(4), Some(5));
        assert!(matches!(roster.remove(1, 4), RemoveOutcome::Removed));
        // Stale until refreshed: the old round-robin still answers.
        assert_eq!(view.next_owned(4), Some(5));
        roster.refresh(&mut view, 2);
        assert_eq!(view.epoch, roster.epoch());
        assert_eq!(view.next_owned(4), roster.next_owned(2, 4));
        assert_eq!(view.next_owned(4), Some(5), "live [0, 2] anchored at 4");
        assert_eq!(view.next_owned(6), Some(7));
        let mut gone = roster.view(0);
        gone.epoch = u64::MAX;
        roster.refresh(&mut gone, 1);
        assert_eq!(gone.next_owned(0), None, "a removed worker owns nothing");
    }

    #[test]
    fn single_thread_cascade_degenerates_to_sequential_result() {
        let n = 5_000;
        let expected = seq_result(n);
        let k = Chain::new(n);
        let stats = try_run_governed(
            &k,
            &RunConfig::from(RunnerConfig {
                nthreads: 1,
                iters_per_chunk: 100,
                policy: RtPolicy::None,
                poll_batch: 1,
            }),
        )
        .unwrap();
        assert_eq!(stats.threads.len(), 1);
        assert_eq!(k.into_data(), expected);
    }

    #[test]
    fn oversized_chunk_yields_one_chunk() {
        let k = Chain::new(100);
        let stats = try_run_governed(
            &k,
            &RunConfig::from(RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 1_000_000,
                policy: RtPolicy::None,
                poll_batch: 1,
            }),
        )
        .unwrap();
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.threads[0].chunks + stats.threads[1].chunks, 1);
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let k = Chain::new(1); // iters() == 0
        match try_run_governed(&k, &RunConfig::from(RunnerConfig::default())) {
            Err(RunError::InvalidConfig(msg)) => assert_eq!(msg, "empty kernel"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn try_run_reports_invalid_config_instead_of_panicking() {
        let k = Chain::new(100);
        for bad in [
            RunnerConfig {
                nthreads: 0,
                ..RunnerConfig::default()
            },
            RunnerConfig {
                iters_per_chunk: 0,
                ..RunnerConfig::default()
            },
            RunnerConfig {
                poll_batch: 0,
                ..RunnerConfig::default()
            },
        ] {
            match try_run_governed(&k, &RunConfig::from(bad.clone())) {
                Err(RunError::InvalidConfig(_)) => {}
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_panic_is_salvaged_bitwise() {
        let n = 6_000;
        let expected = seq_result(n);
        for threads in [1usize, 2, 3] {
            let plan = FaultPlan::new(100).inject(7, FaultKind::Panic);
            let k = FaultyKernel::new(Chain::new(n), plan);
            let cfg = RunnerConfig {
                nthreads: threads,
                iters_per_chunk: 100,
                policy: RtPolicy::None,
                poll_batch: 4,
            };
            let stats = try_run_governed(
                &k,
                &RunConfig {
                    runner: cfg.clone(),
                    tolerance: Tolerance::resilient(Duration::from_millis(50)),
                    ..Default::default()
                },
            )
            .expect("salvage must recover");
            assert!(stats.degraded, "threads={threads}");
            assert!(
                stats
                    .faults
                    .iter()
                    .any(|f| matches!(f, FaultEvent::WorkerPanicked { chunk: 7, .. })),
                "missing panic event: {:?}",
                stats.faults
            );
            assert!(stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::Salvaged { from_chunk: 7, .. })));
            assert_eq!(k.into_inner().into_data(), expected, "threads={threads}");
        }
    }

    #[test]
    fn mid_body_panic_refuses_salvage() {
        // Chain makes no fail-stop promise, so a panic that may have
        // landed partial writes must yield an error, not a wrong answer.
        struct Exploding(Chain);
        // SAFETY: same serialization argument as Chain.
        unsafe impl Sync for Exploding {}
        impl RealKernel for Exploding {
            fn iters(&self) -> u64 {
                self.0.iters()
            }
            unsafe fn execute(&self, range: Range<u64>) {
                if range.contains(&500) {
                    panic!("exploded mid-body");
                }
                // SAFETY: forwarded contract.
                unsafe { self.0.execute(range) }
            }
        }
        let k = Exploding(Chain::new(4_000));
        let cfg = RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        match try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::resilient(Duration::from_millis(50)),
                ..Default::default()
            },
        ) {
            Err(RunError::WorkerPanicked { chunk: 5, .. }) => {}
            other => panic!("expected WorkerPanicked on chunk 5, got {other:?}"),
        }
    }

    #[test]
    fn stall_is_declared_and_salvaged_bitwise() {
        let n = 4_000;
        let expected = seq_result(n);
        let plan = FaultPlan::new(100).inject(6, FaultKind::Stall(Duration::from_millis(120)));
        let k = FaultyKernel::new(Chain::new(n), plan);
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let window = Duration::from_millis(20);
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::resilient(window),
                ..Default::default()
            },
        )
        .expect("stall must salvage");
        assert!(stats.degraded);
        // A stall is declared only after a whole window without token
        // movement, measured from the waiter's first look at the token.
        assert!(
            stats.faults.iter().any(|f| matches!(
                f,
                FaultEvent::StallDeclared { chunk: 6, waited } if *waited >= window
            )),
            "missing stall event (or declared inside the window): {:?}",
            stats.faults
        );
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::LateCompletion { chunk: 6, .. })),
            "the stalled worker still completes its chunk: {:?}",
            stats.faults
        );
        assert_eq!(k.into_inner().into_data(), expected);
    }

    /// `y(i + 1) = f(y(i), x(i))` over `n` iterations: a carried read one
    /// iteration back, so the analyzer gives its helpers a horizon of 1.
    fn recurrence_program(n: u64) -> crate::SpecProgram {
        use cascade_trace::{
            AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
        };
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
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![LoopSpec {
                name: "recurrence".into(),
                iters: n,
                refs,
                compute: 2.0,
                hoistable_compute: 0.0,
                hoist_result_bytes: 0,
            }],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..n {
            arena.set_f64(&w.space, x, i, (i % 17) as f64 * 0.25 - 1.0);
        }
        arena.set_f64(&w.space, y, 0, 0.75);
        crate::SpecProgram::new(w, arena).unwrap()
    }

    /// A helper that has caught up with its kernel's horizon waits for the
    /// token like a claimant does, so a stalled executor ahead of it is
    /// declared stalled. Two workers: while worker 0 sleeps through chunk
    /// 4, worker 1's helper for chunk 5 waits at the horizon (one
    /// iteration into chunk 4) and is the only waiter. The declared chunk
    /// is not pinned: a host that takes a worker's core for a whole window
    /// can make a healthy chunk the first one declared, through the same
    /// wait.
    #[test]
    fn horizon_gated_helper_declares_a_stalled_executor() {
        const N: u64 = 4096;
        const CHUNK: u64 = 256;
        let window = Duration::from_millis(25);
        let expected = {
            let mut prog = recurrence_program(N);
            // SAFETY: single-threaded.
            unsafe { prog.kernel(0).execute(0..N) };
            prog.checksum()
        };
        for policy in [RtPolicy::Prefetch, RtPolicy::Restructure] {
            for tolerance in [
                Tolerance {
                    watchdog: Some(window),
                    ..Tolerance::fail_fast()
                },
                Tolerance::resilient(window),
            ] {
                let mut prog = recurrence_program(N);
                let stall = FaultKind::Stall(Duration::from_millis(80));
                let k = FaultyKernel::new(prog.kernel(0), FaultPlan::new(CHUNK).inject(4, stall));
                assert_eq!(k.helper_horizon(), Some(1));
                let cfg = RunConfig {
                    runner: RunnerConfig {
                        nthreads: 2,
                        iters_per_chunk: CHUNK,
                        policy,
                        poll_batch: 8,
                    },
                    tolerance: tolerance.clone(),
                    ..RunConfig::default()
                };
                let result = try_run_governed(&k, &cfg);
                drop(k);
                if !tolerance.salvage {
                    assert!(
                        matches!(result, Err(RunError::Stalled { waited, .. }) if waited >= window),
                        "{policy:?}: expected a declared stall, got {result:?}"
                    );
                    continue;
                }
                let stats = result.expect("a stall is salvaged");
                assert!(stats.degraded, "{policy:?}: the run waited the stall out");
                assert!(
                    stats
                        .faults
                        .iter()
                        .any(|f| matches!(f, FaultEvent::StallDeclared { .. })),
                    "{policy:?}: missing stall event: {:?}",
                    stats.faults
                );
                assert_eq!(
                    prog.checksum(),
                    expected,
                    "{policy:?}: salvage is not bitwise"
                );
            }
        }
    }

    #[test]
    fn slowdown_below_watchdog_window_stays_clean() {
        let n = 4_000;
        let expected = seq_result(n);
        let plan = FaultPlan::new(200).inject(3, FaultKind::Slowdown(Duration::from_millis(2)));
        let k = FaultyKernel::new(Chain::new(n), plan);
        let cfg = RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 200,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::resilient(Duration::from_millis(500)),
                ..Default::default()
            },
        )
        .expect("a slowdown is not a fault");
        assert!(!stats.degraded);
        assert!(stats.faults.is_empty());
        assert_eq!(k.into_inner().into_data(), expected);
    }

    #[test]
    fn panic_without_salvage_is_a_typed_error() {
        let plan = FaultPlan::new(100).inject(4, FaultKind::Panic);
        let k = FaultyKernel::new(Chain::new(3_000), plan);
        let cfg = RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        match try_run_governed(&k, &RunConfig::from(cfg)) {
            Err(RunError::WorkerPanicked {
                thread: 0,
                chunk: 4,
            }) => {}
            other => panic!("expected WorkerPanicked thread 0 chunk 4, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_recovers_in_cascade_bitwise() {
        let n = 6_000;
        let expected = seq_result(n);
        let plan = FaultPlan::new(100).inject(7, FaultKind::Panic);
        let k = FaultyKernel::new(Chain::new(n), plan);
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::retrying(Duration::from_millis(50)),
                ..Default::default()
            },
        )
        .expect("retry must recover");
        assert!(
            !stats.degraded,
            "retry must stay cascaded, not salvage: {:?}",
            stats.faults
        );
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.quarantined, 1);
        // Chunk 7 belongs to thread 1 under the initial round-robin.
        assert!(
            stats.faults.iter().any(|f| matches!(
                f,
                FaultEvent::WorkerQuarantined {
                    thread: 1,
                    chunk: 7
                }
            )),
            "missing quarantine event: {:?}",
            stats.faults
        );
        assert!(
            stats.faults.iter().any(|f| matches!(
                f,
                FaultEvent::ChunkRetried {
                    chunk: 7,
                    from_thread: 1,
                    ..
                }
            )),
            "missing retry event: {:?}",
            stats.faults
        );
        assert!(
            !stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::Salvaged { .. })),
            "in-cascade recovery must not fall through to salvage"
        );
        assert_eq!(k.into_inner().into_data(), expected);
    }

    #[test]
    fn exhausted_retry_budget_falls_through_to_salvage() {
        let n = 5_000;
        let expected = seq_result(n);
        let plan = FaultPlan::new(100).inject(6, FaultKind::Panic);
        let k = FaultyKernel::new(Chain::new(n), plan);
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let tol = Tolerance {
            watchdog: Some(Duration::from_millis(50)),
            retry: Some(RetryPolicy {
                budget: 0,
                ..RetryPolicy::default()
            }),
            salvage: true,
        };
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: tol,
                ..Default::default()
            },
        )
        .expect("salvage must still recover");
        assert!(stats.degraded, "a dry budget must fall through");
        assert_eq!(stats.retries, 0);
        assert!(
            stats.faults.iter().any(|f| matches!(
                f,
                FaultEvent::RetryAbandoned {
                    chunk: 6,
                    reason: RetryAbandon::BudgetExhausted,
                }
            )),
            "the fall-through must be recorded: {:?}",
            stats.faults
        );
        assert_eq!(k.into_inner().into_data(), expected);
    }

    #[test]
    fn single_worker_panic_has_no_survivors_to_retry_on() {
        let n = 3_000;
        let expected = seq_result(n);
        let plan = FaultPlan::new(100).inject(4, FaultKind::Panic);
        let k = FaultyKernel::new(Chain::new(n), plan);
        let cfg = RunnerConfig {
            nthreads: 1,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::retrying(Duration::from_millis(50)),
                ..Default::default()
            },
        )
        .expect("salvage must recover");
        assert!(stats.degraded);
        assert!(
            stats.faults.iter().any(|f| matches!(
                f,
                FaultEvent::RetryAbandoned {
                    reason: RetryAbandon::NoSurvivors,
                    ..
                }
            )),
            "missing NoSurvivors fall-through: {:?}",
            stats.faults
        );
        assert_eq!(k.into_inner().into_data(), expected);
    }

    #[test]
    fn non_fail_stop_kernel_is_never_retried() {
        // Chain makes no fail-stop promise: a mid-body panic may have
        // landed partial writes, so neither retry nor salvage may re-run
        // the chunk — the run must end in a typed error.
        struct Exploding(Chain);
        // SAFETY: same serialization argument as Chain.
        unsafe impl Sync for Exploding {}
        impl RealKernel for Exploding {
            fn iters(&self) -> u64 {
                self.0.iters()
            }
            unsafe fn execute(&self, range: Range<u64>) {
                if range.contains(&500) {
                    panic!("exploded mid-body");
                }
                // SAFETY: forwarded contract.
                unsafe { self.0.execute(range) }
            }
        }
        let k = Exploding(Chain::new(4_000));
        let cfg = RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        match try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::retrying(Duration::from_millis(50)),
                ..Default::default()
            },
        ) {
            Err(RunError::WorkerPanicked { chunk: 5, .. }) => {}
            other => panic!("expected WorkerPanicked on chunk 5, got {other:?}"),
        }
    }

    #[test]
    fn stalled_claim_holder_is_never_retried() {
        // The stall fires *after* the claim CAS, so the wedged worker may
        // still write to its chunk: recovery must strike it, abandon the
        // retry as ExecutorStuck, and fall through to salvage.
        let n = 4_000;
        let expected = seq_result(n);
        let plan = FaultPlan::new(100).inject(6, FaultKind::Stall(Duration::from_millis(200)));
        let k = FaultyKernel::new(Chain::new(n), plan);
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let tol = Tolerance {
            watchdog: Some(Duration::from_millis(10)),
            retry: Some(RetryPolicy {
                budget: 4,
                backoff: Duration::from_millis(5),
                strike_limit: 2,
            }),
            salvage: true,
        };
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: tol,
                ..Default::default()
            },
        )
        .expect("stall must salvage");
        assert!(stats.degraded);
        assert_eq!(stats.retries, 0, "a claimed chunk must never be retried");
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::StallStrike { chunk: 6, .. })),
            "missing strike events: {:?}",
            stats.faults
        );
        assert!(
            stats.faults.iter().any(|f| matches!(
                f,
                FaultEvent::RetryAbandoned {
                    chunk: 6,
                    reason: RetryAbandon::ExecutorStuck,
                }
            )),
            "missing ExecutorStuck fall-through: {:?}",
            stats.faults
        );
        assert_eq!(k.into_inner().into_data(), expected);
    }

    #[test]
    fn sequence_quarantine_persists_across_loops() {
        let n = 5_000;
        let expected = seq_result(n);
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        // Loop 0 panics on chunk 4 (thread 1); loops 1 and 2 are clean.
        let kernels: Vec<FaultyKernel<Chain>> = (0..3)
            .map(|l| {
                let plan = if l == 0 {
                    FaultPlan::new(100).inject(4, FaultKind::Panic)
                } else {
                    FaultPlan::new(100)
                };
                FaultyKernel::new(Chain::new(n), plan)
            })
            .collect();
        let all = try_run_governed_sequence(
            &kernels,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::retrying(Duration::from_millis(50)),
                ..Default::default()
            },
        )
        .expect("the sequence must recover in-cascade");
        assert_eq!(all.len(), 3);
        for (l, stats) in all.iter().enumerate() {
            assert!(!stats.degraded, "loop {l} must stay cascaded");
        }
        assert_eq!(all[0].retries, 1);
        assert_eq!(all[0].quarantined, 1);
        // Thread 1 (owner of chunk 4) stays quarantined in later loops:
        // it executes no chunks there, and no new faults appear.
        for (l, stats) in all.iter().enumerate().skip(1) {
            assert!(stats.faults.is_empty(), "loop {l}: {:?}", stats.faults);
            assert_eq!(
                stats.threads[1].chunks, 0,
                "quarantined worker executed chunks in loop {l}"
            );
        }
        for (l, k) in kernels.into_iter().enumerate() {
            assert_eq!(k.into_inner().into_data(), expected, "loop {l}");
        }
    }

    #[test]
    fn unjournalable_mid_mutation_panic_keeps_the_fail_stop_gate() {
        // Chain neither promises fail-stop panics nor bounds its
        // write-set (default `journal_capture` returns false), so a
        // mid-mutation panic leaves the chunk torn: both retry and
        // salvage must refuse and surface the typed error.
        for tol in [
            Tolerance::retrying(Duration::from_millis(50)),
            Tolerance::resilient(Duration::from_millis(50)),
        ] {
            let plan =
                FaultPlan::new(100).inject(5, FaultKind::PanicMidMutation { after_iters: 30 });
            let k = FaultyKernel::new(Chain::new(4_000), plan);
            let cfg = RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 100,
                policy: RtPolicy::None,
                poll_batch: 4,
            };
            match try_run_governed(
                &k,
                &RunConfig {
                    runner: cfg.clone(),
                    tolerance: tol.clone(),
                    ..Default::default()
                },
            ) {
                Err(RunError::WorkerPanicked { chunk: 5, .. }) => {}
                other => panic!("expected WorkerPanicked on chunk 5, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_leader_stamp_is_a_typed_error_not_a_panic() {
        // The seam behind RunError::LeaderLost: a healthy-looking loop
        // whose leader never wrote its stamps must surface as None (the
        // caller maps it to the typed error), not panic the supervisor.
        let start = Mutex::new(Some(Instant::now()));
        let end = Mutex::new(None);
        assert!(loop_stamps(&start, &end).is_none());
        assert!(loop_stamps(&end, &start).is_none());
        let both = Mutex::new(Some(Instant::now()));
        assert!(loop_stamps(&start, &both).is_some());
        let msg = RunError::LeaderLost { loop_idx: 3 }.to_string();
        assert!(msg.contains("loop 3"), "{msg}");
    }

    #[test]
    fn leader_death_mid_sequence_is_a_typed_error_not_a_panic() {
        // Fail-fast tolerance, panic in loop 0 of a 3-loop sequence: the
        // workers break out before the end-of-loop barrier ever stamps
        // loop 0's end (and never reach loops 1–2 at all). The supervisor
        // must return the worker's typed error — a regression that reads
        // the missing stamps used to panic the supervisor itself.
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let kernels: Vec<FaultyKernel<Chain>> = (0..3)
            .map(|l| {
                let plan = if l == 0 {
                    FaultPlan::new(100).inject(2, FaultKind::Panic)
                } else {
                    FaultPlan::new(100)
                };
                FaultyKernel::new(Chain::new(2_000), plan)
            })
            .collect();
        match try_run_governed_sequence(&kernels, &RunConfig::from(cfg)) {
            Err(RunError::WorkerPanicked { chunk: 2, .. }) => {}
            other => panic!("expected WorkerPanicked on chunk 2, got {other:?}"),
        }
    }

    #[test]
    fn retrying_tolerance_is_inert_without_faults() {
        let n = 8_000;
        let expected = seq_result(n);
        let k = Chain::new(n);
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 200,
            policy: RtPolicy::Restructure,
            poll_batch: 16,
        };
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::retrying(Duration::from_secs(5)),
                ..Default::default()
            },
        )
        .expect("fault-free run");
        assert!(!stats.degraded);
        assert!(stats.faults.is_empty());
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(k.into_data(), expected);
    }

    /// Chain with an undo journal: capture copies the chunk's write-set
    /// (`d[i + 1]` for `i` in the range) so a mid-body interruption can
    /// be rolled back bitwise.
    struct JChain(Chain);
    impl RealKernel for JChain {
        fn iters(&self) -> u64 {
            self.0.iters()
        }
        unsafe fn execute(&self, range: Range<u64>) {
            // SAFETY: forwarded contract.
            unsafe { self.0.execute(range) }
        }
        unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
            // SAFETY: capture holds the claim; reads are exclusive.
            let d = unsafe { &*self.0.data.get() };
            buf.clear();
            for i in range {
                buf.extend_from_slice(&d[i as usize + 1].to_le_bytes());
            }
            true
        }
        unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
            // SAFETY: rollback holds the claim; writes are exclusive.
            let d = unsafe { &mut *self.0.data.get() };
            for (k, i) in range.enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&buf[k * 8..k * 8 + 8]);
                d[i as usize + 1] = f64::from_le_bytes(b);
            }
        }
    }

    /// Fires the run's cancel token when execution reaches `at_iter`, so
    /// governance tests land the cancel inside a known chunk
    /// deterministically.
    struct CancelAt<K> {
        inner: K,
        at_iter: u64,
        cancel: CancelToken,
    }
    impl<K: RealKernel> RealKernel for CancelAt<K> {
        fn iters(&self) -> u64 {
            self.inner.iters()
        }
        unsafe fn execute(&self, range: Range<u64>) {
            if range.contains(&self.at_iter) {
                self.cancel.cancel("cancelled at a known iteration");
            }
            // SAFETY: forwarded contract.
            unsafe { self.inner.execute(range) }
        }
        unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
            // SAFETY: forwarded contract.
            unsafe { self.inner.journal_capture(range, buf) }
        }
        unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
            // SAFETY: forwarded contract.
            unsafe { self.inner.journal_rollback(range, buf) }
        }
        fn panics_before_mutation(&self) -> bool {
            self.inner.panics_before_mutation()
        }
    }

    #[test]
    fn cancel_mid_run_commits_a_clean_prefix_and_resumes_bitwise() {
        let n = 20_000;
        let expected = seq_result(n);
        let cancel = CancelToken::new();
        let k = CancelAt {
            inner: Chain::new(n),
            at_iter: 3_000,
            cancel: cancel.clone(),
        };
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 3,
                iters_per_chunk: 500,
                policy: RtPolicy::None,
                poll_batch: 8,
            },
            cancel,
            ..RunConfig::default()
        };
        let committed = match try_run_governed(&k, &cfg) {
            Err(RunError::Cancelled {
                committed_iters,
                reason,
            }) => {
                assert!(reason.contains("known iteration"), "{reason}");
                committed_iters
            }
            other => panic!("expected Cancelled, got {other:?}"),
        };
        // Chain is unjournalable, so the in-flight chunk (the one holding
        // iteration 3000) completed whole; nothing past it was touched.
        assert_eq!(committed, 3_500, "the cancelled chunk commits whole");
        // SAFETY: the run drained before returning; single-threaded resume.
        unsafe { k.inner.execute(committed..k.inner.iters()) };
        assert_eq!(k.inner.into_data(), expected);
    }

    #[test]
    fn cancel_rolls_back_the_in_flight_journaled_chunk() {
        let n = 20_000;
        let expected = seq_result(n);
        let cancel = CancelToken::new();
        let k = CancelAt {
            inner: JChain(Chain::new(n)),
            at_iter: 3_000,
            cancel: cancel.clone(),
        };
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 500,
                policy: RtPolicy::None,
                poll_batch: 8,
            },
            // Salvage tolerance turns journaling on.
            tolerance: Tolerance::resilient(Duration::from_secs(5)),
            cancel,
            ..RunConfig::default()
        };
        let committed = match try_run_governed(&k, &cfg) {
            Err(RunError::Cancelled {
                committed_iters, ..
            }) => committed_iters,
            other => panic!("expected Cancelled, got {other:?}"),
        };
        // The in-flight chunk was journaled: it rolled back instead of
        // committing, so the resume point is its own first iteration.
        assert_eq!(committed, 3_000, "journaled in-flight chunk rolls back");
        // SAFETY: the run drained before returning; single-threaded resume.
        unsafe { k.inner.0.execute(committed..k.inner.iters()) };
        assert_eq!(k.inner.0.into_data(), expected);
    }

    #[test]
    fn deadline_cancels_and_the_error_carries_the_resume_point() {
        struct SlowChain(Chain);
        impl RealKernel for SlowChain {
            fn iters(&self) -> u64 {
                self.0.iters()
            }
            unsafe fn execute(&self, range: Range<u64>) {
                std::thread::sleep(Duration::from_millis(2));
                // SAFETY: forwarded contract.
                unsafe { self.0.execute(range) }
            }
        }
        let n = 2_001; // 20 chunks, ~2 ms each: far slower than the deadline
        let expected = seq_result(n);
        let k = SlowChain(Chain::new(n));
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 100,
                policy: RtPolicy::None,
                poll_batch: 4,
            },
            deadline: Some(Duration::from_millis(8)),
            ..RunConfig::default()
        };
        match try_run_governed(&k, &cfg) {
            Err(RunError::DeadlineExceeded {
                deadline,
                committed_iters,
            }) => {
                assert_eq!(deadline, Duration::from_millis(8));
                assert_eq!(committed_iters % 100, 0, "resume at a chunk boundary");
                assert!(committed_iters < k.iters());
                // SAFETY: the run drained; single-threaded resume.
                unsafe { k.0.execute(committed_iters..k.0.iters()) };
                assert_eq!(k.0.into_data(), expected);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_refusal_is_typed_and_leaves_a_clean_prefix() {
        let n = 20_000;
        let expected = seq_result(n);
        let k = JChain(Chain::new(n));
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 500,
                policy: RtPolicy::None,
                poll_batch: 8,
            },
            // Salvage tolerance turns journaling on; one 500-iteration
            // journal needs 4000 B, far over the limit.
            tolerance: Tolerance::resilient(Duration::from_secs(5)),
            budget: MemBudget::limited(1024),
            ..RunConfig::default()
        };
        match try_run_governed(&k, &cfg) {
            Err(RunError::BudgetExceeded {
                needed,
                limit,
                committed_iters,
            }) => {
                assert_eq!(limit, 1024);
                assert!(needed > 1024, "refused reservation was {needed} B");
                // SAFETY: the run drained; single-threaded resume.
                unsafe { k.0.execute(committed_iters..k.iters()) };
                assert_eq!(k.0.into_data(), expected);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn governed_run_rejects_watchdog_longer_than_deadline() {
        let k = Chain::new(1_000);
        let cfg = RunConfig {
            tolerance: Tolerance::resilient(Duration::from_secs(10)),
            deadline: Some(Duration::from_millis(100)),
            ..RunConfig::default()
        };
        match try_run_governed(&k, &cfg) {
            Err(RunError::InvalidConfig(msg)) => assert!(msg.contains("watchdog"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn too_late_cancellation_leaves_a_completed_run() {
        let n = 2_000;
        let expected = seq_result(n);
        let cancel = CancelToken::new();
        let k = Chain::new(n);
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 100,
                policy: RtPolicy::None,
                poll_batch: 4,
            },
            cancel: cancel.clone(),
            ..RunConfig::default()
        };
        let stats = try_run_governed(&k, &cfg).expect("uncancelled run completes");
        assert!(!stats.degraded);
        // Exactly one terminal outcome: a cancel arriving after completion
        // changes nothing about the already-returned result.
        cancel.cancel("after the fact");
        assert_eq!(k.into_data(), expected);
    }

    #[test]
    fn journaled_mid_mutation_panic_rolls_back_then_salvages_in_order() {
        let n = 4_000;
        let expected = seq_result(n);
        let plan = FaultPlan::new(100).inject(5, FaultKind::PanicMidMutation { after_iters: 30 });
        let k = FaultyKernel::new(JChain(Chain::new(n)), plan);
        let cfg = RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 100,
            policy: RtPolicy::None,
            poll_batch: 4,
        };
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::resilient(Duration::from_millis(50)),
                ..Default::default()
            },
        )
        .expect("journaled chunk must salvage");
        assert!(stats.degraded, "salvage marks the run degraded");
        let pos = |pred: &dyn Fn(&FaultEvent) -> bool| {
            stats
                .faults
                .iter()
                .position(pred)
                .unwrap_or_else(|| panic!("missing event in {:?}", stats.faults))
        };
        let rb = pos(&|f| matches!(f, FaultEvent::ChunkRolledBack { chunk: 5, .. }));
        let wp = pos(&|f| matches!(f, FaultEvent::WorkerPanicked { chunk: 5, .. }));
        let sv = pos(&|f| matches!(f, FaultEvent::Salvaged { from_chunk: 5, .. }));
        assert!(
            rb < wp && wp < sv,
            "rollback precedes the panic record, salvage last: {:?}",
            stats.faults
        );
        assert_eq!(k.into_inner().0.into_data(), expected);
    }

    #[test]
    fn cancel_during_sequential_salvage_reports_an_exact_resume_point() {
        let n = 4_001; // 40 chunks of 100 iterations
        let expected = seq_result(n);
        let cancel = CancelToken::new();
        // Fail-stop panic on chunk 2 sends the run to sequential salvage;
        // the cancel fires only when salvage reaches iteration 1550
        // (chunk 15) — the cascade never gets that far.
        let plan = FaultPlan::new(100).inject(2, FaultKind::Panic);
        let k = CancelAt {
            inner: FaultyKernel::new(Chain::new(n), plan),
            at_iter: 1_550,
            cancel: cancel.clone(),
        };
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 100,
                policy: RtPolicy::None,
                poll_batch: 4,
            },
            tolerance: Tolerance::resilient(Duration::from_millis(50)),
            cancel,
            ..RunConfig::default()
        };
        match try_run_governed(&k, &cfg) {
            Err(RunError::Cancelled {
                committed_iters, ..
            }) => {
                // Salvage runs chunk at a time: the chunk holding
                // iteration 1550 completes (the cancel fires inside its
                // execute) and the next pre-chunk check stops the loop.
                assert_eq!(committed_iters, 1_600);
                let chain = k.inner.into_inner();
                // SAFETY: salvage stopped; single-threaded resume.
                unsafe { chain.execute(committed_iters..chain.iters()) };
                assert_eq!(chain.into_data(), expected);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn sequence_cancellation_reports_a_global_resume_point() {
        // Three loops of 2000 iterations; the cancel fires inside loop 1
        // at iteration 550.
        let cancel = CancelToken::new();
        let kernels: Vec<CancelAt<Chain>> = (0..3)
            .map(|l| CancelAt {
                inner: Chain::new(2_001),
                at_iter: if l == 1 { 550 } else { u64::MAX },
                cancel: cancel.clone(),
            })
            .collect();
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 100,
                policy: RtPolicy::None,
                poll_batch: 4,
            },
            cancel,
            ..RunConfig::default()
        };
        match try_run_governed_sequence(&kernels, &cfg) {
            Err(RunError::Cancelled {
                committed_iters, ..
            }) => {
                // Global resume point: all of loop 0 (2000 iters) plus
                // loop 1 through the chunk holding iteration 550.
                assert_eq!(committed_iters, 2_000 + 600);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }
}
