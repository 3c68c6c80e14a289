//! The cascade runner: real threads rotating execution of one sequential
//! loop, exactly as in Figure 1(b) of the paper.
//!
//! There is one engine, [`try_run_governed_sequence`]: a persistent pool
//! runs a sequence of loops back to back, and a single loop
//! ([`try_run_governed`]) is the sequence of one.
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
//! * with a watchdog window set, waiters use bounded token waits and
//!   declare a stall — poisoning the token with [`PoisonCause::Stalled`] —
//!   when the token does not move for a whole window;
//! * token hand-off is a compare-and-swap ([`Token::try_release`]), so a
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
//!    quarantines itself in the [`HealthRegistry`], removes itself from
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
//! back itself before draining.
//!
//! The protocol state machine (token values, claims, poison, retry
//! hand-backs, journal/rollback ordering) is modeled and exhaustively
//! explored in [`crate::check`].

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cascade_core::{
    fnv64_words, CascadeMetrics, ChunkPlan, MetricsSource, PhaseKind, PhaseSample, WorkerMetrics,
    FNV64_BASIS,
};

use crate::barrier::{BarrierOutcome, FtBarrier};
use crate::ckpt::CkptPolicy;
use crate::govern::{CancelKind, CancelState, CancelToken, Governor, RunConfig};
use crate::health::{HealthConfig, HealthRegistry, StrikeVerdict};
use crate::kernel::RealKernel;
use crate::metrics::{NsStats, PhaseEventNs, PhaseRecorder};
use crate::token::{lock_recover, PoisonCause, Token, TokenView, EXEC_BIT, POISONED};

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
    /// Progress-watchdog window: when set, a waiter that sees no token
    /// movement at all for a whole window declares a stall and poisons the
    /// token. `None` (the default) waits unboundedly, like the original
    /// runtime. Note the watchdog is waiter-driven: a single-thread
    /// cascade has no waiters and therefore no stall detection (it cannot
    /// deadlock on the token either — it always holds it).
    pub watchdog: Option<Duration>,
    /// In-cascade recovery: re-execute a faulted chunk on a healthy
    /// worker, quarantining the failed thread and remapping its chunks
    /// across survivors so the run finishes cascaded instead of
    /// `degraded`. Sound only when the interrupted chunk is pristine:
    /// the kernel promises fail-stop panics
    /// ([`RealKernel::panics_before_mutation`]) or its undo journal was
    /// rolled back ([`RealKernel::journal_capture`]) — gated per fault.
    /// `None` (the default) climbs straight to salvage/error, exactly
    /// PR 1 behavior.
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
            } => match (thread, chunk) {
                (Some(t), Some(c)) => write!(
                    f,
                    "silent corruption detected in chunk {c} (blamed on worker {t}); \
                     rolled back, clean through iteration {committed_iters}"
                ),
                _ => write!(
                    f,
                    "silent corruption detected outside every chunk's write footprint; \
                     committed prefix of {committed_iters} iterations is clean"
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
    pub(crate) fn rebased(mut self, prior: u64) -> RunError {
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
    /// Helper poll batches that stalled waiting for the dependence
    /// horizon to grow (horizon-gated kernels only).
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
    /// Committed predecessor chunks this worker verified (digest check
    /// or full journaled replay, per [`crate::govern::VerifyPolicy`]).
    pub verified_chunks: u64,
    /// Nanoseconds spent publishing verification packets (executor side)
    /// and verifying committed chunks (claimant side). Like `journal_ns`
    /// and `ckpt_ns`, a side counter riding inside the Execute/Other
    /// phases — the exact phase partition
    /// `helper + spin + exec + retry + other == wall` is untouched.
    pub verify_ns: u128,
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

pub(crate) fn validate(cfg: &RunnerConfig) -> Result<(), RunError> {
    if cfg.nthreads < 1 {
        return Err(RunError::InvalidConfig("need at least one thread".into()));
    }
    if cfg.iters_per_chunk < 1 {
        return Err(RunError::InvalidConfig("chunks must be non-empty".into()));
    }
    if cfg.poll_batch < 1 {
        return Err(RunError::InvalidConfig(
            "poll batch must be positive".into(),
        ));
    }
    Ok(())
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
        } => RunError::Corrupted {
            thread: *thread,
            chunk: *chunk,
            committed_iters: *resume_at,
        },
        // Unreachable for tokens this module creates, but kept total.
        PoisonCause::Unspecified => RunError::WorkerPanicked {
            thread: 0,
            chunk: 0,
        },
    }
}

/// Drain the run leader-ward with a `Cancelled` poison cause: called by
/// the first worker (or waiter) that acts on the cancel flag. Stamps the
/// cancel latency; the poison itself is first-cause-wins, so a cancel
/// racing a real fault never masks it.
fn poison_cancelled(run: &FtRun, cancel: &CancelToken) {
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
pub(crate) fn cancel_error(cancel: &CancelToken, committed_iters: u64) -> RunError {
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

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of removing a worker from the [`Roster`].
enum RemoveOutcome {
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
/// Reads take the mutex but are cheap (one modulo over a tiny vec) and
/// happen once per chunk, not per poll. Every remap bumps `epoch`;
/// workers re-check the epoch while waiting and recompute their ownership
/// when it moves. A worker acting on a stale epoch is benign: execution
/// rights come from the token claim CAS, never from the roster.
struct Roster {
    epoch: AtomicU64,
    synced: AtomicBool,
    inner: Mutex<RosterInner>,
}

struct RosterInner {
    live: Vec<u64>,
    base: u64,
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

    /// The smallest chunk `>= from` owned by worker `t`, or `None` when
    /// `t` is not on the roster.
    fn next_owned(&self, t: u64, from: u64) -> Option<u64> {
        let inner = lock_recover(&self.inner);
        let idx = inner.live.iter().position(|&x| x == t)? as u64;
        let l = inner.live.len() as u64;
        let start = from.max(inner.base);
        let first = inner.base + idx;
        if start <= first {
            return Some(first);
        }
        let k = (start - first).div_ceil(l);
        Some(first + k * l)
    }

    /// Remove worker `t`, re-anchoring the round-robin at `anchor` (the
    /// token's current chunk) so every unexecuted chunk is remapped across
    /// the survivors.
    fn remove(&self, t: u64, anchor: u64) -> RemoveOutcome {
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
struct Recovery {
    health: HealthRegistry,
    /// Remaining chunk re-executions (see [`RetryPolicy::budget`]).
    budget: AtomicU64,
    policy: Option<RetryPolicy>,
}

impl Recovery {
    fn new(nthreads: usize, tol: &Tolerance) -> Self {
        let health_cfg = match &tol.retry {
            Some(r) => HealthConfig {
                strike_limit: r.strike_limit,
                base_backoff: r.backoff,
            },
            None => HealthConfig::default(),
        };
        Recovery {
            health: HealthRegistry::new(nthreads, health_cfg),
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

/// Shared fault-handling state of one cascaded loop run.
struct FtRun {
    token: Token,
    /// `fetch_max(j + 1)` after chunk `j`'s body: chunks `0..completed`
    /// executed exactly once. Token serialization completes chunks in
    /// order, so this is the exact salvage resume point.
    completed: AtomicU64,
    faults: Mutex<Vec<FaultEvent>>,
    /// Set when a chunk body was interrupted mid-flight by a kernel that
    /// makes no fail-stop promise — re-running it could double-apply
    /// writes, so salvage must be refused.
    salvage_unsound: AtomicBool,
    /// Chunk ownership map (static round-robin until a quarantine remaps
    /// it).
    roster: Roster,
    /// Failed chunk → failed thread: retry attribution, consumed by
    /// whichever worker eventually executes the chunk.
    retry_from: Mutex<HashMap<u64, u64>>,
    /// The worker that last won a claim; stall attribution for a stuck
    /// executor. Racy by design (claim CAS and this store are two steps),
    /// and only ever used to pick a strike suspect.
    claimant: AtomicU64,
    /// Time zero of the run: every recorder timestamp and handoff stamp
    /// is an offset from here.
    origin: Instant,
    /// Handoff stamp: when the grant of `release_chunk` was published
    /// (ns since `origin`). Written by the releaser *before* its
    /// `try_advance`; the next claimant reads it after winning the claim
    /// CAS, so the Release/Acquire edge through the token orders the
    /// pair and the latency sample is exact.
    release_ns: AtomicU64,
    /// Which chunk `release_ns` stamps (`u64::MAX` = none yet: chunk 0's
    /// grant predates the run, so it produces no handoff sample and a
    /// fault-free cascade records exactly `chunks - 1` handoffs).
    release_chunk: AtomicU64,
    /// The full verification packet of the most recently committed chunk
    /// (digest + pre-image journal for replay). Published by the
    /// executor before its `try_advance`; taken by the downstream
    /// claimant (or, for the final chunk, the end-of-loop leader).
    verify_slot: Mutex<Option<VerifyPacket>>,
    /// Arena scrubs performed against this run's kernel (baseline +
    /// compare); surfaced as [`RunStats::scrubs`].
    scrubs: AtomicU64,
    /// Arena-scrub baseline: a digest over the bytes *outside* this
    /// loop's whole write footprint, taken in a quiescent window before
    /// the loop starts ([`FtRun::take_scrub_base`]). Drift against the
    /// end-of-loop scrub brackets an out-of-footprint corruption no
    /// chunk-level verification can attribute.
    scrub_base: Mutex<Option<u64>>,
    /// The leader's stamps at the loop's start and end barriers: the two
    /// ends of a healthy loop's [`RunStats::elapsed`].
    started: Mutex<Option<Instant>>,
    ended: Mutex<Option<Instant>>,
}

/// Everything a verifier needs to re-check one committed chunk: the
/// executor's advertised digest and the pre-image journal that seeds the
/// replay overlay ([`RealKernel::replay_footprint`]).
struct VerifyPacket {
    /// The committed chunk this packet describes.
    chunk: u64,
    /// Its iteration range.
    range: Range<u64>,
    /// The worker that executed and committed it (blame target).
    executor: u64,
    /// [`footprint_digest`] of the committed write-footprint bytes,
    /// captured by the executor after the chunk body ran, while it still
    /// held the claim.
    digest: u64,
    /// The undo journal captured *before* the chunk ran: seeds the
    /// replay's private overlay, and doubles as the rollback image when
    /// a confirmed corruption has no recovery path. `None` when the
    /// chunk was not journaled (replay degrades to digest comparison).
    pre_image: Option<Vec<u8>>,
}

impl FtRun {
    fn new(nthreads: usize) -> Self {
        FtRun {
            token: Token::default(),
            completed: AtomicU64::new(0),
            faults: Mutex::new(Vec::new()),
            salvage_unsound: AtomicBool::new(false),
            roster: Roster::new(nthreads),
            retry_from: Mutex::new(HashMap::new()),
            claimant: AtomicU64::new(0),
            origin: Instant::now(),
            release_ns: AtomicU64::new(0),
            release_chunk: AtomicU64::new(u64::MAX),
            verify_slot: Mutex::new(None),
            scrubs: AtomicU64::new(0),
            scrub_base: Mutex::new(None),
            started: Mutex::new(None),
            ended: Mutex::new(None),
        }
    }

    /// Take this loop's arena-scrub baseline. Other loops of a sequence
    /// legitimately mutate bytes outside *this* loop's footprints, so the
    /// baseline cannot be taken until every earlier loop has finished:
    /// the first loop's before any worker spawns, each later loop's in
    /// the end-of-loop leader window of its predecessor.
    ///
    /// # Safety
    ///
    /// No execute may overlap the call (the caller has quiescence).
    unsafe fn take_scrub_base<K: RealKernel>(&self, kernel: &K) {
        // SAFETY: forwarded under the caller's quiescence guarantee.
        let d = unsafe { kernel.scrub_digest() };
        if d.is_some() {
            self.scrubs.fetch_add(1, Ordering::Relaxed);
        }
        *lock_recover(&self.scrub_base) = d;
    }

    fn record(&self, ev: FaultEvent) {
        lock_recover(&self.faults).push(ev);
    }

    fn take_faults(&self) -> Vec<FaultEvent> {
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
/// loop. Loops are separated by a poisonable barrier ([`FtBarrier`]) — the
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
    cfg.try_validate()?;
    if kernels.len() > 1 && cfg.ckpt != CkptPolicy::Off {
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
    validate(&cfg.runner)?;
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
    let runs: Vec<FtRun> = kernels.iter().map(|_| FtRun::new(nthreads)).collect();
    // One recovery state for the whole sequence: a worker quarantined in
    // loop l stays out of every later loop's roster, and the retry budget
    // is shared.
    let rec = Recovery::new(nthreads, &cfg.tolerance);
    let barrier = FtBarrier::new(nthreads);
    if cfg.verify.armed() {
        // SAFETY: no worker spawned yet; trivially quiescent.
        unsafe { runs[0].take_scrub_base(&kernels[0]) };
    }

    // per_thread[t][l] = stats of thread t on loop l (may stop short when
    // a fault drained the pool).
    let per_thread: Vec<Vec<ThreadStats>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nthreads as u64)
            .map(|t| {
                let (plans, runs, rec, barrier) = (&plans, &runs, &rec, &barrier);
                s.spawn(move || {
                    let mut all = Vec::with_capacity(kernels.len());
                    for (l, kernel) in kernels.iter().enumerate() {
                        match barrier.wait() {
                            BarrierOutcome::Poisoned => break,
                            BarrierOutcome::Leader => {
                                *lock_recover(&runs[l].started) = Some(Instant::now());
                            }
                            BarrierOutcome::Follower => {}
                        }
                        // A quarantined worker executes nothing (ft_worker
                        // drains immediately) but keeps pacing the
                        // barriers, so the surviving cascade stays in
                        // lockstep.
                        let mut stats = ft_worker(kernel, cfg, &plans[l], &runs[l], rec, t);
                        let mut poisoned = runs[l].token.poison_cause().is_some();
                        if !poisoned {
                            match barrier.wait() {
                                BarrierOutcome::Poisoned => {
                                    all.push(stats);
                                    break;
                                }
                                BarrierOutcome::Leader => {
                                    *lock_recover(&runs[l].ended) = Some(Instant::now());
                                    if cfg.verify.armed() {
                                        // SAFETY: every other worker is parked at
                                        // the next loop's start barrier (or
                                        // exiting after the last loop), so the
                                        // leader has quiescence.
                                        poisoned = !unsafe {
                                            audit_loop(
                                                kernels, cfg, plans, runs, rec, l, &mut stats,
                                            )
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
                            if let Some(cause) = runs[l].token.poison_cause() {
                                for later in &runs[l + 1..] {
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
            scrubs: runs[l].scrubs.load(Ordering::Relaxed),
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
            runs.iter()
                .zip(&plans)
                .all(|(r, p)| r.token.current() == p.num_chunks()),
            "every token must end one past its loop's last chunk"
        );
        return (0..kernels.len()).map(healthy_stats).collect();
    };

    // --- degraded path ---
    let cause = runs[l0]
        .token
        .poison_cause()
        .expect("position found a cause");
    // Global sequential resume point: every iteration of loops before `l`
    // plus the committed prefix within `l` — the first iteration of its
    // first uncommitted chunk (completion is in token order).
    let iters_before = |l: usize| -> u64 { kernels[..l].iter().map(|k| k.iters()).sum() };
    let committed_global = |l: usize, done: u64| -> u64 {
        let within = if done < plans[l].num_chunks() {
            plans[l].range(done).start
        } else {
            kernels[l].iters()
        };
        iters_before(l) + within
    };
    let torn = runs
        .iter()
        .any(|r| r.salvage_unsound.load(Ordering::Acquire));

    // --- cancelled path: drained clean, never salvaged ---
    if matches!(cause, PoisonCause::Cancelled { .. }) {
        if torn {
            // The in-flight chunk tore while the run drained: the resume
            // guarantee is broken, report the tear instead.
            let all: Vec<FaultEvent> = runs.iter().flat_map(|r| r.take_faults()).collect();
            return Err(torn_fallback(&all));
        }
        let done = runs[l0].completed.load(Ordering::Acquire);
        return Err(cancel_error(&cfg.cancel, committed_global(l0, done)));
    }

    // --- a worker panicked, the cascade stalled, or corruption ---
    let err = run_error_from(&cause).rebased(iters_before(l0));
    // Corruption is never salvaged: the chunk was rolled back to its
    // pre-image (or the drift lies outside every footprint), and the typed
    // error already carries the exact clean resume point — re-executing
    // from `completed` could run on top of the rollback and double-apply
    // writes. `salvage_unsound` is only ever set for a *torn* chunk:
    // interrupted mid-body with neither a fail-stop promise nor a
    // rolled-back undo journal. Journaled chunks were restored bitwise by
    // their faulting worker before it drained, so salvage re-executes
    // pristine state.
    if matches!(cause, PoisonCause::Corrupted { .. }) || !cfg.tolerance.salvage || torn {
        return Err(err);
    }
    let mut out: Vec<RunStats> = (0..l0).map(healthy_stats).collect::<Result<_, _>>()?;
    // Finish loop l0 from its last completed chunk, then run every later
    // loop start-to-end, all sequentially on this thread. Every worker has
    // joined, so exclusivity and happens-before hold.
    for l in l0..kernels.len() {
        let mut faults = runs[l].take_faults();
        let m = plans[l].num_chunks();
        let iters = kernels[l].iters();
        let mut done = runs[l].completed.load(Ordering::Acquire);
        let began = (*lock_recover(&runs[l].started)).unwrap_or_else(Instant::now);
        if done < m {
            let salvage_from = done;
            let resume = plans[l].range(salvage_from).start;
            // Chunk at a time so a cancellation arriving mid-salvage
            // still stops at an exact chunk boundary with an accurate
            // (global) resume point.
            while done < m {
                if cfg.cancel.is_cancelled() {
                    cfg.cancel.note_observed();
                    return Err(cancel_error(&cfg.cancel, committed_global(l, done)));
                }
                let r = plans[l].range(done);
                // SAFETY: all workers joined; single-threaded remainder.
                let salvage = catch_unwind(AssertUnwindSafe(|| unsafe { kernels[l].execute(r) }));
                if salvage.is_err() {
                    // The kernel fails even sequentially: report the
                    // original fault.
                    return Err(err);
                }
                done += 1;
            }
            faults.push(FaultEvent::Salvaged {
                from_chunk: salvage_from,
                iters: iters - resume,
            });
        }
        out.push(stats_for(l, began.elapsed(), true, faults));
    }
    Ok(out)
}

/// The end-of-loop leader's window on loop `l`, under armed verification:
/// verify the loop's final chunk (it has no downstream claimant), compare
/// the arena scrub with the loop's baseline, publish the final deferred
/// checkpoint installment (workers only publish through their own claims,
/// which stop one chunk short of the end; the whole loop is verified and
/// scrubbed only now), and take the next loop's scrub baseline — every
/// earlier loop's writes are in and the next loop's have not begun, the
/// only sound moment for it. Still before the run returns, so detection
/// stays online. Returns `false` when corruption poisoned the loop.
///
/// # Safety
///
/// The caller has quiescence on every kernel of the sequence: loop `l`
/// completed and no worker has started loop `l + 1`.
unsafe fn audit_loop<K: RealKernel>(
    kernels: &[K],
    cfg: &RunConfig,
    plans: &[ChunkPlan],
    runs: &[FtRun],
    rec: &Recovery,
    l: usize,
    stats: &mut ThreadStats,
) -> bool {
    let (kernel, plan, run) = (&kernels[l], &plans[l], &runs[l]);
    if let Some(p) = lock_recover(&run.verify_slot).take() {
        if p.chunk + 1 == plan.num_chunks()
            && verify_committed(kernel, run, rec, cfg, p.executor, p) == VerifyVerdict::Failed
        {
            return false;
        }
    }
    if let Some(base) = *lock_recover(&run.scrub_base) {
        // SAFETY: quiescent (caller's guarantee).
        if let Some(now_d) = unsafe { kernel.scrub_digest() } {
            run.scrubs.fetch_add(1, Ordering::Relaxed);
            if now_d != base {
                run.record(FaultEvent::CorruptionDetected {
                    chunk: u64::MAX,
                    expected: base,
                    found: now_d,
                    repaired: false,
                });
                run.token.poison_with(PoisonCause::Corrupted {
                    thread: None,
                    chunk: None,
                    resume_at: kernel.iters(),
                });
                return false;
            }
        }
    }
    // SAFETY: quiescent, and every chunk of the loop is committed.
    unsafe { publish_ckpt(kernel, cfg, plan, plan.num_chunks(), kernel.iters(), stats) };
    if let Some(next) = runs.get(l + 1) {
        // SAFETY: quiescent (caller's guarantee).
        unsafe { next.take_scrub_base(&kernels[l + 1]) };
    }
    true
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
            cfg.ckpt,
            chunks,
            iters,
            |c| plan.range(c).start,
            // SAFETY: the caller's exclusivity, and capture only reads.
            |r, buf| unsafe { kernel.journal_capture(r, buf) },
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

/// Should the helper for chunk `j` stop and go claim? True when the token
/// has reached (or passed) `j`, is poisoned, the run was cancelled, or
/// the roster was remapped — in the last case `j` may no longer be ours
/// to help for.
#[inline]
fn helper_jump_out(run: &FtRun, cancel: &CancelToken, j: u64, epoch: u64) -> bool {
    let raw = run.token.raw();
    raw == POISONED
        || Token::chunk_index(raw) >= j
        || run.roster.epoch() != epoch
        || cancel.is_cancelled()
}

/// What one helper phase accomplished.
#[derive(Debug, Default, Clone, Copy)]
struct HelperOut {
    /// Iterations packed into the sequential buffer (restructure only).
    packed_iters: u64,
    /// Iterations covered by helper work (prefetched or packed).
    helped_iters: u64,
    /// Poll batches that found no headroom below the dependence horizon
    /// and spun waiting for the token to commit more chunks.
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
/// the helper re-reads it each poll batch and spins (still watching for
/// jump-out) while it has caught up with the horizon.
#[allow(clippy::too_many_arguments)] // a phase is naturally parameterized by all of these
fn helper_phase<K: RealKernel>(
    kernel: &K,
    cfg: &RunConfig,
    run: &FtRun,
    plan: &ChunkPlan,
    j: u64,
    epoch: u64,
    range: &Range<u64>,
    buf: &mut Vec<u8>,
) -> HelperOut {
    let mut out = HelperOut::default();
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
    let poll_batch = cfg.runner.poll_batch;
    match cfg.runner.policy {
        RtPolicy::None => {}
        RtPolicy::Prefetch => {
            let mut i = range.start;
            while !helper_jump_out(run, &cfg.cancel, j, epoch) && i < range.end {
                let batch_end = horizon_cap((i + poll_batch).min(range.end));
                if batch_end <= i {
                    // Caught up with the horizon: wait for the token to
                    // commit more chunks (or arrive, via jump-out).
                    out.horizon_stalls += 1;
                    std::hint::spin_loop();
                    continue;
                }
                kernel.prefetch_range(i..batch_end);
                out.helped_iters += batch_end - i;
                i = batch_end;
            }
            out.jumped_out = i < range.end;
        }
        RtPolicy::Restructure => {
            buf.clear();
            let mut i = range.start;
            let mut supported = true;
            while supported && !helper_jump_out(run, &cfg.cancel, j, epoch) && i < range.end {
                let batch_end = horizon_cap((i + poll_batch).min(range.end));
                if batch_end <= i {
                    out.horizon_stalls += 1;
                    std::hint::spin_loop();
                    continue;
                }
                supported = kernel.pack_range(i..batch_end, buf);
                i = batch_end;
            }
            if supported {
                out.packed_iters = i - range.start;
            } else {
                // Kernel cannot pack: degrade to nothing packed.
                buf.clear();
            }
            out.helped_iters = out.packed_iters;
            out.jumped_out = supported && i < range.end;
        }
    }
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
    /// The token is poisoned: drain.
    Poisoned,
    /// We were quarantined while waiting: drain.
    Quarantined,
}

/// What a waiter should do after declaring a stall.
enum StallAction {
    /// Keep waiting this much longer (a strike backoff, or recovery by
    /// another detector is underway).
    Wait(Duration),
    /// The token is (now) poisoned: stop waiting.
    Poisoned,
}

/// Poison the token with a stall cause; the winning poisoner alone
/// records the event (and, when the retry ladder gave up, why it fell
/// through).
fn poison_stalled(
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
/// retry, poison immediately (PR 1 behavior). With retry, strike the
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
        run.claimant.load(Ordering::Acquire)
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

/// Wait for chunk `j` and claim it. With a watchdog window, the waiter
/// re-arms its deadline every time the raw token value moves (grants and
/// claims both count as progress); a full window with no movement climbs
/// the stall ladder in [`declare_stall`].
fn wait_to_claim(
    run: &FtRun,
    rec: &Recovery,
    watchdog: Option<Duration>,
    cancel: &CancelToken,
    t: u64,
    j: u64,
    epoch: u64,
) -> ChunkClaim {
    let started = Instant::now();
    let mut observed = run.token.raw();
    let mut deadline = watchdog.map(|w| Instant::now() + w);
    let mut spins = 0u64;
    loop {
        let raw = run.token.raw();
        match Token::decode(raw) {
            TokenView::Poisoned => return ChunkClaim::Poisoned,
            TokenView::Granted(p) | TokenView::Claimed(p) if p > j => {
                return ChunkClaim::Superseded
            }
            TokenView::Granted(p) if p == j && run.token.try_claim(j) => {
                run.claimant.store(t, Ordering::Release);
                return ChunkClaim::Claimed;
                // A claimant that loses the CAS falls to `_` instead and
                // re-observes the token (Superseded soon).
            }
            _ => {}
        }
        if run.roster.epoch() != epoch {
            return ChunkClaim::Remapped;
        }
        std::hint::spin_loop();
        spins += 1;
        if spins.is_multiple_of(1024) {
            if rec.health.is_quarantined(t) {
                return ChunkClaim::Quarantined;
            }
            if cancel.is_cancelled() {
                // Poisoning while another executor holds a claim is safe:
                // its `completed` bump precedes the advance the poison
                // refuses, so the resume point stays exact
                // (LateCompletion, like a watchdog poison).
                poison_cancelled(run, cancel);
                return ChunkClaim::Poisoned;
            }
            if let (Some(window), Some(d)) = (watchdog, deadline) {
                let now = Instant::now();
                let raw_now = run.token.raw();
                if raw_now != observed {
                    observed = raw_now;
                    deadline = Some(now + window);
                } else if now >= d {
                    if raw_now == POISONED {
                        return ChunkClaim::Poisoned;
                    }
                    match declare_stall(run, rec, t, raw_now, started.elapsed(), window) {
                        StallAction::Wait(extra) => deadline = Some(now + extra),
                        StallAction::Poisoned => return ChunkClaim::Poisoned,
                    }
                }
            }
            std::thread::yield_now();
        }
    }
}

/// Handle a worker panic at chunk `j` (`claimed` = during the execution
/// phase, i.e. we hold the claim; `pristine` = the chunk's shared state
/// is bitwise pre-chunk — the body never started, the kernel promises
/// fail-stop panics, or the undo journal was rolled back). Climbs the
/// recovery ladder; returns `true` when the fault was absorbed
/// in-cascade (self-quarantine, roster remap, claimed chunk handed back
/// for a survivor to retry) and `false` when it fell through to token
/// poisoning.
fn recover_from_panic(
    run: &FtRun,
    rec: &Recovery,
    t: u64,
    j: u64,
    claimed: bool,
    pristine: bool,
    payload: Box<dyn std::any::Any + Send>,
) -> bool {
    let message = panic_message(payload.as_ref());
    run.record(FaultEvent::WorkerPanicked {
        thread: t,
        chunk: j,
        message: message.clone(),
    });
    if claimed && !pristine {
        // The chunk body was interrupted and is torn: no fail-stop
        // promise and no rolled-back journal, so part of its writes may
        // have landed and neither retry nor salvage may re-run it.
        run.salvage_unsound.store(true, Ordering::Release);
    }
    let mut abandon = None;
    if rec.enabled() {
        if claimed && !pristine {
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
    run.token.poison_with(PoisonCause::Panicked {
        thread: t,
        chunk: j,
        message,
    });
    false
}

/// The checksummed handoff's digest of a chunk's write-footprint bytes
/// (journal layout): one definition, so executor and verifier agree. An
/// in-memory comparison within one run, hence the word-wise
/// [`fnv64_words`], which sees every single-byte change for certain.
fn footprint_digest(bytes: &[u8]) -> u64 {
    fnv64_words(FNV64_BASIS, bytes)
}

/// Outcome of verifying one committed chunk against its handoff packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyVerdict {
    /// The committed bytes check out — or a lone replay mismatch failed
    /// its own tiebreak, which indicts the verifier, not the executor.
    Verified,
    /// Corruption confirmed by the tiebreak and repaired in place by
    /// installing the verified replay bytes; the run continues cascaded.
    Repaired,
    /// Corruption confirmed with no recovery path: the chunk was rolled
    /// back to its pre-image and the token poisoned
    /// ([`PoisonCause::Corrupted`]). The caller drains.
    Failed,
}

/// Verify committed chunk `p.chunk` against its handoff packet: under a
/// replaying policy, re-execute the chunk against a journaled private
/// view ([`RealKernel::replay_footprint`]) and compare bytes; otherwise
/// recompute the write-footprint digest and compare it with the
/// published one. The digest of the committed bytes is computed only
/// where it decides something — that comparison, and the blame decision
/// after a confirmed tiebreak — so a matching replay costs no hash.
///
/// On a replay mismatch a *second* replay is the sequential tiebreak:
/// only when both replays agree against the committed bytes is the
/// executor blamed (a lone mismatch could equally be the verifier's own
/// fault — blame without the tiebreak is the seeded model-checker bug).
/// A conviction is a corruption strike ([`HealthRegistry::corruption_strike`]): the first
/// offense is repaired in place, the second quarantines the executor via
/// the roster remap. Recovery installs the verified replay bytes whenever
/// the tolerance has any recovery path (retry or salvage); otherwise the
/// chunk is rolled back to its pre-image and the token poisoned, so the
/// typed error's committed prefix never contains a corrupted chunk.
///
/// The caller must hold the downstream chunk's claim (or, for a loop's
/// final chunk, the end-of-loop quiescence): verification happens-before the downstream chunk's
/// execution, so corruption is caught before the next handoff consumes
/// it — never after the run.
fn verify_committed<K: RealKernel>(
    kernel: &K,
    run: &FtRun,
    rec: &Recovery,
    cfg: &RunConfig,
    verifier: u64,
    p: VerifyPacket,
) -> VerifyVerdict {
    let mut committed = Vec::new();
    // SAFETY: the caller holds the downstream claim (or the end-of-loop
    // quiescence), so no execute overlaps `p.range`'s footprint, and capture
    // only reads.
    let ok = catch_unwind(AssertUnwindSafe(|| unsafe {
        kernel.journal_capture(p.range.clone(), &mut committed)
    }))
    .unwrap_or(false);
    if !ok {
        // The kernel lost its footprint bound mid-run: nothing to check
        // against (the executor could not have published a packet either
        // unless this is transient; be conservative, not wrong).
        return VerifyVerdict::Verified;
    }

    if cfg.verify.replays(p.chunk) {
        if let Some(pre) = p.pre_image.as_deref() {
            let replay = || -> Option<Vec<u8>> {
                // SAFETY: same exclusivity as the capture above; replay
                // routes every footprint access through a private
                // overlay and never writes shared memory.
                catch_unwind(AssertUnwindSafe(|| unsafe {
                    kernel.replay_footprint(p.range.clone(), pre)
                }))
                .ok()
                .flatten()
            };
            if let Some(r1) = replay() {
                if r1 == committed {
                    return VerifyVerdict::Verified;
                }
                let Some(r2) = replay() else {
                    // Tiebreak unavailable: a lone mismatch never blames.
                    return VerifyVerdict::Verified;
                };
                if r2 != r1 {
                    // The verifier's own replays disagree: the fault is
                    // on our side, the committed bytes stand.
                    return VerifyVerdict::Verified;
                }
                // Tiebreak confirmed: the committed bytes are wrong. Who
                // is to blame hangs on the published digest. If it
                // matches the committed bytes, the executor *computed*
                // them — guilty. If not, the corruption landed after the
                // executor's own commit-time capture (a post-commit
                // flip), and blaming the executor would convict an
                // innocent worker — the single-fault attribution the
                // model checker proves.
                let found = footprint_digest(&committed);
                let blamed = if found == p.digest {
                    Some(p.executor)
                } else {
                    None
                };
                let tol = &cfg.tolerance;
                return convict(kernel, run, rec, tol, verifier, &p, &r1, found, blamed);
            }
        }
    }

    // Digest-only comparison (Checksum policy, unsampled chunks, or no
    // replay path): catches corruption that landed *after* the
    // executor's own post-execution capture. No replay means no
    // tiebreak, so no blame — and no verified bytes to install, so
    // detection always fails the run.
    let found = footprint_digest(&committed);
    if found == p.digest {
        return VerifyVerdict::Verified;
    }
    run.record(FaultEvent::CorruptionDetected {
        chunk: p.chunk,
        expected: p.digest,
        found,
        repaired: false,
    });
    fail_rollback(kernel, run, &p, None)
}

/// The tiebreak confirmed the corruption: assign blame (when the digest
/// proves the executor computed the bytes — `blamed` is `None` for a
/// post-commit flip the executor is innocent of), quarantine a repeat
/// offender, and recover — install the verified replay bytes in place
/// when the tolerance has a recovery path, or roll back to the pre-image
/// and poison the token when it does not.
#[allow(clippy::too_many_arguments)] // a conviction is parameterized by the whole verify context
fn convict<K: RealKernel>(
    kernel: &K,
    run: &FtRun,
    rec: &Recovery,
    tol: &Tolerance,
    verifier: u64,
    p: &VerifyPacket,
    verified: &[u8],
    found: u64,
    blamed: Option<u64>,
) -> VerifyVerdict {
    let expected = footprint_digest(verified);
    if let Some(guilty) = blamed {
        let quarantine_now = rec.health.corruption_strike(guilty);
        run.record(FaultEvent::WorkerBlamed {
            thread: guilty,
            chunk: p.chunk,
            strikes: rec.health.corruption_strikes(guilty),
        });
        if quarantine_now {
            // Repeat offender: remove from the roster (remapping its
            // remaining chunks across survivors, anchored at the token's
            // position so nothing is orphaned) — unless it is the last
            // live worker, in which case refusing strands nobody.
            let anchor = run.token.position().unwrap_or(p.chunk + 1);
            if matches!(run.roster.remove(guilty, anchor), RemoveOutcome::Removed)
                && rec.health.quarantine(guilty)
            {
                run.record(FaultEvent::WorkerQuarantined {
                    thread: guilty,
                    chunk: p.chunk,
                });
            }
        }
    }
    if rec.enabled() || tol.salvage {
        // Install the verified replay bytes: rollback and re-execution
        // in one restore — bitwise what a clean execution left behind.
        let installed = catch_unwind(AssertUnwindSafe(|| unsafe {
            // SAFETY: caller's exclusivity (downstream claim or
            // end-of-loop quiescence); `verified` is in journal layout over `p.range`.
            kernel.journal_rollback(p.range.clone(), verified)
        }))
        .is_ok();
        if installed {
            run.record(FaultEvent::CorruptionDetected {
                chunk: p.chunk,
                expected,
                found,
                repaired: true,
            });
            if verifier != p.executor {
                run.record(FaultEvent::ChunkRetried {
                    chunk: p.chunk,
                    from_thread: p.executor,
                    by_thread: verifier,
                });
            }
            return VerifyVerdict::Repaired;
        }
    }
    run.record(FaultEvent::CorruptionDetected {
        chunk: p.chunk,
        expected,
        found,
        repaired: false,
    });
    fail_rollback(kernel, run, p, blamed)
}

/// Roll the corrupted chunk back to its pre-image and poison the token:
/// the committed prefix carried by the typed error must never contain a
/// corrupted chunk. A missing or panicking rollback additionally marks
/// the run salvage-unsound (the state cannot be trusted at all).
fn fail_rollback<K: RealKernel>(
    kernel: &K,
    run: &FtRun,
    p: &VerifyPacket,
    blamed: Option<u64>,
) -> VerifyVerdict {
    let rolled_back = match p.pre_image.as_deref() {
        // SAFETY: caller's exclusivity; `pre` is the unmodified capture
        // of this same range taken before the chunk executed.
        Some(pre) => catch_unwind(AssertUnwindSafe(|| unsafe {
            kernel.journal_rollback(p.range.clone(), pre)
        }))
        .is_ok(),
        None => false,
    };
    if !rolled_back {
        run.salvage_unsound.store(true, Ordering::Release);
    }
    let resume_at = if rolled_back {
        p.range.start
    } else {
        p.range.end
    };
    run.token.poison_with(PoisonCause::Corrupted {
        thread: blamed,
        chunk: Some(p.chunk),
        resume_at,
    });
    VerifyVerdict::Failed
}

/// Roll chunk `j` back to its undo journal `jbuf` and record the rollback.
/// `Err` carries the payload of a rollback that itself panicked: the chunk
/// is then torn, which the ladder treats exactly like an unjournalable
/// kernel.
///
/// # Safety
///
/// The caller still holds the claim on `j` — so the restore is exclusive
/// and happens-before any survivor's re-execution claim, and no torn
/// write-set is ever observable — and `jbuf` is the unmodified capture of
/// `range`.
unsafe fn rollback_chunk<K: RealKernel>(
    kernel: &K,
    run: &FtRun,
    t: u64,
    j: u64,
    range: &Range<u64>,
    jbuf: &[u8],
    stats: &mut ThreadStats,
) -> std::thread::Result<()> {
    let t0 = Instant::now();
    // SAFETY: forwarded under the caller's guarantee.
    let rb = catch_unwind(AssertUnwindSafe(|| unsafe {
        kernel.journal_rollback(range.clone(), jbuf)
    }));
    stats.journal_ns += t0.elapsed().as_nanos();
    if rb.is_ok() {
        stats.rollbacks += 1;
        run.record(FaultEvent::ChunkRolledBack {
            thread: t,
            chunk: j,
            bytes: jbuf.len() as u64,
        });
    }
    rb
}

fn ft_worker<K: RealKernel>(
    kernel: &K,
    cfg: &RunConfig,
    plan: &ChunkPlan,
    run: &FtRun,
    rec: &Recovery,
    t: u64,
) -> ThreadStats {
    let (tol, cancel, policy) = (&cfg.tolerance, &cfg.cancel, cfg.runner.policy);
    // The recorder's transitions replace ad-hoc `Instant` pairs: one
    // timestamp both closes the outgoing phase and opens the incoming
    // one, so the per-phase totals tile this worker's wall time exactly.
    let mut phases = PhaseRecorder::new(run.origin, &cfg.observe);
    run.roster.sync_with(&rec.health);
    let mut stats = ThreadStats::default();
    let mut buf: Vec<u8> = Vec::new();
    // Reusable undo-journal buffer (capture clears and refills it per
    // chunk, so like `buf` it amortizes to zero allocations at steady
    // state).
    let mut jbuf: Vec<u8> = Vec::new();
    let m = plan.num_chunks();
    let mut cursor = 0u64;
    loop {
        if rec.health.is_quarantined(t) {
            return phases.finish(stats);
        }
        if cancel.is_cancelled() && run.completed.load(Ordering::Acquire) < m {
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
        let epoch = run.roster.epoch();
        let Some(j) = run.roster.next_owned(t, cursor) else {
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
        let buf_cap0 = buf.capacity();
        let helper = catch_unwind(AssertUnwindSafe(|| {
            helper_phase(kernel, cfg, run, plan, j, epoch, &range, &mut buf)
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
        // Meter the pack arena's capacity growth (the buffer is long-lived
        // and amortizes to a steady state, so `used` tracks the peak bytes
        // it pins). A refusal cancels the run instead of allocating on.
        let buf_growth = buf.capacity().saturating_sub(buf_cap0) as u64;
        if !cfg.budget.try_reserve(buf_growth) {
            cancel.cancel_with(
                CancelKind::Budget {
                    needed: buf_growth,
                    limit: cfg.budget.limit().unwrap_or(0),
                },
                "helper pack-arena growth exceeds the memory budget",
            );
            poison_cancelled(run, cancel);
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
        let claim = wait_to_claim(run, rec, tol.watchdog, cancel, t, j, epoch);
        let (claim_ns, _) = phases.transition(PhaseKind::Other, Some(j));
        match claim {
            ChunkClaim::Claimed => {}
            ChunkClaim::Superseded | ChunkClaim::Remapped => continue,
            ChunkClaim::Poisoned | ChunkClaim::Quarantined => return phases.finish(stats),
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
        if run.release_chunk.load(Ordering::Acquire) == j {
            let rel = run.release_ns.load(Ordering::Relaxed);
            stats.takeover.record(claim_ns.saturating_sub(rel));
        }

        // --- verify the predecessor's handoff (claim held) ---
        // Verification happens-before this chunk's execution: while we
        // hold the claim no execute can run anywhere, so the committed
        // predecessor is checked *before* its bytes feed the downstream
        // computation — corruption is caught at the handoff, never after
        // the run. Cost rides inside the Other phase as a side counter
        // (`verify_ns`); with `VerifyPolicy::Off` this is one branch.
        if cfg.verify.armed() && j > 0 {
            let t0 = Instant::now();
            if let Some(p) = lock_recover(&run.verify_slot).take() {
                if p.chunk + 1 == j {
                    stats.verified_chunks += 1;
                    let verdict = verify_committed(kernel, run, rec, cfg, t, p);
                    if verdict == VerifyVerdict::Failed {
                        stats.verify_ns += t0.elapsed().as_nanos();
                        return phases.finish(stats);
                    }
                }
                // A packet for any other chunk is stale (a remap or a
                // supersede raced the slot): drop it without blame —
                // checking it against the wrong predecessor could
                // accuse an innocent worker.
            }
            stats.verify_ns += t0.elapsed().as_nanos();
            // Deferred durable checkpoint: with verification armed, the
            // prefix through chunk j - 1 becomes persistable only now —
            // the predecessor's handoff was just checked (or repaired)
            // above, and every older chunk passed its own claimant's
            // check (publication repeated after a retry is a no-op).
            // SAFETY: we hold the claim — no executor is active anywhere
            // — and every chunk below `j` is committed.
            unsafe { publish_ckpt(kernel, cfg, plan, j, range.start, &mut stats) };
        }

        // --- execution phase (we hold the claim: unique executor) ---
        phases.transition(PhaseKind::Execute, Some(j));
        // Chunk transaction: when any recovery path could want this chunk
        // re-executed (retry or salvage), or online verification needs a
        // pre-image to seed its replay overlay, capture the chunk's undo
        // journal — the analyzer-bounded write-set bytes — before the
        // body runs. The timing rides inside the Execute phase as a side
        // counter (`journal_ns`), so the exact phase partition is
        // untouched.
        let journaled = if rec.enabled() || tol.salvage || cfg.verify.armed() {
            let t0 = Instant::now();
            let jbuf_cap0 = jbuf.capacity();
            // SAFETY: we hold the claim — the same exclusivity contract
            // as `execute` — and capture only reads.
            let cap = catch_unwind(AssertUnwindSafe(|| unsafe {
                kernel.journal_capture(range.clone(), &mut jbuf)
            }));
            match cap {
                Ok(captured) => {
                    // Meter the journal arena's capacity growth (capture
                    // allocates whether or not it ultimately succeeds).
                    // The chunk body has not started, so a refusal drains
                    // with the chunk pristine and uncommitted.
                    let jbuf_growth = jbuf.capacity().saturating_sub(jbuf_cap0) as u64;
                    if !cfg.budget.try_reserve(jbuf_growth) {
                        cancel.cancel_with(
                            CancelKind::Budget {
                                needed: jbuf_growth,
                                limit: cfg.budget.limit().unwrap_or(0),
                            },
                            "undo-journal capture exceeds the memory budget",
                        );
                        poison_cancelled(run, cancel);
                        return phases.finish(stats);
                    }
                    if captured {
                        stats.journal_ns += t0.elapsed().as_nanos();
                        stats.journal_bytes += jbuf.len() as u64;
                    }
                    captured
                }
                Err(payload) => {
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
                    kernel.execute_packed(range.start..packed_end, &buf);
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
            // SAFETY: claim still held; `jbuf` is the unmodified capture
            // of this same range.
            let rolled_back = journaled
                && unsafe { rollback_chunk(kernel, run, t, j, &range, &jbuf, &mut stats) }.is_ok();
            let pristine = rolled_back || kernel.panics_before_mutation();
            recover_from_panic(run, rec, t, j, true, pristine, payload);
            return phases.finish(stats);
        }
        let (_, exec_ns) = phases.transition(PhaseKind::Other, Some(j));
        if cancel.is_cancelled() {
            // Cancellation raced the chunk body. We still hold the claim,
            // so abort-must-be-unobservable can hold: roll the journal
            // back (the chunk reverts to uncommitted, bitwise) or, when
            // unjournalable, commit the finished chunk — never leave a
            // half-observed state. The rollback happens *before* the
            // poison drains the claim (the model checker's seeded
            // unclaim-before-cancel-rollback bug shows why the order
            // matters).
            if journaled {
                // SAFETY: claim still held; `jbuf` is the unmodified
                // capture of this same range. Rolled back, the chunk is
                // uncommitted again: not counted.
                let rb = unsafe { rollback_chunk(kernel, run, t, j, &range, &jbuf, &mut stats) };
                if let Err(payload) = rb {
                    // The rollback itself tore the chunk: resuming from
                    // `completed` could double-apply writes, so the
                    // supervisor must report the tear instead of a clean
                    // cancel.
                    run.record(FaultEvent::WorkerPanicked {
                        thread: t,
                        chunk: j,
                        message: format!(
                            "journal rollback panicked during cancellation abort: {}",
                            panic_message(payload.as_ref())
                        ),
                    });
                    run.salvage_unsound.store(true, Ordering::Release);
                }
            } else {
                // Unjournalable: the finished chunk cannot be reverted,
                // so it commits and the resume point moves past it.
                stats.chunk_exec.record(exec_ns);
                stats.chunks += 1;
                run.completed.fetch_max(j + 1, Ordering::AcqRel);
            }
            poison_cancelled(run, cancel);
            return phases.finish(stats);
        }
        stats.chunk_exec.record(exec_ns);
        stats.chunks += 1;
        run.completed.fetch_max(j + 1, Ordering::AcqRel);
        rec.health.heartbeat(t);
        if let Some(from) = lock_recover(&run.retry_from).remove(&j) {
            if from != t {
                run.record(FaultEvent::ChunkRetried {
                    chunk: j,
                    from_thread: from,
                    by_thread: t,
                });
            }
        }

        // --- durable checkpoint (claim still held) ---
        // Under an armed VerifyPolicy publication is deferred to the
        // downstream claimant (the end-of-loop leader, for the final
        // chunk): this chunk enters the checkpoint only after its handoff
        // is verified, so a kill landing between commit and verification
        // can never persist bytes that verification would have rejected.
        if !cfg.verify.armed() {
            // SAFETY: we hold the claim — the same exclusivity contract
            // as `execute` — and chunks `0..=j` are committed.
            unsafe { publish_ckpt(kernel, cfg, plan, j + 1, range.end, &mut stats) };
        }

        // --- checksummed handoff (claim still held) ---
        // Digest the chunk's *committed* write footprint and publish the
        // verification packet before the advance: the downstream
        // claimant's Acquire through its claim CAS sees the packet before
        // chunk j + 1 can execute. A copy of the pre-image journal rides
        // along to seed the verifier's replay overlay; `jbuf` itself stays
        // here, so its metered capacity is reused by the next capture
        // instead of being reserved again. Cost is a side counter
        // (`verify_ns`) inside the Other phase; with `VerifyPolicy::Off`
        // this is one branch.
        if cfg.verify.armed() && journaled {
            let t0 = Instant::now();
            let mut committed_bytes = Vec::new();
            // SAFETY: claim still held — the same exclusivity contract
            // as `execute` — and capture only reads.
            let ok = catch_unwind(AssertUnwindSafe(|| unsafe {
                kernel.journal_capture(range.clone(), &mut committed_bytes)
            }))
            .unwrap_or(false);
            if ok {
                *lock_recover(&run.verify_slot) = Some(VerifyPacket {
                    chunk: j,
                    range: range.clone(),
                    executor: t,
                    digest: footprint_digest(&committed_bytes),
                    pre_image: Some(jbuf.clone()),
                });
            }
            stats.verify_ns += t0.elapsed().as_nanos();
        }

        if j + 1 < m {
            // Stamp the grant of j + 1 *before* publishing it via the
            // advance, so the claimant's latency sample pairs with this
            // release (the final advance grants no one: not a handoff).
            let now_ns = Instant::now().duration_since(run.origin).as_nanos() as u64;
            run.release_ns.store(now_ns, Ordering::Relaxed);
            run.release_chunk.store(j + 1, Ordering::Release);
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
        let stats = try_run_governed(
            &k,
            &RunConfig {
                runner: cfg,
                tolerance: Tolerance::resilient(Duration::from_millis(20)),
                ..Default::default()
            },
        )
        .expect("stall must salvage");
        assert!(stats.degraded);
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::StallDeclared { chunk: 6, .. })),
            "missing stall event: {:?}",
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
