//! # cascade-rt — cascaded execution on real threads
//!
//! The paper's runtime system, for real shared-memory machines: rotating
//! token-serialized execution of one sequential loop across `std::thread`
//! workers, with helper phases that prefetch (x86-64 `prefetcht0`
//! intrinsics) or pack read-only operands into thread-local sequential
//! buffers while waiting.
//!
//! This container exposes a single CPU, so the runtime cannot demonstrate
//! the paper's wall-clock speedups here; the quantitative reproduction
//! lives in the `cascade-core` simulators. What the runtime demonstrates —
//! and what its tests pin down — is the *correctness* of the protocol:
//! cascaded execution of order-sensitive loops (floating-point
//! read-modify-write scatters) is bitwise identical to sequential
//! execution for any thread count, chunk size, and helper policy, because
//! exactly one thread executes at a time and token passing forms
//! Release/Acquire edges between consecutive chunks.
//!
//! ```
//! use cascade_rt::{try_run_governed, RtPolicy, RunConfig, RunnerConfig, SpecProgram};
//! use cascade_synth::{Synth, Variant};
//!
//! let s = Synth::build(1 << 14, Variant::Dense, 7);
//! let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
//! let kernel = prog.kernel(0);
//! let cfg = RunConfig::from(RunnerConfig {
//!     nthreads: 2, iters_per_chunk: 1024, policy: RtPolicy::Restructure, poll_batch: 64,
//! });
//! let stats = try_run_governed(&kernel, &cfg).unwrap();
//! assert_eq!(stats.chunks, 16);
//! ```
//!
//! ## Entry points
//!
//! One configuration type, [`RunConfig`] (`RunConfig::from(RunnerConfig)`
//! leaves everything but the geometry off), and four functions:
//!
//! | function | runs |
//! |---|---|
//! | [`run_sequential`] | one loop on the calling thread: the baseline and bitwise oracle |
//! | [`try_run_governed`] | one loop, cascaded — the sequence of one |
//! | [`try_run_governed_sequence`] | loops back to back on one persistent pool: the cascade engine |
//! | [`try_run_planned`] | a fissioned loop per its plan: DOALL, DOACROSS, cascaded residue |
//!
//! The three cascading ones return a typed [`RunError`] and never panic
//! on a worker fault.
//!
//! ## Fault tolerance
//!
//! The runtime also has a failure model (described in
//! `docs/ROBUSTNESS.md`): bounded token waits with a progress watchdog,
//! token poisoning with structured diagnostics, typed errors, deterministic
//! fault injection ([`FaultyKernel`]), and a graceful sequential fallback
//! that salvages a faulted run into a bitwise-correct result.
//!
//! ## In-cascade recovery
//!
//! Above salvage sits a recovery ladder ([`Tolerance::retry`], see
//! [`runner`] docs): a faulted chunk is re-executed on a healthy worker,
//! the failed thread is quarantined in a [`HealthRegistry`] (heartbeats,
//! strikes with exponential backoff), and its remaining chunks are
//! remapped across survivors so the run finishes cascaded instead of
//! `degraded`. The token/poison/retry protocol backing this is modeled as
//! an explicit state machine in [`check`] and exhaustively explored with
//! the `interleave` shim — the eight invariants (exactly-one executor,
//! no lost or resurrected token, first-cause-wins poisoning, no chunk
//! re-executed after mutation, no torn state observable after rollback,
//! cancellation never observable as torn state, exactly one terminal
//! outcome per run, checkpoint capture happens-before token handoff)
//! hold on every reachable interleaving.
//!
//! ## Run governance
//!
//! A *healthy* run can be stopped too ([`govern`]): a shared
//! [`CancelToken`] checked at chunk-claim and helper-pass boundaries, a
//! whole-run deadline that arms a governor thread, and a [`MemBudget`]
//! metering journal and pack arenas. [`try_run_governed`] /
//! [`try_run_governed_sequence`] drain cancelled runs with bitwise-clean
//! state and return typed errors carrying the exact sequential resume
//! point (`committed_iters`).
//!
//! ## Plan-driven execution
//!
//! The [`sched`] module executes a `cascade-analyze`
//! [`TransformPlan`](cascade_analyze::plan::TransformPlan) instead of
//! ignoring it: [`try_run_planned`] runs each `Parallel` sub-loop as a
//! DOALL static range split, each `DoAcross { lag }` sub-loop as a
//! pipelined post/wait stage over padded per-worker committed-iteration
//! counters (Release/Acquire publication), and cascades `Sequential`
//! residues with the token runtime — in the plan's topological order,
//! fenced by the poisonable [`FtBarrier`]. Governance, journaled
//! rollback, and sequential salvage compose per stage; the DOACROSS
//! post/wait protocol is modeled and exhaustively explored in
//! [`check`].
//!
//! ## Durable runs
//!
//! The [`ckpt`] module makes the resume point survive process death: the
//! leader's commit path persists crash-consistent checkpoints (full base
//! arena snapshot plus write-set deltas from the PR 5 journaling
//! machinery, all fsync'd and atomically renamed) under a [`CkptPolicy`]
//! on [`RunConfig`]. A SIGKILLed run restores bitwise via
//! [`ckpt::load`] / [`Checkpoint::into_program`] and finishes from
//! `committed_iters` — `cascade chaos --kill` gates this end to end.
//!
//! ## Verified execution
//!
//! Crashes announce themselves; silent data corruption does not. Under a
//! [`VerifyPolicy`] (on [`RunConfig`]) every chunk commit publishes a
//! word-wise FNV-1a digest ([`cascade_core::fnv64_words`]) of the
//! chunk's analyzer-computed write footprint with the token handoff, and
//! the claimant of the next chunk *verifies* its predecessor — journaled
//! private re-execution under `EveryChunk`/`Sampled`, digest compare
//! otherwise — before its own execution phase begins, so corruption is
//! detected online, never after the run. A confirmed
//! mismatch triggers the blame-and-recover protocol: a sequential
//! tiebreak re-execution convicts the guilty worker (corruption strikes
//! in [`HealthRegistry`], roster quarantine on repeat), the chunk is
//! rolled back via its undo journal and repaired in place, and the run
//! continues bitwise-correct. Between loops an arena scrubber checksums
//! bytes *outside* every footprint. The protocol's ordering claims are
//! model-checked ([`check`]): verification happens-before downstream
//! commit visibility, a corrupted chunk is never part of a committed
//! prefix, and blame never quarantines an innocent worker under a
//! single-fault assumption. `cascade chaos --corrupt` gates detection
//! end to end; `VerifyPolicy::Off` (the default) costs one never-true
//! branch per commit and claim.

#![warn(missing_docs)]

pub mod barrier;
pub mod check;
pub mod ckpt;
pub mod fault;
pub mod govern;
pub mod health;
pub mod interp;
pub mod kernel;
pub mod metrics;
pub mod prefetch;
pub mod runner;
pub mod sched;
pub mod token;

pub use barrier::{BarrierOutcome, FtBarrier};
pub use ckpt::{Checkpoint, CkptError, CkptMeta, CkptPolicy, CkptSink, CkptWriter};
pub use fault::{FaultKind, FaultPlan, FaultyKernel};
pub use govern::{CancelKind, CancelState, CancelToken, MemBudget, RunConfig, VerifyPolicy};
pub use health::{HealthConfig, HealthRegistry, StrikeVerdict};
pub use interp::{SpecKernel, SpecProgram};
pub use kernel::RealKernel;
pub use metrics::{NsStats, Observe, PhaseEventNs};
pub use prefetch::{prefetch_line, prefetch_range, PREFETCH_STRIDE};
pub use runner::{
    run_sequential, try_run_governed, try_run_governed_sequence, FaultEvent, RetryAbandon,
    RetryPolicy, RtPolicy, RunError, RunStats, RunnerConfig, ThreadStats, Tolerance,
};
pub use sched::{
    doacross_order, fission_specs, try_run_planned, PlannedStats, PlannedThread, SubLoopStats,
};
pub use token::{PoisonCause, Token, TokenView, WaitOutcome, EXEC_BIT, POISONED};
