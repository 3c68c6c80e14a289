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
//! | [`try_run_planned`] | a fissioned loop per its plan, as stages of the same engine: DOALL, DOACROSS, cascaded residue, pipelined pairs |
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
//! the failed thread is quarantined in the run's health registry (heartbeats,
//! strikes with exponential backoff), and its remaining chunks are
//! remapped across survivors so the run finishes cascaded instead of
//! `degraded`. The token/poison/retry protocol backing this is modeled as
//! an explicit state machine in the test-only `check` module
//! (`src/check.rs`) and exhaustively explored with the `interleave`
//! shim — the eight invariants (exactly-one executor,
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
//! ignoring it: [`try_run_planned`] hands the cascade engine one stage
//! per sub-loop, all on the same worker pool and fenced by the same
//! poisonable barrier as a sequence's loops. Each `Parallel` stage
//! is a DOALL stage whose chunks the pool claims in ascending order from
//! one cursor, each `DoAcross { lag }` stage a pipelined post/wait stage
//! (one gate and one post per chunk) over padded per-worker
//! committed-iteration counters (Release/Acquire publication), and each
//! `Sequential` residue cascades with the token runtime. A serial stage
//! right before a `Parallel` one instead runs plain on one worker while
//! the pool runs the `Parallel` one behind its committed frontier, with
//! no barrier between the two (a *pipelined pair*). A stage fault
//! poisons the stage's token like a cascade fault, so governance,
//! journaled rollback and sequential salvage take the engine's one path;
//! the DOACROSS post/wait protocol and the pipelined pair are modeled and
//! exhaustively explored in the test-only `check` module.
//!
//! ## Durable runs
//!
//! The [`ckpt`] module makes the resume point survive process death: the
//! leader's commit path persists crash-consistent checkpoints (full base
//! arena snapshot plus write-set deltas from the undo-journal
//! machinery, all fsync'd and atomically renamed) through the sink on
//! [`RunConfig::ckpt_sink`], which holds its [`CkptPolicy`]:
//! [`CkptSink::new`]`(writer, policy)`. A SIGKILLed run restores bitwise via
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
//! in the health registry, roster quarantine on repeat), the chunk is
//! rolled back via its undo journal and repaired in place, and the run
//! continues bitwise-correct. Between loops the pool's workers scrub the
//! arena: each hashes its share of the blocks of bytes *outside* every
//! footprint, before the loop's start barrier and after its end barrier.
//! The protocol's ordering claims are
//! model-checked (the test-only `check` module): verification
//! happens-before downstream commit visibility, a corrupted chunk is
//! never part of a committed prefix, and blame never quarantines an
//! innocent worker under a single-fault assumption. `cascade chaos
//! --corrupt` gates detection end to end; `VerifyPolicy::Off` (the
//! default) costs one never-true branch per commit and claim.

#![warn(missing_docs)]

mod barrier;
pub mod ckpt;
pub mod fault;
pub mod govern;
mod health;
pub mod interp;
pub mod kernel;
pub mod metrics;
pub mod prefetch;
pub mod runner;
pub mod sched;
pub mod token;
mod verify;

pub use ckpt::{Checkpoint, CkptError, CkptMeta, CkptPolicy, CkptSink, CkptWriter};
pub use fault::{FaultKind, FaultPlan, FaultyKernel};
pub use govern::{CancelKind, CancelState, CancelToken, MemBudget, RunConfig, VerifyPolicy};
pub use interp::{SpecKernel, SpecProgram};
pub use kernel::RealKernel;
pub use metrics::{NsStats, Observe, PhaseEventNs};
pub use prefetch::{prefetch_line, prefetch_range, PREFETCH_STRIDE};
pub use runner::{
    run_sequential, try_run_governed, try_run_governed_sequence, FaultEvent, RetryAbandon,
    RetryPolicy, RtPolicy, RunError, RunStats, RunnerConfig, ThreadStats, Tolerance,
};
pub use sched::{doacross_order, fission_specs, try_run_planned, PlannedStats, SubLoopStats};
pub use token::{PoisonCause, Token, TokenView, EXEC_BIT, POISONED};

// The model checker: unit tests only, with `interleave` a dev-dependency.
#[cfg(test)]
mod check;
