//! Run governance: cooperative cancellation, run deadlines, and memory
//! budgets for the real-thread cascade.
//!
//! The recovery ladder (`docs/ROBUSTNESS.md`) handles *faults*; nothing
//! there can stop a **healthy** run. This module adds the three missing
//! primitives, all cooperative and all drained through the existing
//! poison protocol so cancellation leaves bitwise-clean state:
//!
//! * [`CancelToken`] — a cheap `Arc`'d flag plus a reason cell, checked by
//!   workers at chunk-claim and helper-pass boundaries. The first cancel
//!   wins; everything later observes the same [`CancelState`].
//! * a per-run deadline ([`RunConfig::deadline`]) — arms a governor thread
//!   that fires the run's `CancelToken` when the wall-clock budget
//!   expires, translating to `RunError::DeadlineExceeded`.
//! * [`MemBudget`] — meters the runtime's only unbounded allocations (undo
//!   journals and helper pack arenas) and converts an over-budget growth
//!   into a typed `RunError::BudgetExceeded` refusal instead of an OOM.
//!
//! A cancelled run is **not** an error-shaped crash: every committed chunk
//! stays committed, the in-flight claimed chunk is rolled back via its
//! undo journal (or completed when unjournalable), and the returned error
//! carries `committed_iters` so the caller can finish the loop
//! sequentially from exactly that iteration. See the "Run governance"
//! section of `docs/ROBUSTNESS.md` for the protocol diagram.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::ckpt::{CkptPolicy, CkptSink};
use crate::metrics::Observe;
use crate::runner::{RunError, RunnerConfig, Tolerance};
use crate::token::lock_recover;

/// When the runtime verifies committed chunk bytes — the silent-data-
/// corruption defense (`docs/ROBUSTNESS.md`, "Silent data corruption").
///
/// The executor of every chunk publishes a digest of its write footprint
/// (word-wise FNV-1a, [`cascade_core::fnv64_words`]) with the token
/// handoff; what the *downstream* claimant does with that digest is this
/// policy:
///
/// * [`VerifyPolicy::Off`] — nothing is digested or checked. The default;
///   costs a single branch per chunk (the fault-free overhead guard pins
///   this).
/// * [`VerifyPolicy::Checksum`] — the claimant recomputes the digest from
///   the arena and compares. Catches bytes that changed *after* the
///   executor committed (a stray write landing in a committed footprint);
///   cannot catch a flip that happened during execution, because the
///   executor digested the already-corrupted bytes.
/// * [`VerifyPolicy::EveryChunk`] — the claimant re-executes the
///   committed chunk against a journaled private view and compares bytes.
///   Catches in-execution flips too; detection happens before the
///   claimant's own chunk commits (never after the run).
/// * [`VerifyPolicy::Sampled`]`(k)` — re-executes chunks where
///   `chunk % k == 0`, digest-checks the rest. `Sampled(1)` is
///   `EveryChunk`; `Sampled(0)` is refused by [`RunConfig::try_validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// No verification (the default): zero digests, zero replays.
    #[default]
    Off,
    /// Digest-compare committed footprints; no replay.
    Checksum,
    /// Replay-verify every committed chunk.
    EveryChunk,
    /// Replay-verify chunks where `chunk % k == 0`; digest-check the rest.
    Sampled(u64),
}

impl VerifyPolicy {
    /// Is any verification armed at all?
    #[inline]
    pub fn armed(&self) -> bool {
        !matches!(self, VerifyPolicy::Off)
    }

    /// Does this policy replay-verify chunk index `chunk`?
    #[inline]
    pub fn replays(&self, chunk: u64) -> bool {
        match self {
            VerifyPolicy::EveryChunk => true,
            VerifyPolicy::Sampled(k) => *k != 0 && chunk.is_multiple_of(*k),
            VerifyPolicy::Off | VerifyPolicy::Checksum => false,
        }
    }
}

/// Why a run was cancelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelKind {
    /// An external caller fired [`CancelToken::cancel`].
    User,
    /// The run deadline expired ([`RunConfig::deadline`]).
    Deadline {
        /// The configured deadline that expired.
        after: Duration,
    },
    /// A metered allocation would have exceeded the [`MemBudget`].
    Budget {
        /// Bytes the refused reservation asked for.
        needed: u64,
        /// The configured budget limit.
        limit: u64,
    },
}

/// The recorded cancellation: what fired and why, first cause wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CancelState {
    /// What kind of canceller fired.
    pub kind: CancelKind,
    /// Human-readable reason recorded by the canceller.
    pub reason: String,
}

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    state: Mutex<Option<CancelState>>,
    origin: Instant,
    /// ns since `origin` when the cancel fired (`u64::MAX` = not fired).
    requested_ns: AtomicU64,
    /// ns between the cancel firing and the first worker acting on it
    /// (`u64::MAX` = not yet observed).
    latency_ns: AtomicU64,
}

/// A shared, cloneable cancellation flag with a reason cell.
///
/// `is_cancelled` is a single `Acquire` load — cheap enough for the
/// runtime to poll at every chunk boundary and helper poll batch without
/// measurable overhead (the fault-free overhead guard pins this).
/// Cancelling is idempotent: the first [`CancelToken::cancel_with`] wins
/// and installs the [`CancelState`]; later calls are no-ops.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                state: Mutex::new(None),
                origin: Instant::now(),
                requested_ns: AtomicU64::new(u64::MAX),
                latency_ns: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Cancel the run (user-initiated). Returns `true` when this call won
    /// the race to install the cancellation.
    pub fn cancel(&self, reason: &str) -> bool {
        self.cancel_with(CancelKind::User, reason)
    }

    /// Cancel with an explicit kind. First cause wins; the install happens
    /// before the flag store, so any worker that observes the flag also
    /// observes a populated [`CancelState`].
    pub fn cancel_with(&self, kind: CancelKind, reason: &str) -> bool {
        let installed = {
            let mut slot = lock_recover(&self.inner.state);
            if slot.is_none() {
                *slot = Some(CancelState {
                    kind,
                    reason: reason.to_string(),
                });
                true
            } else {
                false
            }
        };
        if installed {
            self.inner.requested_ns.store(
                self.inner.origin.elapsed().as_nanos() as u64,
                Ordering::Release,
            );
        }
        self.inner.flag.store(true, Ordering::Release);
        installed
    }

    /// Has the run been cancelled? One `Acquire` load.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    /// The recorded cancellation, if any.
    pub fn state(&self) -> Option<CancelState> {
        if !self.is_cancelled() {
            return None;
        }
        lock_recover(&self.inner.state).clone()
    }

    /// Stamp the moment the first worker acted on the cancellation.
    /// Idempotent: only the first observer records the latency sample.
    pub(crate) fn note_observed(&self) {
        let requested = self.inner.requested_ns.load(Ordering::Acquire);
        if requested == u64::MAX {
            return;
        }
        let now = self.inner.origin.elapsed().as_nanos() as u64;
        let _ = self.inner.latency_ns.compare_exchange(
            u64::MAX,
            now.saturating_sub(requested),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Time between the cancel firing and the first worker acting on it —
    /// the run's cancel latency. `None` until a worker has observed the
    /// cancellation.
    pub fn latency(&self) -> Option<Duration> {
        match self.inner.latency_ns.load(Ordering::Acquire) {
            u64::MAX => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }
}

/// A shared memory budget metering the runtime's elastic allocations:
/// per-worker undo-journal buffers and helper pack arenas. (Prefetch
/// helpers issue cache hints and allocate nothing; sequential salvage
/// re-executes in place and allocates nothing either — both are metered
/// trivially at zero.)
///
/// Accounting is capacity-growth based: workers reserve the *growth* of
/// their long-lived buffers, which amortize to a steady state, so `used`
/// tracks the peak bytes those arenas pin for the run's lifetime. A
/// refused reservation cancels the run with [`CancelKind::Budget`], which
/// surfaces as `RunError::BudgetExceeded`.
#[derive(Debug, Clone)]
pub struct MemBudget {
    limit: Option<u64>,
    used: Arc<AtomicU64>,
    high: Arc<AtomicU64>,
}

impl Default for MemBudget {
    fn default() -> Self {
        MemBudget::unlimited()
    }
}

impl MemBudget {
    /// No limit: reservations always succeed (the high-water mark is
    /// still tracked).
    pub fn unlimited() -> Self {
        MemBudget {
            limit: None,
            used: Arc::new(AtomicU64::new(0)),
            high: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A hard limit in bytes across all metered allocations of the run.
    pub fn limited(bytes: u64) -> Self {
        MemBudget {
            limit: Some(bytes),
            ..MemBudget::unlimited()
        }
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Try to reserve `bytes`; `false` means the reservation would exceed
    /// the limit (and nothing was reserved).
    pub fn try_reserve(&self, bytes: u64) -> bool {
        if bytes == 0 {
            return true;
        }
        let new = self.used.fetch_add(bytes, Ordering::AcqRel) + bytes;
        if let Some(limit) = self.limit {
            if new > limit {
                self.used.fetch_sub(bytes, Ordering::AcqRel);
                return false;
            }
        }
        self.high.fetch_max(new, Ordering::AcqRel);
        true
    }

    /// Return `bytes` to the budget (for transient reservations).
    ///
    /// Releasing more than is currently reserved is a caller bug (a
    /// mismatched reserve/release pair): it trips a debug assertion, and
    /// in release builds it clamps to zero instead of wrapping `used`
    /// around to ~`u64::MAX` — which would permanently satisfy every
    /// limit check and silently disable the budget.
    pub fn release(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let prev = self
            .used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                Some(used.saturating_sub(bytes))
            })
            .expect("fetch_update closure never returns None");
        debug_assert!(
            prev >= bytes,
            "MemBudget::release({bytes}) exceeds reserved bytes ({prev}): mismatched release"
        );
    }

    /// Currently reserved bytes.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Peak reserved bytes over the budget's lifetime.
    pub fn high_water(&self) -> u64 {
        self.high.load(Ordering::Acquire)
    }
}

/// Everything governing one run: the runner geometry, the fault
/// tolerance, and the governance primitives (cancel token, deadline,
/// memory budget, observability options). Consumed by
/// `try_run_governed[_sequence]` and `try_run_planned`.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Thread count, chunk geometry, and helper policy.
    pub runner: RunnerConfig,
    /// The fault-recovery ladder configuration.
    pub tolerance: Tolerance,
    /// Whole-run wall-clock budget; expiring fires the cancel token with
    /// [`CancelKind::Deadline`].
    pub deadline: Option<Duration>,
    /// Memory budget for journals and pack arenas.
    pub budget: MemBudget,
    /// The run's cancel token — clone it to cancel from outside.
    pub cancel: CancelToken,
    /// Observability options (event ring).
    pub observe: Observe,
    /// When the leader captures durable checkpoints ([`CkptPolicy::Off`]
    /// by default: zero durability overhead).
    pub ckpt: CkptPolicy,
    /// Where checkpoints go; required iff `ckpt` is not `Off`.
    pub ckpt_sink: Option<CkptSink>,
    /// Silent-data-corruption defense: when committed chunk bytes are
    /// verified ([`VerifyPolicy::Off`] by default: one branch per chunk).
    pub verify: VerifyPolicy,
}

impl RunConfig {
    /// Validate the cross-field governance invariants. The runner's own
    /// geometry checks still run inside `try_run_governed`; this catches
    /// the silent misconfiguration they cannot see: a watchdog window
    /// longer than the run deadline would never fire — every stall would
    /// surface as the blunter `DeadlineExceeded` instead of a diagnosed
    /// `Stalled{chunk}` — so it is refused with a typed diagnostic.
    pub fn try_validate(&self) -> Result<(), RunError> {
        if let (Some(watchdog), Some(deadline)) = (self.tolerance.watchdog, self.deadline) {
            if watchdog > deadline {
                return Err(RunError::InvalidConfig(format!(
                    "watchdog window ({watchdog:?}) exceeds the run deadline ({deadline:?}): \
                     the watchdog could never fire; shrink the window or raise the deadline"
                )));
            }
        }
        match self.ckpt {
            CkptPolicy::Off => {
                if self.ckpt_sink.is_some() {
                    return Err(RunError::InvalidConfig(
                        "a checkpoint sink is configured but the policy is Off: \
                         nothing would ever be written; set a policy or drop the sink"
                            .into(),
                    ));
                }
            }
            CkptPolicy::EveryChunks(0) => {
                return Err(RunError::InvalidConfig(
                    "CkptPolicy::EveryChunks(0) can never be due; use at least 1".into(),
                ));
            }
            CkptPolicy::EveryMillis(0) => {
                return Err(RunError::InvalidConfig(
                    "CkptPolicy::EveryMillis(0) degenerates to every-chunk; \
                     use EveryChunks(1) to say that, or a real interval"
                        .into(),
                ));
            }
            _ => {
                if self.ckpt_sink.is_none() {
                    return Err(RunError::InvalidConfig(format!(
                        "checkpoint policy {:?} has no sink: the run would silently \
                         lose its durability guarantee; attach a CkptSink",
                        self.ckpt
                    )));
                }
            }
        }
        if self.verify == VerifyPolicy::Sampled(0) {
            return Err(RunError::InvalidConfig(
                "VerifyPolicy::Sampled(0) never replays anything (chunk % 0 is \
                 undefined); use Sampled(1) for every chunk or Checksum for \
                 digest-only"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// A bare runner geometry governed by the defaults: fail-fast tolerance,
/// no deadline, unlimited budget, a fresh cancel token, nothing observed,
/// checkpointed or verified.
impl From<RunnerConfig> for RunConfig {
    fn from(runner: RunnerConfig) -> Self {
        RunConfig {
            runner,
            ..RunConfig::default()
        }
    }
}

/// The armed deadline: a thread that fires the run's [`CancelToken`] when
/// the wall-clock budget expires, disarmed (woken and joined) on drop.
pub(crate) struct Governor {
    done: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Governor {
    /// Arm a governor that cancels via `cancel` after `deadline`.
    pub(crate) fn arm(cancel: &CancelToken, deadline: Duration) -> Governor {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let done2 = done.clone();
        let cancel = cancel.clone();
        let handle = std::thread::spawn(move || {
            let (lock, cvar) = &*done2;
            let mut finished = lock_recover(lock);
            let armed_at = Instant::now();
            loop {
                if *finished {
                    return;
                }
                let elapsed = armed_at.elapsed();
                if elapsed >= deadline {
                    break;
                }
                let (g, _) = cvar
                    .wait_timeout(finished, deadline - elapsed)
                    .unwrap_or_else(|e| e.into_inner());
                finished = g;
            }
            drop(finished);
            cancel.cancel_with(
                CancelKind::Deadline { after: deadline },
                &format!("run deadline of {deadline:?} expired"),
            );
        });
        Governor {
            done,
            handle: Some(handle),
        }
    }
}

impl Drop for Governor {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.done;
        *lock_recover(lock) = true;
        cvar.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_wins_and_later_calls_are_noops() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.state(), None);
        assert!(t.cancel("first"));
        assert!(!t.cancel("second"));
        assert!(t.is_cancelled());
        let s = t.state().unwrap();
        assert_eq!(s.kind, CancelKind::User);
        assert_eq!(s.reason, "first");
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel_with(
            CancelKind::Budget {
                needed: 64,
                limit: 32,
            },
            "over budget",
        );
        assert!(t.is_cancelled());
        assert!(matches!(
            t.state().unwrap().kind,
            CancelKind::Budget {
                needed: 64,
                limit: 32
            }
        ));
    }

    #[test]
    fn latency_is_recorded_once_by_the_first_observer() {
        let t = CancelToken::new();
        t.note_observed();
        assert_eq!(t.latency(), None, "no cancel: nothing to observe");
        t.cancel("stop");
        assert_eq!(t.latency(), None, "not yet observed");
        t.note_observed();
        let first = t.latency().expect("observed");
        std::thread::sleep(Duration::from_millis(2));
        t.note_observed();
        assert_eq!(t.latency(), Some(first), "only the first observer stamps");
    }

    #[test]
    fn budget_meters_and_refuses_over_limit() {
        let b = MemBudget::limited(100);
        assert!(b.try_reserve(60));
        assert!(b.try_reserve(40));
        assert_eq!(b.used(), 100);
        assert!(!b.try_reserve(1), "101 > 100 must be refused");
        assert_eq!(b.used(), 100, "refused reservation reserves nothing");
        assert_eq!(b.high_water(), 100);
        b.release(50);
        assert_eq!(b.used(), 50);
        assert!(b.try_reserve(30));
        assert_eq!(b.high_water(), 100, "high-water is a peak, not current");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds reserved bytes"))]
    fn mismatched_release_saturates_instead_of_wrapping() {
        let b = MemBudget::limited(100);
        assert!(b.try_reserve(10));
        // Releasing more than is reserved is a caller bug: debug builds
        // assert; release builds clamp `used` to zero so the budget keeps
        // metering instead of wrapping to ~u64::MAX and never refusing
        // another reservation.
        b.release(11);
        assert_eq!(b.used(), 0, "saturated, not wrapped");
        assert!(b.try_reserve(100), "budget still functional");
        assert!(!b.try_reserve(1), "limit still enforced after saturation");
    }

    #[test]
    fn unlimited_budget_tracks_high_water() {
        let b = MemBudget::unlimited();
        assert!(b.try_reserve(1 << 40));
        assert_eq!(b.high_water(), 1 << 40);
        assert_eq!(b.limit(), None);
    }

    #[test]
    fn governor_fires_the_deadline() {
        let t = CancelToken::new();
        let g = Governor::arm(&t, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        assert!(t.is_cancelled());
        assert!(matches!(
            t.state().unwrap().kind,
            CancelKind::Deadline { .. }
        ));
        drop(g);
    }

    #[test]
    fn disarmed_governor_never_fires() {
        let t = CancelToken::new();
        let g = Governor::arm(&t, Duration::from_secs(3600));
        drop(g); // must join promptly, not hang for an hour
        assert!(!t.is_cancelled());
    }

    #[test]
    fn validate_rejects_watchdog_longer_than_deadline() {
        let cfg = RunConfig {
            tolerance: Tolerance {
                watchdog: Some(Duration::from_secs(10)),
                retry: None,
                salvage: true,
            },
            deadline: Some(Duration::from_secs(1)),
            ..RunConfig::default()
        };
        match cfg.try_validate() {
            Err(RunError::InvalidConfig(msg)) => {
                assert!(msg.contains("watchdog"), "{msg}");
                assert!(msg.contains("deadline"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let ok = RunConfig {
            tolerance: Tolerance {
                watchdog: Some(Duration::from_millis(100)),
                retry: None,
                salvage: true,
            },
            deadline: Some(Duration::from_secs(1)),
            ..RunConfig::default()
        };
        assert!(ok.try_validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_checkpoint_policies() {
        for ckpt in [CkptPolicy::EveryChunks(0), CkptPolicy::EveryMillis(0)] {
            let cfg = RunConfig {
                ckpt,
                ..RunConfig::default()
            };
            assert!(
                matches!(cfg.try_validate(), Err(RunError::InvalidConfig(_))),
                "{ckpt:?} must be refused"
            );
        }
    }

    #[test]
    fn validate_rejects_degenerate_sampled_verify() {
        let cfg = RunConfig {
            verify: VerifyPolicy::Sampled(0),
            ..RunConfig::default()
        };
        match cfg.try_validate() {
            Err(RunError::InvalidConfig(m)) => assert!(m.contains("Sampled(0)"), "{m}"),
            other => panic!("Sampled(0) must be refused, got {other:?}"),
        }
        let ok = RunConfig {
            verify: VerifyPolicy::Sampled(1),
            ..RunConfig::default()
        };
        assert!(ok.try_validate().is_ok());
    }

    #[test]
    fn verify_policy_replay_schedule() {
        assert!(!VerifyPolicy::Off.armed());
        assert!(VerifyPolicy::Checksum.armed());
        assert!(!VerifyPolicy::Checksum.replays(0));
        assert!(VerifyPolicy::EveryChunk.replays(7));
        let s = VerifyPolicy::Sampled(3);
        assert!(s.replays(0) && s.replays(3) && !s.replays(4));
        assert!(
            !VerifyPolicy::Sampled(0).replays(0),
            "degenerate k never divides"
        );
    }

    #[test]
    fn validate_rejects_policy_without_sink_and_sink_without_policy() {
        let cfg = RunConfig {
            ckpt: CkptPolicy::EveryChunks(1),
            ..RunConfig::default()
        };
        match cfg.try_validate() {
            Err(RunError::InvalidConfig(m)) => assert!(m.contains("sink"), "{m}"),
            other => panic!("policy without sink must be refused, got {other:?}"),
        }

        let dir =
            std::env::temp_dir().join(format!("cascade-govern-validate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = crate::ckpt::CkptWriter::create(
            &dir,
            "w",
            crate::ckpt::CkptMeta {
                loop_index: 0,
                iters: 8,
                iters_per_chunk: 2,
            },
            &[0; 4],
        )
        .unwrap();
        let cfg = RunConfig {
            ckpt_sink: Some(CkptSink::new(writer)),
            ..RunConfig::default()
        };
        match cfg.try_validate() {
            Err(RunError::InvalidConfig(m)) => assert!(m.contains("Off"), "{m}"),
            other => panic!("sink without policy must be refused, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
