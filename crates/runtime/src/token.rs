//! The control-transfer mechanism: a shared chunk counter.
//!
//! The paper (§3.3, footnote 2): "Transferring control requires only that
//! a shared-memory flag be set and that the target processor see its new
//! value." The flag here is a single cache-padded atomic holding the index
//! of the chunk currently licensed to execute. The processor finishing
//! chunk `j` stores `j+1` with `Release`; the owner of chunk `j+1` spins
//! with `Acquire` loads. The Release/Acquire pair is what makes the data
//! written by chunk `j` visible to chunk `j+1` — it is the entire
//! correctness argument for mutating shared arrays from rotating threads.
//!
//! ## Failure model
//!
//! The token is also the runtime's failure-propagation channel (see
//! `docs/ROBUSTNESS.md`). A token can be **poisoned** — set to a reserved
//! counter value no real chunk index reaches — carrying a structured
//! [`PoisonCause`] diagnostic (who poisoned it, at which chunk, why).
//! Waits come in two flavours: the classic unbounded [`Token::wait_for`]
//! (panics on poison), and the bounded [`Token::wait_for_deadline`] that
//! returns a [`WaitOutcome`] so callers can implement watchdogs instead of
//! spinning forever behind a dead token holder.
//!
//! ## Claimed execution (the recovery protocol)
//!
//! For in-cascade fault recovery the grant alone is not enough: when chunk
//! ownership can be *remapped* at runtime (a failed worker's chunks handed
//! to survivors), two workers may transiently wait for the same chunk. The
//! token therefore distinguishes a **granted** chunk (counter holds `j`)
//! from a **claimed** one (counter holds `j | EXEC_BIT`): a worker wins the
//! right to execute `j` with the [`Token::try_claim`] compare-and-swap,
//! publishes its writes with [`Token::try_advance`] (`j | EXEC_BIT` →
//! `j + 1`), and — only while the chunk is *pristine* (a fail-stop panic
//! before any mutation, or partial writes rolled back from the undo
//! journal) — can relinquish an unexecuted claim with
//! [`Token::try_unclaim`] so a healthy worker re-claims the chunk. Every transition is a CAS, so exactly one
//! executor exists per chunk, a poisoned token can never be resurrected,
//! and remapping races are benign by construction. The state machine is
//! exhaustively model-checked in `cascade_rt::check`.
//!
//! ## Checksummed handoffs
//!
//! When online verification is armed (`VerifyPolicy` in
//! `cascade_rt::govern`), the executor publishes a word-wise FNV-1a
//! digest (`cascade_core::fnv64_words`) of its chunk's committed write
//! footprint, inside the verification packet, *before* the `try_advance`
//! Release, so the downstream claimant's Acquire through the claim CAS
//! makes the packet visible before the next chunk executes. The packet
//! slot is a mutex, its own synchronization; the token's Release/Acquire
//! edge orders its publication before the claim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the guard when the mutex was poisoned by a
/// panicking holder. Every runtime-internal mutex guards plain data whose
/// invariants hold between statements (fault logs, roster membership,
/// backoff stamps), so a panic mid-critical-section cannot leave it torn —
/// recovering is always sound here, and it keeps one panicking worker from
/// cascading `PoisonError` panics through every survivor that touches the
/// same lock.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pads and aligns a value to 128 bytes (two x86-64 prefetch-pair lines)
/// so the token never false-shares a cache line with neighbouring state.
/// Local replacement for `crossbeam::utils::CachePadded` — the offline
/// build vendors no external crates.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Why a token was poisoned: the diagnostic behind [`POISONED`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoisonCause {
    /// A worker panicked while the cascade was running.
    Panicked {
        /// Worker thread index (0-based) that panicked.
        thread: u64,
        /// Chunk the worker owned (or was about to own) when it panicked.
        chunk: u64,
        /// The panic payload, stringified when possible.
        message: String,
    },
    /// The progress watchdog saw no token movement for its whole window.
    Stalled {
        /// The chunk the token was stuck on.
        chunk: u64,
        /// How long the token sat on that chunk before poisoning.
        waited: Duration,
    },
    /// The run was cancelled cooperatively (user cancel, run deadline, or
    /// memory-budget refusal — the governance layer in `cascade_rt::govern`
    /// records which).
    Cancelled {
        /// Human-readable reason recorded by the canceller.
        reason: String,
    },
    /// Online verification caught silent data corruption and the
    /// tolerance offered no recovery path (see `docs/ROBUSTNESS.md`,
    /// "Silent data corruption"): the corrupted chunk was rolled back to
    /// its pre-image before poisoning, so the committed prefix returned
    /// with the typed error never contains a corrupted chunk.
    Corrupted {
        /// The blamed executor, or `None` when the corruption landed
        /// outside every chunk's write footprint (arena-scrubber
        /// detection; no chunk wrote there, so blame is unassignable).
        thread: Option<u64>,
        /// The corrupted chunk, or `None` for out-of-footprint drift.
        chunk: Option<u64>,
        /// Exact loop-local sequential resume point after the rollback:
        /// every iteration below it is committed and uncorrupted.
        resume_at: u64,
    },
    /// Poisoned via the legacy diagnostic-free [`Token::poison`].
    Unspecified,
}

impl std::fmt::Display for PoisonCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoisonCause::Panicked {
                thread,
                chunk,
                message,
            } => {
                write!(
                    f,
                    "worker thread {thread} panicked on chunk {chunk}: {message}"
                )
            }
            PoisonCause::Stalled { chunk, waited } => {
                write!(
                    f,
                    "no progress on chunk {chunk} for {waited:?} (stall declared)"
                )
            }
            PoisonCause::Cancelled { reason } => {
                write!(f, "run cancelled: {reason}")
            }
            PoisonCause::Corrupted {
                thread,
                chunk,
                resume_at,
            } => match (thread, chunk) {
                (Some(t), Some(c)) => write!(
                    f,
                    "silent corruption in chunk {c} blamed on worker {t} \
                     (rolled back; clean through iteration {resume_at})"
                ),
                _ => write!(
                    f,
                    "silent corruption outside every chunk's write footprint \
                     (clean through iteration {resume_at})"
                ),
            },
            PoisonCause::Unspecified => write!(f, "poisoned without diagnostic"),
        }
    }
}

/// Result of a bounded wait ([`Token::wait_for_deadline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The chunk was granted; carries the spin count (contention metric).
    Granted {
        /// Spin iterations before the grant was observed.
        spins: u64,
    },
    /// The token was poisoned; carries the diagnostic.
    Poisoned(PoisonCause),
    /// The deadline passed without grant or poison.
    TimedOut {
        /// Time actually spent waiting.
        waited: Duration,
    },
}

/// A cascaded-execution token: the index of the chunk allowed to execute.
#[derive(Debug, Default)]
pub struct Token {
    counter: CachePadded<AtomicU64>,
    cause: Mutex<Option<PoisonCause>>,
}

/// Counter value marking a poisoned token (a worker panicked or stalled
/// while holding it). No real chunk index can reach this value.
pub const POISONED: u64 = u64::MAX;

/// High bit marking the current chunk as *claimed for execution*: between
/// the winning [`Token::try_claim`] and the [`Token::try_advance`] that
/// publishes the chunk's writes, the counter holds `chunk | EXEC_BIT`.
/// [`POISONED`] also has this bit set; it is excluded everywhere by its
/// reserved value. Real chunk indices must stay below this bit.
pub const EXEC_BIT: u64 = 1 << 63;

/// What the token's raw counter currently encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenView {
    /// Chunk `j` is granted and unclaimed: its owner may claim it.
    Granted(u64),
    /// Chunk `j` is claimed: exactly one worker is executing it.
    Claimed(u64),
    /// The token is poisoned; see [`Token::poison_cause`].
    Poisoned,
}

impl Token {
    /// A token granting chunk 0.
    pub fn new() -> Self {
        Token::default()
    }

    /// Mark the token poisoned: every current and future waiter panics (or
    /// observes [`WaitOutcome::Poisoned`]) instead of spinning forever.
    /// Called when a worker panics mid-chunk, so the failure propagates
    /// instead of deadlocking the remaining workers.
    pub fn poison(&self) {
        self.poison_with(PoisonCause::Unspecified);
    }

    /// Poison with a diagnostic. The first cause wins; later callers (for
    /// instance several waiters declaring the same stall concurrently)
    /// keep the original diagnostic. Returns `true` when `cause` was the
    /// one installed — lets the winning caller alone record a fault event.
    pub fn poison_with(&self, cause: PoisonCause) -> bool {
        let installed = {
            let mut slot = lock_recover(&self.cause);
            if slot.is_none() {
                *slot = Some(cause);
                true
            } else {
                false
            }
        };
        self.counter.store(POISONED, Ordering::Release);
        installed
    }

    /// Has the token been poisoned?
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.counter.load(Ordering::Acquire) == POISONED
    }

    /// The poison diagnostic, if the token is poisoned.
    pub fn poison_cause(&self) -> Option<PoisonCause> {
        if !self.is_poisoned() {
            return None;
        }
        Some(
            lock_recover(&self.cause)
                .clone()
                .unwrap_or(PoisonCause::Unspecified),
        )
    }

    /// The chunk currently licensed to execute (Acquire: pairs with
    /// [`Token::release_to`] so the previous chunk's writes are visible).
    #[inline]
    pub fn current(&self) -> u64 {
        self.counter.load(Ordering::Acquire)
    }

    /// Non-blocking check whether `chunk` may execute now.
    #[inline]
    pub fn is_granted(&self, chunk: u64) -> bool {
        self.current() == chunk
    }

    /// Spin until `chunk` is granted. Returns the number of spin
    /// iterations (a coarse contention metric).
    ///
    /// # Panics
    ///
    /// Panics if the token is poisoned (another worker panicked or was
    /// declared stalled) — spinning forever would deadlock the pool.
    pub fn wait_for(&self, chunk: u64) -> u64 {
        match self.wait_for_deadline(chunk, None) {
            WaitOutcome::Granted { spins } => spins,
            WaitOutcome::Poisoned(cause) => {
                panic!("cascade token poisoned: {cause}")
            }
            WaitOutcome::TimedOut { .. } => unreachable!("no deadline given"),
        }
    }

    /// Spin until `chunk` is granted, the token is poisoned, or `deadline`
    /// (when given) passes — the bounded wait underlying the runtime's
    /// progress watchdog. Never panics.
    pub fn wait_for_deadline(&self, chunk: u64, deadline: Option<Instant>) -> WaitOutcome {
        debug_assert_ne!(chunk, POISONED, "reserved chunk index");
        let started = deadline.map(|_| Instant::now());
        let mut spins = 0u64;
        loop {
            let cur = self.current();
            if cur == chunk {
                return WaitOutcome::Granted { spins };
            }
            if cur == POISONED {
                return WaitOutcome::Poisoned(
                    self.poison_cause().unwrap_or(PoisonCause::Unspecified),
                );
            }
            std::hint::spin_loop();
            spins += 1;
            // On oversubscribed hosts (for instance this crate's tests on a
            // single-CPU machine) pure spinning would starve the token
            // holder; yield periodically. The deadline is also only
            // checked here: Instant::now() per spin would dominate.
            if spins.is_multiple_of(1024) {
                if let (Some(deadline), Some(started)) = (deadline, started) {
                    let now = Instant::now();
                    if now >= deadline {
                        return WaitOutcome::TimedOut {
                            waited: now.duration_since(started),
                        };
                    }
                }
                std::thread::yield_now();
            }
        }
    }

    /// Pass control to `next` (Release: publishes every write made while
    /// holding the token).
    #[inline]
    pub fn release_to(&self, next: u64) {
        self.counter.store(next, Ordering::Release);
    }

    /// Pass control from `held` to `next` only if the token still grants
    /// `held` — fails (returning `false`) when the token was poisoned in
    /// the meantime, so a worker declared dead by the watchdog can never
    /// resurrect the token by overwriting [`POISONED`] with a plain store.
    #[inline]
    pub fn try_release(&self, held: u64, next: u64) -> bool {
        self.counter
            .compare_exchange(held, next, Ordering::Release, Ordering::Acquire)
            .is_ok()
    }

    /// The raw counter value (Acquire). Decode with [`Token::decode`].
    #[inline]
    pub fn raw(&self) -> u64 {
        self.counter.load(Ordering::Acquire)
    }

    /// The chunk index encoded in a raw counter value, with the claim bit
    /// stripped. Meaningless for [`POISONED`].
    #[inline]
    pub fn chunk_index(raw: u64) -> u64 {
        raw & !EXEC_BIT
    }

    /// Decode a raw counter value into its protocol state.
    #[inline]
    pub fn decode(raw: u64) -> TokenView {
        if raw == POISONED {
            TokenView::Poisoned
        } else if raw & EXEC_BIT != 0 {
            TokenView::Claimed(raw & !EXEC_BIT)
        } else {
            TokenView::Granted(raw)
        }
    }

    /// The lowest not-yet-completed chunk (the cascade's progress point),
    /// or `None` when the token is poisoned. A claimed chunk is still in
    /// flight, so it counts as the position.
    #[inline]
    pub fn position(&self) -> Option<u64> {
        match Token::decode(self.raw()) {
            TokenView::Poisoned => None,
            TokenView::Granted(j) | TokenView::Claimed(j) => Some(j),
        }
    }

    /// Claim granted chunk `chunk` for execution: CAS `chunk` →
    /// `chunk | EXEC_BIT`. Exactly one claimant wins even when ownership
    /// remapping makes several workers race for the same chunk; the
    /// Acquire on success pairs with the previous chunk's
    /// [`Token::try_advance`] Release so its writes are visible.
    #[inline]
    pub fn try_claim(&self, chunk: u64) -> bool {
        debug_assert_eq!(chunk & EXEC_BIT, 0, "chunk index overflows claim bit");
        self.counter
            .compare_exchange(chunk, chunk | EXEC_BIT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Publish claimed chunk `chunk` as complete and grant `chunk + 1`:
    /// CAS `chunk | EXEC_BIT` → `chunk + 1` (Release). Fails — returning
    /// `false` — when the token was poisoned while the chunk executed, so
    /// a worker the watchdog declared dead can never resurrect the token
    /// ([`crate::runner::FaultEvent::LateCompletion`]).
    #[inline]
    pub fn try_advance(&self, chunk: u64) -> bool {
        self.counter
            .compare_exchange(
                chunk | EXEC_BIT,
                chunk + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Relinquish claimed-but-unexecuted chunk `chunk`: CAS
    /// `chunk | EXEC_BIT` → `chunk`, re-granting it so a surviving worker
    /// can re-claim. Only sound when the chunk is pristine — the claimant
    /// wrote nothing (fail-stop panic before mutation) or its partial
    /// writes were rolled back from the undo journal *before* this call
    /// (rollback happens-before the re-execution claim); the runner gates
    /// this on [`crate::kernel::RealKernel::panics_before_mutation`] and
    /// [`crate::kernel::RealKernel::journal_rollback`]. Fails when the
    /// token was poisoned in the meantime.
    #[inline]
    pub fn try_unclaim(&self, chunk: u64) -> bool {
        self.counter
            .compare_exchange(chunk | EXEC_BIT, chunk, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_chunk_zero() {
        let t = Token::new();
        assert!(t.is_granted(0));
        assert!(!t.is_granted(1));
    }

    #[test]
    fn release_advances_grant() {
        let t = Token::new();
        t.release_to(1);
        assert_eq!(t.current(), 1);
        assert!(t.is_granted(1));
    }

    #[test]
    fn wait_for_returns_immediately_when_granted() {
        let t = Token::new();
        assert_eq!(t.wait_for(0), 0);
    }

    #[test]
    fn bounded_wait_times_out() {
        let t = Token::new();
        let deadline = Instant::now() + Duration::from_millis(20);
        match t.wait_for_deadline(5, Some(deadline)) {
            WaitOutcome::TimedOut { waited } => {
                assert!(
                    waited >= Duration::from_millis(20),
                    "returned early: {waited:?}"
                )
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn bounded_wait_reports_poison_cause() {
        let t = Token::new();
        t.poison_with(PoisonCause::Stalled {
            chunk: 3,
            waited: Duration::from_millis(7),
        });
        match t.wait_for_deadline(5, None) {
            WaitOutcome::Poisoned(PoisonCause::Stalled { chunk: 3, .. }) => {}
            other => panic!("expected stall diagnostic, got {other:?}"),
        }
        // First cause wins.
        t.poison_with(PoisonCause::Unspecified);
        assert!(matches!(
            t.poison_cause(),
            Some(PoisonCause::Stalled { .. })
        ));
    }

    #[test]
    fn try_release_refuses_poisoned_token() {
        let t = Token::new();
        assert!(t.try_release(0, 1));
        t.poison();
        assert!(
            !t.try_release(1, 2),
            "CAS release must not resurrect a poisoned token"
        );
        assert!(t.is_poisoned());
    }

    #[test]
    fn claim_protocol_round_trip() {
        let t = Token::new();
        assert_eq!(Token::decode(t.raw()), TokenView::Granted(0));
        assert!(t.try_claim(0), "owner claims the granted chunk");
        assert!(!t.try_claim(0), "a second claimant must lose the CAS");
        assert_eq!(Token::decode(t.raw()), TokenView::Claimed(0));
        assert_eq!(t.position(), Some(0), "a claimed chunk is still in flight");
        assert!(t.try_advance(0));
        assert_eq!(Token::decode(t.raw()), TokenView::Granted(1));
        assert_eq!(t.position(), Some(1));
    }

    #[test]
    fn unclaim_regrants_for_retry() {
        let t = Token::new();
        assert!(t.try_claim(0));
        assert!(t.try_unclaim(0), "fail-stop panic relinquishes the claim");
        assert_eq!(Token::decode(t.raw()), TokenView::Granted(0));
        assert!(t.try_claim(0), "a survivor re-claims the retried chunk");
        assert!(t.try_advance(0));
        assert_eq!(t.current(), 1);
    }

    #[test]
    fn poison_defeats_every_cas_transition() {
        let t = Token::new();
        assert!(t.try_claim(0));
        t.poison();
        assert!(!t.try_advance(0), "advance must not resurrect poison");
        assert!(!t.try_unclaim(0), "unclaim must not resurrect poison");
        assert!(!t.try_claim(0));
        assert_eq!(t.position(), None);
        assert!(t.is_poisoned());
    }

    #[test]
    fn exactly_one_claimant_under_contention() {
        // Many threads race to claim each chunk of a short cascade; the
        // CAS must admit exactly one executor per chunk.
        use std::sync::atomic::AtomicU64;
        const CHUNKS: u64 = 50;
        let t = Token::new();
        let wins: Vec<AtomicU64> = (0..CHUNKS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    let raw = t.raw();
                    match Token::decode(raw) {
                        TokenView::Poisoned => unreachable!(),
                        TokenView::Granted(j) if j >= CHUNKS => break,
                        TokenView::Granted(j) => {
                            if t.try_claim(j) {
                                wins[j as usize].fetch_add(1, Ordering::Relaxed);
                                assert!(t.try_advance(j));
                            }
                        }
                        TokenView::Claimed(_) => std::hint::spin_loop(),
                    }
                });
            }
        });
        for (j, w) in wins.iter().enumerate() {
            assert_eq!(w.load(Ordering::Relaxed), 1, "chunk {j} executors");
        }
    }

    #[test]
    fn token_serializes_two_threads() {
        // Two threads alternate chunks 0..100; a shared (non-atomic would
        // be UB, so atomic relaxed) log must come out strictly ordered.
        use std::sync::atomic::AtomicUsize;
        let t = Token::new();
        let log: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let next_slot = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (t, log, next_slot) = (&t, &log, &next_slot);
            for me in 0..2u64 {
                s.spawn(move || {
                    let mut chunk = me;
                    while chunk < 100 {
                        t.wait_for(chunk);
                        let slot = next_slot.fetch_add(1, Ordering::Relaxed);
                        log[slot].store(chunk as usize, Ordering::Relaxed);
                        t.release_to(chunk + 1);
                        chunk += 2;
                    }
                });
            }
        });
        for (i, entry) in log.iter().enumerate() {
            assert_eq!(
                entry.load(Ordering::Relaxed),
                i,
                "chunks must execute in order"
            );
        }
    }

    #[test]
    fn release_publishes_data_writes() {
        // The Release/Acquire pairing must carry non-atomic payload writes.
        let t = Token::new();
        let mut payload = 0u64;
        let p = &mut payload as *mut u64 as usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                // SAFETY: exclusive access while holding chunk 0; the
                // Release store in release_to publishes the write.
                unsafe { *(p as *mut u64) = 42 };
                t.release_to(1);
            });
            s.spawn(|| {
                t.wait_for(1);
                // SAFETY: Acquire load observed chunk 1, so the write
                // above happens-before this read.
                let v = unsafe { *(p as *const u64) };
                assert_eq!(v, 42);
            });
        });
    }
}
