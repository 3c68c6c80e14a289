//! Worker health tracking for in-cascade fault recovery: heartbeats,
//! strike counts with exponential backoff, and quarantine.
//!
//! The recovery ladder (see `docs/ROBUSTNESS.md`) needs to distinguish a
//! worker that is *slow* (transient stall: deschedule, long chunk) from
//! one that is *gone* (crashed, wedged). The [`HealthRegistry`] makes that
//! call: each time a watchdog window expires on a suspect worker the
//! detector records a **strike**, and the suspect is granted an
//! exponentially growing backoff window (`backoff * 2^strikes`) to
//! show progress. A worker whose **heartbeat** (completed-chunk counter)
//! advances between strikes is healed — its strikes reset. Only when
//! `strike_limit` consecutive no-progress strikes accumulate is the worker
//! **quarantined**: removed from the ownership roster so its remaining
//! chunks are remapped across survivors, never to execute again in this
//! run (or, for a loop sequence, any later loop).
//!
//! All state is atomics plus one timestamp mutex per worker; the hot path
//! (a heartbeat per completed chunk, a quarantine check per poll batch)
//! never takes a lock. Each worker's entry has its own 128-byte block, so
//! one worker's heartbeat never writes a line another worker reads.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::runner::RetryPolicy;
use crate::token::{lock_recover, CachePadded};

/// What a detector should do about a suspect worker after a strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeVerdict {
    /// Give the suspect this much longer before striking again; the
    /// duration grows exponentially with the strike count.
    Backoff {
        /// How long to extend the watch before the next strike.
        wait: Duration,
        /// `true` when this call recorded a new strike; `false` when it
        /// was rate-limited into an already-open backoff window (so only
        /// one detector records the strike event).
        fresh: bool,
    },
    /// The strike limit is exhausted: quarantine the suspect.
    Quarantine,
}

#[derive(Debug)]
struct WorkerHealth {
    /// Completed-chunk counter: the worker's progress heartbeat.
    heartbeats: AtomicU64,
    /// Consecutive no-progress strikes.
    strikes: AtomicU32,
    /// Heartbeat value observed at the last strike (healing detector).
    beat_at_strike: AtomicU64,
    /// Proven corruption verdicts against this worker (never healed:
    /// wrong bytes are not a transient condition the way a stall is).
    corruption_strikes: AtomicU32,
    quarantined: AtomicBool,
    /// When the current backoff window ends; rate-limits concurrent
    /// detectors so N waiters striking at once count as one strike.
    backoff_until: Mutex<Option<Instant>>,
}

impl WorkerHealth {
    fn new() -> Self {
        WorkerHealth {
            heartbeats: AtomicU64::new(0),
            strikes: AtomicU32::new(0),
            beat_at_strike: AtomicU64::new(0),
            corruption_strikes: AtomicU32::new(0),
            quarantined: AtomicBool::new(false),
            backoff_until: Mutex::new(None),
        }
    }
}

/// Per-run (or per-sequence) health state of every worker thread.
#[derive(Debug)]
pub struct HealthRegistry {
    /// The strike ladder's knobs: `strike_limit` and `backoff`.
    cfg: RetryPolicy,
    workers: Vec<CachePadded<WorkerHealth>>,
}

impl HealthRegistry {
    /// A registry for `nthreads` workers, all healthy, striking under
    /// `cfg`'s `strike_limit` and `backoff` (its `budget` is the
    /// runner's, not the registry's).
    pub fn new(nthreads: usize, cfg: RetryPolicy) -> Self {
        HealthRegistry {
            cfg,
            workers: (0..nthreads)
                .map(|_| CachePadded(WorkerHealth::new()))
                .collect(),
        }
    }

    /// Record progress for worker `t` (called once per completed chunk).
    #[inline]
    pub fn heartbeat(&self, t: u64) {
        self.workers[t as usize]
            .heartbeats
            .fetch_add(1, Ordering::Release);
    }

    /// Record a no-progress strike against suspect `t`, returning what the
    /// detector should do. Strikes are rate-limited: while a backoff
    /// window is open, concurrent detectors get the remaining window
    /// instead of a fresh strike. A heartbeat since the last strike heals
    /// the suspect (strikes reset) — suspicion must be *consecutive*.
    pub fn strike(&self, t: u64) -> StrikeVerdict {
        let w = &self.workers[t as usize];
        let now = Instant::now();
        // A worker can panic while holding this lock (the injected-fault
        // tests do exactly that); recover instead of letting one fault
        // cascade `PoisonError` panics through every surviving detector.
        let mut until = lock_recover(&w.backoff_until);
        if let Some(deadline) = *until {
            if now < deadline {
                return StrikeVerdict::Backoff {
                    wait: deadline - now,
                    fresh: false,
                };
            }
        }
        let beats = w.heartbeats.load(Ordering::Acquire);
        if beats > w.beat_at_strike.load(Ordering::Acquire) {
            // Progress since the last strike: transient, heal.
            w.strikes.store(0, Ordering::Release);
        }
        w.beat_at_strike.store(beats, Ordering::Release);
        let strikes = w.strikes.fetch_add(1, Ordering::AcqRel) + 1;
        if strikes > self.cfg.strike_limit {
            return StrikeVerdict::Quarantine;
        }
        let backoff = self
            .cfg
            .backoff
            .saturating_mul(1u32 << (strikes - 1).min(16));
        *until = Some(now + backoff);
        StrikeVerdict::Backoff {
            wait: backoff,
            fresh: true,
        }
    }

    /// Current strike count of worker `t`.
    pub fn strikes(&self, t: u64) -> u32 {
        self.workers[t as usize].strikes.load(Ordering::Acquire)
    }

    /// Record a *proven* corruption verdict against worker `t` (blame
    /// assigned by the tiebreak re-execution — see `docs/ROBUSTNESS.md`,
    /// "Silent data corruption"). Unlike stall strikes, corruption
    /// strikes never heal: a worker that computed wrong bytes once is
    /// suspect for the rest of the run. Returns `true` when the strike
    /// crossed the repeat threshold and the worker should be quarantined
    /// (the first offense is recovered in place; the second removes the
    /// worker from the roster).
    pub fn corruption_strike(&self, t: u64) -> bool {
        let strikes = self.workers[t as usize]
            .corruption_strikes
            .fetch_add(1, Ordering::AcqRel)
            + 1;
        strikes >= 2
    }

    /// Proven corruption verdicts against worker `t`.
    pub fn corruption_strikes(&self, t: u64) -> u32 {
        self.workers[t as usize]
            .corruption_strikes
            .load(Ordering::Acquire)
    }

    /// Quarantine worker `t`. Returns `true` for the first caller (who
    /// alone records the fault event and remaps the roster).
    pub fn quarantine(&self, t: u64) -> bool {
        !self.workers[t as usize]
            .quarantined
            .swap(true, Ordering::AcqRel)
    }

    /// Is worker `t` quarantined?
    #[inline]
    pub fn is_quarantined(&self, t: u64) -> bool {
        self.workers[t as usize].quarantined.load(Ordering::Acquire)
    }

    /// Thread ids not quarantined, ascending.
    pub fn live(&self) -> Vec<u64> {
        (0..self.workers.len() as u64)
            .filter(|&t| !self.is_quarantined(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> RetryPolicy {
        RetryPolicy {
            strike_limit: 2,
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        }
    }

    /// Layout pin: two workers' entries never share a 128-byte block, so
    /// a heartbeat does not false-share with the other worker's reads.
    #[test]
    fn worker_entries_sit_on_their_own_blocks() {
        use std::mem::align_of;
        assert_eq!(align_of::<CachePadded<WorkerHealth>>(), 128);
        let h = HealthRegistry::new(2, fast_cfg());
        let at = |t: usize| &h.workers[t].heartbeats as *const AtomicU64 as usize;
        assert!(
            at(1) - at(0) >= 128,
            "entries {} bytes apart",
            at(1) - at(0)
        );
    }

    #[test]
    fn strikes_escalate_to_quarantine() {
        let h = HealthRegistry::new(2, fast_cfg());
        match h.strike(1) {
            StrikeVerdict::Backoff { wait, fresh } => {
                assert_eq!(wait, Duration::from_millis(1));
                assert!(fresh);
            }
            v => panic!("expected first backoff, got {v:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
        match h.strike(1) {
            StrikeVerdict::Backoff { wait, fresh } => {
                assert_eq!(wait, Duration::from_millis(2), "doubles");
                assert!(fresh);
            }
            v => panic!("expected second backoff, got {v:?}"),
        }
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(h.strike(1), StrikeVerdict::Quarantine);
        assert!(h.quarantine(1), "first quarantine call wins");
        assert!(!h.quarantine(1), "second is a no-op");
        assert!(h.is_quarantined(1));
        assert!(!h.is_quarantined(0));
        assert_eq!(h.live(), vec![0]);
    }

    #[test]
    fn corruption_strikes_quarantine_on_repeat_and_never_heal() {
        let h = HealthRegistry::new(2, fast_cfg());
        assert!(!h.corruption_strike(1), "first offense: recover in place");
        assert_eq!(h.corruption_strikes(1), 1);
        // Progress heals *stall* strikes, never corruption verdicts.
        h.heartbeat(1);
        assert_eq!(h.corruption_strikes(1), 1);
        assert!(h.corruption_strike(1), "second offense: quarantine");
        assert_eq!(h.corruption_strikes(1), 2);
        assert_eq!(h.corruption_strikes(0), 0, "innocent worker untouched");
    }

    #[test]
    fn heartbeat_heals_strikes() {
        let h = HealthRegistry::new(1, fast_cfg());
        assert!(matches!(h.strike(0), StrikeVerdict::Backoff { .. }));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(h.strike(0), StrikeVerdict::Backoff { .. }));
        assert_eq!(h.strikes(0), 2);
        // The suspect makes progress: suspicion resets instead of
        // escalating to quarantine on the next strike.
        h.heartbeat(0);
        std::thread::sleep(Duration::from_millis(5));
        match h.strike(0) {
            StrikeVerdict::Backoff { .. } => {}
            v => panic!("healed worker must not be quarantined, got {v:?}"),
        }
        assert_eq!(h.strikes(0), 1, "strikes reset on progress");
    }

    /// Regression: a worker panicking while it holds `backoff_until`
    /// poisons the mutex; `strike` must recover the guard and keep
    /// functioning instead of turning one fault into a registry-wide
    /// panic cascade.
    #[test]
    fn strike_survives_a_lock_poisoned_by_a_panicking_holder() {
        let h = std::sync::Arc::new(HealthRegistry::new(1, fast_cfg()));
        let h2 = h.clone();
        let _ = std::thread::spawn(move || {
            let _guard = h2.workers[0].backoff_until.lock().unwrap();
            panic!("die holding the backoff lock");
        })
        .join();
        assert!(h.workers[0].backoff_until.is_poisoned());
        match h.strike(0) {
            StrikeVerdict::Backoff { fresh: true, .. } => {}
            v => panic!("strike must survive the poisoned lock, got {v:?}"),
        }
        assert_eq!(h.strikes(0), 1);
    }

    #[test]
    fn concurrent_strikes_within_backoff_count_once() {
        let h = HealthRegistry::new(
            1,
            RetryPolicy {
                strike_limit: 2,
                backoff: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
        );
        assert!(matches!(
            h.strike(0),
            StrikeVerdict::Backoff { fresh: true, .. }
        ));
        // A second detector inside the open window must not escalate.
        assert!(matches!(
            h.strike(0),
            StrikeVerdict::Backoff { fresh: false, .. }
        ));
        assert_eq!(h.strikes(0), 1, "rate-limited to one strike per window");
    }
}
