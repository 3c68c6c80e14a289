//! A poisonable barrier for the persistent-pool sequence runner.
//!
//! `std::sync::Barrier` deadlocks the survivors when one participant dies:
//! the barrier keeps waiting for an arrival that will never come. The
//! sequence runner instead uses this [`FtBarrier`], which any participant
//! can [`FtBarrier::poison`] — every current waiter wakes immediately and
//! every future wait returns [`BarrierOutcome::Poisoned`], so the pool
//! drains promptly after a fault instead of hanging between loops.

use std::sync::{Condvar, Mutex};

/// How a barrier wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// All participants arrived; this caller is the generation's leader
    /// (exactly one per generation, like `BarrierWaitResult::is_leader`).
    Leader,
    /// All participants arrived; another caller leads this generation.
    Follower,
    /// The barrier was poisoned (a participant died); stop using it.
    Poisoned,
}

#[derive(Debug)]
struct State {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// A cyclic barrier for `n` participants that survives participant death.
#[derive(Debug)]
pub struct FtBarrier {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl FtBarrier {
    /// A barrier for `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        FtBarrier {
            n,
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` participants arrive or the barrier is poisoned.
    /// A generation that completed stays complete: a waiter it released
    /// returns `Follower` even if a participant that left first poisoned
    /// the barrier before the waiter woke, so every participant of a
    /// released generation enters the work behind it (a pipelined pair's
    /// producer depends on it) and meets the poison at its next wait.
    pub fn wait(&self) -> BarrierOutcome {
        let mut st = self.state.lock().unwrap();
        if st.poisoned {
            return BarrierOutcome::Poisoned;
        }
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return BarrierOutcome::Leader;
        }
        let gen = st.generation;
        loop {
            st = self.cv.wait(st).unwrap();
            if st.generation != gen {
                return BarrierOutcome::Follower;
            }
            if st.poisoned {
                return BarrierOutcome::Poisoned;
            }
        }
    }

    /// Poison the barrier: wake every waiter of an incomplete generation
    /// with [`BarrierOutcome::Poisoned`] and make all future waits return
    /// it immediately.
    pub fn poison(&self) {
        let mut st = self.state.lock().unwrap();
        st.poisoned = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn rendezvous_has_exactly_one_leader_per_generation() {
        let b = FtBarrier::new(4);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        if b.wait() == BarrierOutcome::Leader {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            leaders.load(Ordering::Relaxed),
            10,
            "one leader per generation"
        );
    }

    #[test]
    fn poison_unblocks_waiters_and_future_waits() {
        let b = FtBarrier::new(3);
        let poisoned_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    if b.wait() == BarrierOutcome::Poisoned {
                        poisoned_seen.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // The third participant dies instead of arriving.
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                b.poison();
            });
        });
        assert_eq!(
            poisoned_seen.load(Ordering::Relaxed),
            2,
            "both waiters must wake poisoned"
        );
        assert_eq!(
            b.wait(),
            BarrierOutcome::Poisoned,
            "future waits return immediately"
        );
    }

    #[test]
    fn a_completed_generation_survives_a_poison_before_its_waiter_wakes() {
        for _ in 0..20 {
            let b = FtBarrier::new(2);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| b.wait());
                // Arrive second, so this thread completes the generation,
                // and poison before the waiter can wake.
                while b.state.lock().unwrap().arrived == 0 {
                    std::thread::yield_now();
                }
                assert_eq!(b.wait(), BarrierOutcome::Leader);
                b.poison();
                assert_eq!(waiter.join().unwrap(), BarrierOutcome::Follower);
            });
            assert_eq!(b.wait(), BarrierOutcome::Poisoned, "the next wait sees it");
        }
    }

    #[test]
    fn single_participant_always_leads() {
        let b = FtBarrier::new(1);
        assert_eq!(b.wait(), BarrierOutcome::Leader);
        assert_eq!(b.wait(), BarrierOutcome::Leader);
    }
}
