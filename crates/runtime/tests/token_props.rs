//! Property tests of the token protocol's CAS transitions: arbitrary
//! poison/grant races must never admit two executors for one chunk, never
//! lose a grant, and never let a completed-late worker resurrect a
//! poisoned token. These pin the same invariants the exhaustive model
//! checker (`src/check.rs`, compiled only into the unit tests) proves on
//! the modeled state machine, but against the *real* `Token` under
//! randomized operation sequences and real-thread races.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cascade_rt::{PoisonCause, Token, TokenView};
use proptest::prelude::*;

/// One operation of a randomized single-threaded protocol drive. The
/// reference model ([`Model`]) predicts whether each CAS must succeed;
/// divergence between prediction and the real `Token` is a protocol bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `try_claim(current + delta)` — only `delta == 0` may win.
    Claim { delta: u64 },
    /// `try_advance(current)` — wins iff the current chunk is claimed.
    Advance,
    /// `try_unclaim(current)` — wins iff the current chunk is claimed.
    Unclaim,
    /// `poison_with(..)` — always final.
    Poison,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..3).prop_map(|delta| Op::Claim { delta }),
        Just(Op::Advance),
        Just(Op::Unclaim),
        Just(Op::Poison),
    ]
}

/// Reference model of the token: what the counter must decode to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Granted(u64),
    Claimed(u64),
    Poisoned,
}

impl Model {
    fn view(self) -> TokenView {
        match self {
            Model::Granted(j) => TokenView::Granted(j),
            Model::Claimed(j) => TokenView::Claimed(j),
            Model::Poisoned => TokenView::Poisoned,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model-based drive: for any operation sequence, every CAS outcome
    /// matches the reference model's prediction and the token never
    /// reaches a state outside {granted, claimed, poisoned} — no grant is
    /// ever lost, no claim duplicated, no poison overwritten.
    #[test]
    fn cas_transitions_match_reference_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let t = Token::new();
        let mut model = Model::Granted(0);
        for (i, op) in ops.iter().enumerate() {
            let position = match model {
                Model::Granted(j) | Model::Claimed(j) => j,
                Model::Poisoned => 0, // arbitrary: every CAS must fail anyway
            };
            match *op {
                Op::Claim { delta } => {
                    let won = t.try_claim(position + delta);
                    let expect = delta == 0 && matches!(model, Model::Granted(_));
                    prop_assert_eq!(won, expect, "op {}: claim(+{})", i, delta);
                    if won {
                        model = Model::Claimed(position);
                    }
                }
                Op::Advance => {
                    let won = t.try_advance(position);
                    let expect = matches!(model, Model::Claimed(_));
                    prop_assert_eq!(won, expect, "op {}: advance", i);
                    if won {
                        model = Model::Granted(position + 1);
                    }
                }
                Op::Unclaim => {
                    let won = t.try_unclaim(position);
                    let expect = matches!(model, Model::Claimed(_));
                    prop_assert_eq!(won, expect, "op {}: unclaim", i);
                    if won {
                        model = Model::Granted(position);
                    }
                }
                Op::Poison => {
                    t.poison_with(PoisonCause::Panicked {
                        thread: 0,
                        chunk: position,
                        message: format!("injected at op {i}"),
                    });
                    model = Model::Poisoned;
                }
            }
            prop_assert_eq!(Token::decode(t.raw()), model.view(), "op {}: state diverged", i);
        }
    }

    /// First cause wins: whatever the op sequence, the diagnostic behind a
    /// poisoned token is the first one installed, and no CAS transition
    /// (`try_claim` / `try_advance` / `try_unclaim`) resurrects it.
    #[test]
    fn poison_is_final_and_first_cause_wins(
        first_chunk in 0u64..100,
        later in prop::collection::vec(0u64..100, 0..8),
    ) {
        let t = Token::new();
        let installed = t.poison_with(PoisonCause::Stalled {
            chunk: first_chunk,
            waited: Duration::from_millis(1),
        });
        prop_assert!(installed, "the first poison call must install its cause");
        for &c in &later {
            let displaced = t.poison_with(PoisonCause::Panicked {
                thread: c,
                chunk: c,
                message: "late".into(),
            });
            prop_assert!(!displaced, "a later cause must not displace the first");
            prop_assert!(!t.try_advance(c));
            prop_assert!(!t.try_claim(c));
            prop_assert!(!t.try_unclaim(c));
        }
        match t.poison_cause() {
            Some(PoisonCause::Stalled { chunk, .. }) => prop_assert_eq!(chunk, first_chunk),
            other => return Err(TestCaseError::fail(format!("first cause lost: {other:?}"))),
        }
    }

    /// Real-thread claim race with fail-stop retries: for any chunk count,
    /// thread count, and set of chunks whose first claimant relinquishes
    /// (modeling a fail-stop panic before mutation), every chunk is
    /// *executed* (advanced) exactly once and the final grant is exactly
    /// `chunks` — two executors and lost grants are both impossible.
    #[test]
    fn claim_race_admits_exactly_one_executor_per_chunk(
        chunks in 1u64..24,
        nthreads in 2usize..5,
        unclaim_mask in any::<u32>(),
    ) {
        let t = Token::new();
        let executed: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
        let relinquished: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..nthreads {
                s.spawn(|| loop {
                    match Token::decode(t.raw()) {
                        TokenView::Poisoned => unreachable!("nobody poisons here"),
                        TokenView::Granted(j) if j >= chunks => break,
                        TokenView::Granted(j) => {
                            if t.try_claim(j) {
                                let fail_stop = unclaim_mask >> (j % 32) & 1 == 1;
                                if fail_stop
                                    && relinquished[j as usize].fetch_add(1, Ordering::Relaxed) == 0
                                {
                                    // First claimant "panics before
                                    // mutation": relinquish for a retry.
                                    assert!(t.try_unclaim(j));
                                } else {
                                    executed[j as usize].fetch_add(1, Ordering::Relaxed);
                                    assert!(t.try_advance(j));
                                }
                            }
                        }
                        TokenView::Claimed(_) => std::hint::spin_loop(),
                    }
                });
            }
        });
        for (j, e) in executed.iter().enumerate() {
            prop_assert_eq!(e.load(Ordering::Relaxed), 1, "chunk {} executor count", j);
        }
        prop_assert_eq!(t.current(), chunks, "final grant lost or duplicated");
    }
}
