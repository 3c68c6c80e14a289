//! Property tests for analyzer-bounded undo journals.
//!
//! For randomized alias-heavy loops — overlapping affine writes plus
//! colliding indirect scatters, including several scatters aliasing the
//! same array — `journal_capture` + a (possibly partial) execution +
//! `journal_rollback` must restore the **entire** arena bitwise. The
//! oracle is a full byte-for-byte snapshot of the arena taken before the
//! capture, *not* the analyzer's own footprints, so an under-approximated
//! write-set cannot hide: any stray byte the journal failed to cover
//! fails the comparison.

use cascade_rt::{RealKernel, SpecProgram};
use proptest::collection::vec;
use proptest::prelude::*;

mod common;
use common::{raw_shape, RawShape};

#[derive(Debug, Clone)]
struct Scenario {
    iters: u64,
    shapes: Vec<RawShape>,
    /// The journaled chunk (lo < hi <= iters).
    chunk: (u64, u64),
    /// How many iterations of the chunk land before the "interruption".
    prefix: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        64u64..200,
        vec(raw_shape(), 1..4),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(iters, shapes, a, b, c)| {
            let lo = a % (iters - 1);
            let hi = (lo + 1 + b % (iters - lo - 1).max(1)).min(iters);
            let prefix = c % (hi - lo + 1);
            Scenario {
                iters,
                shapes,
                chunk: (lo, hi),
                prefix,
            }
        })
}

fn build(s: &Scenario) -> SpecProgram {
    common::build("journal-prop", s.iters, &s.shapes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rollback after an *interrupted* chunk (only `prefix` iterations
    /// of it ran) restores the full arena bitwise.
    #[test]
    fn rollback_restores_interrupted_chunks_bitwise(s in scenario()) {
        let mut prog = build(&s);
        let (lo, hi) = s.chunk;
        let snapshot = prog.arena_mut().bytes().to_vec();
        let mut jbuf = Vec::new();
        {
            let k = prog.kernel(0);
            // SAFETY: single-threaded test, trivially exclusive.
            prop_assert!(unsafe { k.journal_capture(lo..hi, &mut jbuf) },
                "affine and index-store-bounded write-sets must be journalable");
            // SAFETY: as above.
            unsafe { k.execute(lo..lo + s.prefix) };
            // SAFETY: as above; `jbuf` is the unmodified capture.
            unsafe { k.journal_rollback(lo..hi, &jbuf) };
        }
        prop_assert_eq!(
            prog.arena_mut().bytes(), snapshot.as_slice(),
            "rollback left the arena different from the pre-chunk snapshot"
        );
    }

    /// Re-execution after a rollback produces exactly the bytes a single
    /// uninterrupted execution would have: the journal round-trip is
    /// invisible to the final result.
    #[test]
    fn reexecution_after_rollback_matches_straight_execution(s in scenario()) {
        let (lo, hi) = s.chunk;
        let mut straight = build(&s);
        {
            let k = straight.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(lo..hi) };
        }
        let mut journaled = build(&s);
        {
            let k = journaled.kernel(0);
            let mut jbuf = Vec::new();
            // SAFETY: single-threaded.
            prop_assert!(
                unsafe { k.journal_capture(lo..hi, &mut jbuf) },
                "capture must succeed"
            );
            // SAFETY: as above.
            unsafe { k.execute(lo..lo + s.prefix) };
            // SAFETY: as above.
            unsafe { k.journal_rollback(lo..hi, &jbuf) };
            // SAFETY: as above — the retry.
            unsafe { k.execute(lo..hi) };
        }
        prop_assert_eq!(journaled.checksum(), straight.checksum());
    }
}
