//! Property tests for plan-driven execution ([`try_run_planned`]).
//!
//! Randomized multi-writer loops — an optional carried recurrence
//! (lag 1 → sequential residue, lag ≥ 2 → DOACROSS pipeline), affine
//! DOALL writers, and colliding indirect scatters — are fissioned under
//! their real `cascade-analyze` transformation plans and executed on
//! 2–4 real threads. The oracle is always the same: the final arena
//! checksum must be **bitwise identical** to straight sequential
//! execution of the unfissioned loop. Fault-injection and cancellation
//! properties additionally pin the recovery contract: a salvaged run is
//! still bitwise, and a cancelled run reports a committed prefix of the
//! fissioned sequence that resumes bitwise.
//!
//! Two deterministic regressions ride along: the DOACROSS replay oracle
//! executed through the real interpreter proves that honoring the
//! planned lag is bitwise — and that waiting one dependence short of
//! the lag (`doacross_order` with `window = lag + 1`) really corrupts
//! the result.

use std::time::Duration;

use cascade_analyze::plan::{plan_loop, Schedule};
use cascade_rt::{
    doacross_order, fission_specs, try_run_planned, CancelToken, FaultKind, FaultPlan,
    FaultyKernel, Observe, RealKernel, RtPolicy, RunConfig, RunError, RunnerConfig, SpecProgram,
    Tolerance, VerifyPolicy,
};
use cascade_trace::{
    AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};
use proptest::prelude::*;

mod common;
use common::splitmix64;

/// One randomized planned-execution scenario. Writers live on distinct
/// arrays so the planner fissions them into independent sub-loops; the
/// recurrence (if any) anchors a sequential or DOACROSS sub-loop that
/// every consumer transitively depends on through the shared read of
/// `a`.
#[derive(Debug, Clone)]
struct Scenario {
    iters: u64,
    /// Carried recurrence `a(i+lag) = f(a(i))`; `None` drops it.
    lag: Option<u64>,
    /// Independent affine writer `x(i)`.
    xw: bool,
    /// Independent affine read-modify-write `y(i)`.
    yw: bool,
    /// Colliding indirect scatter `sc(ij(i))` (order-sensitive RMW).
    scatter: Option<u64>,
    threads: usize,
    chunk: u64,
    salt: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        64u64..300,
        prop_oneof![
            Just(None),
            (1u64..=3).prop_map(Some), // lag 1 → Sequential, 2–3 → DoAcross
        ],
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        2usize..=4,
        8u64..=96,
        any::<u64>(),
    )
        .prop_map(
            |(iters, lag, xw, yw, scatter, threads, chunk, salt)| Scenario {
                iters,
                lag,
                xw,
                yw,
                scatter,
                threads,
                chunk,
                salt,
            },
        )
        .prop_filter("at least one writer", |s| {
            s.lag.is_some() || s.xw || s.yw || s.scatter.is_some()
        })
}

/// Materialize the scenario as a single-loop workload plus initialized
/// arena.
fn build(s: &Scenario) -> (Workload, Arena) {
    let n = s.iters;
    let mut space = AddressSpace::new();
    let src = space.alloc("src", 8, n);
    let a = space.alloc("a", 8, n + 4);
    let x = space.alloc("x", 8, n);
    let y = space.alloc("y", 8, n);
    let sc_elems = (n / 3).max(4);
    let sc = space.alloc("sc", 8, sc_elems);
    let mut index = IndexStore::new();

    let aff = |name: &'static str, array, base: i64, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base, stride: 1 },
        mode,
        bytes: 8,
        hoistable: false,
    };
    let mut refs = vec![aff("src(i)", src, 0, Mode::Read)];
    if let Some(lag) = s.lag {
        refs.push(aff("a(i)", a, 0, Mode::Read));
        const A_NAMES: [&str; 3] = ["a(i+1)", "a(i+2)", "a(i+3)"];
        refs.push(aff(A_NAMES[lag as usize - 1], a, lag as i64, Mode::Write));
    }
    if s.xw {
        refs.push(aff("x(i)", x, 0, Mode::Write));
    }
    if s.yw {
        refs.push(aff("y(i)", y, 0, Mode::Modify));
    }
    if let Some(seed) = s.scatter {
        let ij = space.alloc("ij", 4, n);
        let bound = (sc_elems / 2).max(2);
        index.set(
            ij,
            (0..n)
                .map(|i| (splitmix64(seed ^ i) % bound) as u32)
                .collect(),
        );
        refs.push(StreamRef {
            name: "sc(ij(i))",
            array: sc,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Modify,
            bytes: 8,
            hoistable: false,
        });
    }
    let spec = LoopSpec {
        name: "planned-prop".into(),
        iters: n,
        refs,
        compute: 2.0,
        hoistable_compute: 0.0,
        hoist_result_bytes: 0,
    };
    let w = Workload {
        space,
        index,
        loops: vec![spec],
    };
    let mut arena = Arena::new(&w.space);
    for i in 0..n {
        arena.set_f64(&w.space, src, i, ((i ^ s.salt) % 31) as f64 * 0.375 + 0.5);
    }
    for i in 0..n + 4 {
        arena.set_f64(
            &w.space,
            a,
            i,
            ((i.wrapping_add(s.salt)) % 17) as f64 * 0.125 - 1.0,
        );
    }
    for i in 0..n {
        arena.set_f64(&w.space, y, i, (i % 7) as f64 * 0.25 + 0.125);
    }
    for i in 0..sc_elems {
        arena.set_f64(&w.space, sc, i, (i % 5) as f64 * 0.5 - 0.75);
    }
    arena.install_indices(&w.space, &w.index);
    (w, arena)
}

/// Checksum of the unfissioned sequential run.
fn sequential_checksum(w: &Workload, arena: Arena) -> u64 {
    let mut prog = SpecProgram::new(w.clone(), arena).expect("workload must be admitted");
    {
        let k = prog.kernel(0);
        // SAFETY: single-threaded.
        unsafe { k.execute(0..k.iters()) };
    }
    prog.checksum()
}

/// Fission `w.loops[0]` under its plan and return the ready program.
fn fissioned_program(
    w: &Workload,
    arena: Arena,
) -> (SpecProgram, cascade_analyze::plan::TransformPlan) {
    let plan = plan_loop(w, &w.loops[0]);
    assert!(
        !plan.partition.is_empty(),
        "generated loops are analyzable: {plan:?}"
    );
    let specs = fission_specs(&w.loops[0], &plan);
    let fw = Workload {
        space: w.space.clone(),
        index: w.index.clone(),
        loops: specs,
    };
    let prog = SpecProgram::new(fw, arena).expect("fissioned workload must be admitted");
    (prog, plan)
}

fn runner(s: &Scenario) -> RunnerConfig {
    RunnerConfig {
        nthreads: s.threads,
        iters_per_chunk: s.chunk,
        policy: RtPolicy::Restructure,
        poll_batch: 8,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan-driven execution on 2–4 real threads — DOALL range splits,
    /// DOACROSS post/wait pipelines, cascaded sequential residues, in
    /// plan order — is bitwise identical to sequential execution.
    #[test]
    fn planned_execution_matches_sequential_bitwise(s in scenario()) {
        let (w, arena) = build(&s);
        let expected = sequential_checksum(&w, arena.clone());
        let (mut prog, plan) = fissioned_program(&w, arena);
        let stats = {
            let kernels: Vec<_> =
                (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
            let cfg = RunConfig { runner: runner(&s), ..RunConfig::default() };
            try_run_planned(&kernels, &plan, &cfg).expect("clean planned run must succeed")
        };
        prop_assert_eq!(stats.iters, plan.iters * plan.partition.len() as u64);
        prop_assert_eq!(
            prog.checksum(), expected,
            "planned execution diverged (plan: {:?})",
            plan.partition
        );
    }

    /// Fail-stop and mid-mutation panics injected into random sub-loop
    /// chunks: with all-affine (journalable) writers and a salvaging
    /// tolerance the planned run must still complete — degraded at
    /// worst — and remain bitwise.
    #[test]
    fn planned_execution_salvages_injected_faults_bitwise(
        s in scenario().prop_map(|mut s| { s.scatter = None; s }),
        pick in any::<u64>(),
        mid in any::<bool>(),
    ) {
        let (w, arena) = build(&s);
        let expected = sequential_checksum(&w, arena.clone());
        let (mut prog, plan) = fissioned_program(&w, arena);
        let groups = plan.partition.len();
        let num_chunks = s.iters.div_ceil(s.chunk).max(1);
        let target_g = (splitmix64(pick) % groups as u64) as usize;
        let target_chunk = splitmix64(pick ^ 1) % num_chunks;
        let kind = if mid {
            FaultKind::PanicMidMutation {
                after_iters: 1 + splitmix64(pick ^ 2) % s.chunk.max(2),
            }
        } else {
            FaultKind::Panic
        };
        let stats = {
            let kernels: Vec<_> = (0..groups)
                .map(|g| {
                    let mut fp = FaultPlan::new(s.chunk);
                    if g == target_g {
                        fp = fp.inject(target_chunk, kind);
                    }
                    FaultyKernel::new(prog.kernel(g), fp)
                })
                .collect();
            let cfg = RunConfig {
                runner: runner(&s),
                tolerance: Tolerance::resilient(Duration::from_millis(500)),
                ..RunConfig::default()
            };
            try_run_planned(&kernels, &plan, &cfg)
                .expect("journalable faults under a salvaging tolerance must recover")
        };
        prop_assert_eq!(
            prog.checksum(), expected,
            "salvaged planned run diverged (degraded: {}, faults: {:?})",
            stats.degraded, stats.faults
        );
    }

    /// Cancellation storms: a cancel token fired mid-run either loses
    /// the race (clean bitwise completion) or drains the run to a
    /// committed prefix of the *fissioned sequence* from which a
    /// sequential resume is bitwise identical to never cancelling.
    #[test]
    fn cancelled_planned_runs_resume_bitwise(
        s in scenario(),
        delay_us in 0u64..3000,
    ) {
        let (w, arena) = build(&s);
        let expected = sequential_checksum(&w, arena.clone());
        let (mut prog, plan) = fissioned_program(&w, arena);
        let groups = plan.partition.len();
        let token = CancelToken::new();
        let result = {
            let kernels: Vec<_> =
                (0..groups).map(|g| prog.kernel(g)).collect();
            let cfg = RunConfig {
                runner: runner(&s),
                cancel: token.clone(),
                ..RunConfig::default()
            };
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(delay_us));
                    token.cancel("planned prop canceller");
                })
            };
            let result = try_run_planned(&kernels, &plan, &cfg);
            canceller.join().unwrap();
            result
        };
        match result {
            Ok(_) => {}
            Err(RunError::Cancelled { committed_iters, .. }) => {
                // Finish the remaining sub-loops sequentially, in plan
                // order, from the reported global prefix.
                let mut rem = committed_iters;
                for g in 0..groups {
                    let k = prog.kernel(g);
                    let done = rem.min(k.iters());
                    rem -= done;
                    if done < k.iters() {
                        // SAFETY: the run drained before returning.
                        unsafe { k.execute(done..k.iters()) };
                    }
                }
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
        prop_assert_eq!(
            prog.checksum(), expected,
            "cancelled planned run did not resume bitwise"
        );
    }
}

/// Build the canonical DOACROSS workload: `a(i+lag) = f(a(i))` over a
/// shared read stream, lag 2 → the planner must emit a `DoAcross { 2 }`
/// sub-loop.
fn lag2_scenario() -> Scenario {
    Scenario {
        iters: 1024,
        lag: Some(2),
        xw: true,
        yw: false,
        scatter: None,
        threads: 4,
        chunk: 32,
        salt: 0x5eed,
    }
}

#[test]
fn lag2_recurrence_plans_doacross_and_runs_bitwise() {
    let s = lag2_scenario();
    let (w, arena) = build(&s);
    let expected = sequential_checksum(&w, arena.clone());
    let (mut prog, plan) = fissioned_program(&w, arena);
    assert!(
        matches!(plan.partition[0].schedule, Schedule::DoAcross { lag: 2 }),
        "lag-2 recurrence must schedule as DOACROSS: {:?}",
        plan.partition
    );
    let stats = {
        let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
        let cfg = RunConfig {
            runner: runner(&s),
            ..RunConfig::default()
        };
        try_run_planned(&kernels, &plan, &cfg).expect("planned run must succeed")
    };
    // With 4 workers on 32-iteration chunks the pipeline must actually
    // gate on cross-worker posts, not degenerate to one thread.
    assert!(
        stats.post_waits() > 0,
        "DOACROSS pipeline never crossed a chunk boundary: {stats:?}"
    );
    assert_eq!(prog.checksum(), expected, "DOACROSS execution diverged");
}

/// A caller's `Observe::with_events()` reaches the sequential residue: its
/// worker lanes come back in the planned result on the planned run's
/// clock, and the default (no events) stays empty.
#[test]
fn planned_residue_records_events_when_asked() {
    let s = Scenario {
        lag: Some(1),
        threads: 2,
        ..lag2_scenario()
    };
    let (w, arena) = build(&s);
    for observe in [Observe::default(), Observe::with_events()] {
        let (prog, plan) = fissioned_program(&w, arena.clone());
        assert_eq!(plan.partition[0].schedule, Schedule::Sequential);
        let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
        let cfg = RunConfig {
            runner: runner(&s),
            observe: observe.clone(),
            ..RunConfig::default()
        };
        let stats = try_run_planned(&kernels, &plan, &cfg).expect("planned run must succeed");
        let residue = stats.sub_loops[0]
            .run
            .as_ref()
            .expect("token-cascaded residue");
        let lanes: Vec<_> = residue.threads.iter().map(|t| t.events.len()).collect();
        let merged = stats.metrics().events;
        if !observe.events {
            assert_eq!((lanes.iter().sum::<usize>(), merged.len()), (0, 0));
            continue;
        }
        assert!(
            lanes.iter().all(|&n| n > 0),
            "a worker lane is empty: {lanes:?}"
        );
        assert_eq!(merged.len(), lanes.iter().sum::<usize>());
        let wall = stats.elapsed.as_nanos() as f64;
        assert!(merged.iter().all(|e| e.start <= e.end && e.end <= wall));
    }
}

/// Replay `doacross_order`'s adversarial greedy-max schedule through the
/// real interpreter. `window = lag` is the planned protocol and must be
/// bitwise; `window = lag + 1` models the classic off-by-one of waiting
/// for dependence `lag - 1` — the replay admits an iteration whose
/// lag-distance producer has not committed, and the result provably
/// diverges.
#[test]
fn doacross_lag_violation_provably_diverges() {
    let s = lag2_scenario();
    let lag = 2u64;
    let (w, arena) = build(&s);
    let expected = sequential_checksum(&w, arena.clone());
    let (_, plan) = fissioned_program(&w, arena.clone());
    assert!(matches!(
        plan.partition[0].schedule,
        Schedule::DoAcross { lag: 2 }
    ));

    let replay = |window: u64, arena: Arena| -> u64 {
        let (mut prog, plan) = fissioned_program(&w, arena);
        let order = doacross_order(s.iters, s.chunk, s.threads, window);
        {
            // Sub-loop 0 is the recurrence: execute it iteration by
            // iteration in the replayed interleaving...
            let k = prog.kernel(0);
            for &j in &order {
                // SAFETY: single-threaded replay.
                unsafe { k.execute(j..j + 1) };
            }
            // ...then the downstream sub-loops in plan order.
            for g in 1..plan.partition.len() {
                let k = prog.kernel(g);
                // SAFETY: single-threaded replay.
                unsafe { k.execute(0..k.iters()) };
            }
        }
        prog.checksum()
    };

    assert_eq!(
        replay(lag, arena.clone()),
        expected,
        "the legal window (= lag) must be bitwise"
    );
    assert_ne!(
        replay(lag + 1, arena),
        expected,
        "demanding one commit fewer than the lag must corrupt the recurrence"
    );
}

/// A corruption caught in a sequential residue that *follows* completed
/// sub-loops must report its resume point on the fissioned sequence, like
/// the governance errors do: the first sub-loop's whole trip plus the
/// residue's clean prefix. A sub-loop-local value would make the resume
/// re-run the residue's committed chunks, double-applying its scatter —
/// so the point is also checked the way that matters, by resuming from it.
#[test]
fn corrupted_residue_reports_a_sequence_global_resume_point() {
    let s = Scenario {
        lag: None,
        xw: true,
        scatter: Some(7),
        threads: 2,
        ..lag2_scenario()
    };
    let (w, arena) = build(&s);
    let expected = sequential_checksum(&w, arena.clone());
    let (mut prog, plan) = fissioned_program(&w, arena);
    let schedules: Vec<_> = plan.partition.iter().map(|p| p.schedule).collect();
    assert_eq!(schedules, [Schedule::Parallel, Schedule::Sequential]);
    let first_trip = prog.kernel(0).iters();
    let flipped_chunk = 3;
    let result = {
        // The flip lands after chunk 3's whole body, inside its write
        // footprint, so it survives to commit and the next claimant's
        // replay catches it.
        let flip = FaultKind::SilentBitFlip {
            after_iters: u64::MAX,
            offset: 3,
            xor: 0xFF,
            in_footprint: true,
        };
        let kernels = [
            FaultyKernel::new(prog.kernel(0), FaultPlan::new(s.chunk)),
            FaultyKernel::new(
                prog.kernel(1),
                FaultPlan::new(s.chunk).inject(flipped_chunk, flip),
            ),
        ];
        let cfg = RunConfig {
            runner: runner(&s),
            tolerance: Tolerance::fail_fast(),
            verify: VerifyPolicy::EveryChunk,
            ..RunConfig::default()
        };
        try_run_planned(&kernels, &plan, &cfg)
    };
    let committed_iters = match result {
        Err(RunError::Corrupted {
            chunk: Some(c),
            committed_iters,
            ..
        }) if c == flipped_chunk => committed_iters,
        other => panic!("expected Corrupted on chunk {flipped_chunk}, got {other:?}"),
    };
    assert_eq!(
        committed_iters,
        first_trip + flipped_chunk * s.chunk,
        "the DOALL's whole trip plus the residue's clean prefix"
    );
    // Resume the fissioned sequence from the reported prefix.
    let mut rem = committed_iters;
    for g in 0..plan.partition.len() {
        let k = prog.kernel(g);
        let done = rem.min(k.iters());
        rem -= done;
        if done < k.iters() {
            // SAFETY: the run drained before returning.
            unsafe { k.execute(done..k.iters()) };
        }
    }
    assert_eq!(
        prog.checksum(),
        expected,
        "resume from the reported prefix is not bitwise"
    );
}
