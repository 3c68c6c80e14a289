//! Property tests for plan-driven execution ([`try_run_planned`]).
//!
//! Randomized multi-writer loops — an optional carried recurrence
//! (lag 1 → sequential residue, lag ≥ 2 → DOACROSS pipeline), affine
//! DOALL writers, and colliding indirect scatters — are fissioned under
//! their real `cascade-analyze` transformation plans and executed on
//! 1–4 real threads. The oracle is always the same: the final arena
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

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cascade_analyze::plan::{plan_loop, Schedule};
use cascade_rt::{
    doacross_order, fission_specs, try_run_planned, CancelToken, FaultEvent, FaultKind, FaultPlan,
    FaultyKernel, MemBudget, Observe, RealKernel, RetryPolicy, RtPolicy, RunConfig, RunError,
    RunnerConfig, SpecProgram, Tolerance, VerifyPolicy,
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
    /// Carried recurrence `a(i+lag) = f(a(i))` (lag 1..=5); `None` drops
    /// it.
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
        // One thread runs a pipelined pair's producer and then its
        // consumer on the same worker.
        1usize..=4,
        // Chunks shorter than the lag overlap DOACROSS chunks on real
        // threads; longer ones run them one after another.
        prop_oneof![1u64..=3, 8u64..=96],
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
    let a = space.alloc("a", 8, n + 5);
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
        const A_NAMES: [&str; 5] = ["a(i+1)", "a(i+2)", "a(i+3)", "a(i+4)", "a(i+5)"];
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
    for i in 0..n + 5 {
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

    /// Plan-driven execution on 1–4 real threads — DOALL range splits,
    /// DOACROSS post/wait pipelines, sequential residues cascaded or run
    /// plain beside their consumer — is bitwise identical to sequential
    /// execution.
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
        prop_assert_eq!(stats.sub_loops.len(), groups);
        // A fault degrades its own sub-loop and the ones after it, never
        // an earlier one.
        prop_assert!(
            stats.sub_loops[..target_g].iter().all(|s| !s.degraded),
            "a sub-loop before the faulted one {} is degraded", target_g
        );
        if stats.degraded {
            prop_assert!(
                stats.faults.iter().any(|f| matches!(f, FaultEvent::Salvaged { .. })),
                "a degraded run without a Salvaged event: {:?}", stats.faults
            );
        }
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

/// Salvage is `Tolerance::salvage` alone, as in cascade mode: a stage
/// fault under a retrying tolerance that does not salvage is a typed
/// error (the retry ladder has no survivors to hand a split stage's
/// chunk to).
#[test]
fn stage_fault_without_salvage_is_typed_even_when_retrying() {
    let s = lag2_scenario();
    let (w, arena) = build(&s);
    let (prog, plan) = fissioned_program(&w, arena);
    assert!(matches!(
        plan.partition[0].schedule,
        Schedule::DoAcross { lag: 2 }
    ));
    let kernels: Vec<_> = (0..plan.partition.len())
        .map(|g| {
            let mut fp = FaultPlan::new(s.chunk);
            if g == 0 {
                fp = fp.inject(5, FaultKind::Panic);
            }
            FaultyKernel::new(prog.kernel(g), fp)
        })
        .collect();
    let cfg = RunConfig {
        runner: runner(&s),
        tolerance: Tolerance {
            retry: Some(RetryPolicy::default()),
            salvage: false,
            ..Tolerance::default()
        },
        ..RunConfig::default()
    };
    let result = try_run_planned(&kernels, &plan, &cfg);
    assert!(
        matches!(result, Err(RunError::WorkerPanicked { chunk: 5, .. })),
        "expected a typed panic on chunk 5, got {result:?}"
    );
}

/// A range-exact kernel whose undo-journal capture (`capture`) or restore
/// (otherwise) panics on the chunk starting at iteration `at`.
struct JournalPanics<K> {
    inner: K,
    at: u64,
    capture: bool,
}

impl<K: RealKernel> RealKernel for JournalPanics<K> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.execute(range) }
    }
    fn panics_before_mutation(&self) -> bool {
        self.inner.panics_before_mutation()
    }
    fn journal_range_exact(&self) -> bool {
        self.inner.journal_range_exact()
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        assert!(!self.capture || range.start != self.at, "capture panics");
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        assert!(self.capture || range.start != self.at, "restore panics");
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.journal_rollback(range, buf) }
    }
}

/// A split stage's journal faults name the chunk they hit. A capture that
/// panics leaves its chunk pristine (capture only reads), so a salvaging
/// run recovers bitwise; a restore that panics after a mid-mutation panic
/// leaves its chunk torn, which is a typed error naming that chunk.
#[test]
fn split_stage_journal_faults_name_their_chunk() {
    let s = Scenario {
        lag: None,
        yw: true,
        ..lag2_scenario()
    };
    let (w, arena) = build(&s);
    let expected = sequential_checksum(&w, arena.clone());
    let chunk = 5;
    for capture in [true, false] {
        let (mut prog, plan) = fissioned_program(&w, arena.clone());
        assert!(plan
            .partition
            .iter()
            .all(|p| p.schedule == Schedule::Parallel));
        let result = {
            let kernels: Vec<_> = (0..plan.partition.len())
                .map(|g| {
                    let mut fp = FaultPlan::new(s.chunk);
                    if g == 0 && !capture {
                        let kind = FaultKind::PanicMidMutation { after_iters: 3 };
                        fp = fp.inject(chunk, kind);
                    }
                    let inner = FaultyKernel::new(prog.kernel(g), fp);
                    assert!(inner.journal_range_exact());
                    let at = if g == 0 { chunk * s.chunk } else { u64::MAX };
                    JournalPanics { inner, at, capture }
                })
                .collect();
            let cfg = RunConfig {
                runner: runner(&s),
                tolerance: Tolerance::resilient(Duration::from_millis(500)),
                ..RunConfig::default()
            };
            try_run_planned(&kernels, &plan, &cfg)
        };
        if !capture {
            assert!(
                matches!(result, Err(RunError::WorkerPanicked { chunk: c, .. }) if c == chunk),
                "a torn chunk {chunk} must be a typed error naming it, got {result:?}"
            );
            continue;
        }
        let stats = result.expect("a pristine chunk salvages");
        let panicked: Vec<u64> = stats
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultEvent::WorkerPanicked { chunk, .. } => Some(*chunk),
                _ => None,
            })
            .collect();
        assert_eq!(panicked, [chunk], "{:?}", stats.faults);
        assert!(stats.sub_loops[0].degraded);
        assert_eq!(prog.checksum(), expected, "salvage diverged");
    }
}

/// `PlannedStats::metrics` over a plan with all three schedules: each
/// worker's phases tile its wall time exactly, the chunk total is the
/// sum over sub-loops, and `post_waits` is the structural count of the
/// DOACROSS sub-loop's chunking.
#[test]
fn planned_metrics_partition_wall_time_exactly() {
    let s = Scenario {
        scatter: Some(3),
        threads: 3,
        ..lag2_scenario()
    };
    let (w, arena) = build(&s);
    let (prog, plan) = fissioned_program(&w, arena);
    let schedules: Vec<_> = plan.partition.iter().map(|p| p.schedule).collect();
    for want in [
        Schedule::Parallel,
        Schedule::DoAcross { lag: 2 },
        Schedule::Sequential,
    ] {
        assert!(
            schedules.contains(&want),
            "{want:?} missing from {schedules:?}"
        );
    }
    let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
    let cfg = RunConfig {
        runner: runner(&s),
        ..RunConfig::default()
    };
    let stats = try_run_planned(&kernels, &plan, &cfg).expect("planned run must succeed");
    let m = stats.metrics();
    assert_eq!(m.workers.len(), s.threads);
    for wm in &m.workers {
        let parts = wm.helper_time + wm.spin_time + wm.exec_time + wm.retry_time + wm.other_time;
        assert_eq!(
            parts, wm.wall_time,
            "worker {}: phases must tile wall time exactly",
            wm.worker
        );
    }
    let sub_chunks: u64 = stats.sub_loops.iter().map(|s| s.chunks).sum();
    assert_eq!(stats.chunks, sub_chunks);
    assert_eq!(m.chunks, sub_chunks);
    assert_eq!(
        sub_chunks,
        s.iters.div_ceil(s.chunk) * schedules.len() as u64
    );
    // Brute force: iterations whose lag-2 dependence lies in an earlier
    // chunk.
    let structural = (2..s.iters)
        .filter(|&j| (j - 2) / s.chunk != j / s.chunk)
        .count() as u64;
    assert_eq!(stats.post_waits(), structural);
    assert_eq!(m.post_waits, structural);
}

/// A caller's `Observe::with_events()` reaches every stage of a plan — a
/// cascaded residue and split (DOALL, DOACROSS) stages alike: each worker
/// lane of each sub-loop comes back non-empty, on the planned run's clock,
/// and the default (no events) leaves every lane empty.
#[test]
fn planned_residue_records_events_when_asked() {
    for lag in [1, 2] {
        let s = Scenario {
            lag: Some(lag),
            threads: 2,
            ..lag2_scenario()
        };
        let (w, arena) = build(&s);
        for observe in [Observe::default(), Observe::with_events()] {
            let (prog, plan) = fissioned_program(&w, arena.clone());
            let schedules: Vec<_> = plan.partition.iter().map(|p| p.schedule).collect();
            let first = if lag == 1 {
                Schedule::Sequential
            } else {
                Schedule::DoAcross { lag }
            };
            assert_eq!(schedules, [first, Schedule::Parallel]);
            let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
            let cfg = RunConfig {
                runner: runner(&s),
                observe: observe.clone(),
                ..RunConfig::default()
            };
            let stats = try_run_planned(&kernels, &plan, &cfg).expect("planned run must succeed");
            let lanes: Vec<usize> = stats
                .sub_loops
                .iter()
                .flat_map(|sub| sub.run.as_ref().map_or(&sub.threads, |r| &r.threads))
                .map(|t| t.events.len())
                .collect();
            assert_eq!(lanes.len(), s.threads * schedules.len());
            let merged = stats.metrics().events;
            if !observe.events {
                assert_eq!((lanes.iter().sum::<usize>(), merged.len()), (0, 0));
                continue;
            }
            assert!(
                lanes.iter().all(|&n| n > 0),
                "lag {lag}: a worker lane is empty: {lanes:?}"
            );
            assert_eq!(merged.len(), lanes.iter().sum::<usize>());
            let wall = stats.elapsed.as_nanos() as f64;
            assert!(merged.iter().all(|e| e.start <= e.end && e.end <= wall));
        }
    }
}

/// Replay `doacross_order`'s adversarial greedy-max schedule through the
/// real interpreter. `window = lag` is the planned protocol and must be
/// bitwise; `window = lag + 1` models the classic off-by-one of waiting
/// for dependence `lag - 1` — the replay admits an iteration whose
/// lag-distance producer has not committed, and the result provably
/// diverges. The replay uses one-iteration chunks: a chunk gate waits
/// for whole chunks, so the off-by-one can only admit a reader early
/// where a chunk is shorter than the lag.
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
        let order = doacross_order(s.iters, 1, s.threads, window);
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
            bytes,
            ..
        }) if c == flipped_chunk => {
            assert_eq!(bytes, 0..0, "a chunk's detection names no arena range");
            committed_iters
        }
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

/// A kernel that fires the run's cancel token as it starts executing the
/// chunk at iteration `at`, holds every chunk past it until the cancel has
/// fired (so the cancelling chunk is never the stage's last to run,
/// however the workers are scheduled), sleeps through the chunk at
/// iteration `slow.0` first, and counts how often each iteration runs.
struct CancelsAt<K> {
    inner: K,
    token: CancelToken,
    at: u64,
    slow: Option<(u64, Duration)>,
    runs: Vec<AtomicU32>,
}

impl<K: RealKernel> CancelsAt<K> {
    fn new(inner: K, token: CancelToken, at: u64, slow: Option<(u64, Duration)>) -> Self {
        let runs = (0..inner.iters()).map(|_| AtomicU32::new(0)).collect();
        CancelsAt {
            inner,
            token,
            at,
            slow,
            runs,
        }
    }

    /// Whether iterations `..prefix` ran exactly once each and the rest
    /// never.
    fn ran_exactly(&self, prefix: u64) -> bool {
        let runs = self.runs.iter().map(|r| r.load(Ordering::Relaxed));
        runs.enumerate()
            .all(|(i, n)| n == u32::from((i as u64) < prefix))
    }
}

impl<K: RealKernel> RealKernel for CancelsAt<K> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        if let Some((_, nap)) = self.slow.filter(|&(at, _)| at == range.start) {
            std::thread::sleep(nap);
        }
        if range.start == self.at {
            self.token.cancel("cancelled mid-chunk");
        }
        if range.start > self.at {
            // Bounded: a run that never reaches `at` still finishes.
            let hold = Instant::now() + Duration::from_secs(10);
            while !self.token.is_cancelled() && Instant::now() < hold {
                std::thread::yield_now();
            }
        }
        for i in range.clone() {
            self.runs[i as usize].fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.execute(range) }
    }
    fn helper_horizon(&self) -> Option<u64> {
        self.inner.helper_horizon()
    }
    fn panics_before_mutation(&self) -> bool {
        self.inner.panics_before_mutation()
    }
    fn journal_range_exact(&self) -> bool {
        self.inner.journal_range_exact()
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.journal_rollback(range, buf) }
    }
}

/// Finish the fissioned sequence sequentially, in plan order, from the
/// global prefix `committed_iters` a stopped run reported.
fn resume(prog: &SpecProgram, groups: usize, committed_iters: u64) {
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

/// Run the plan of `w` with sub-loop `g` cancelling as it starts chunk
/// `k` (and sleeping through chunk `slow`, when given), check that the
/// run stops at an exact prefix that resumes bitwise, and return the
/// prefix's part inside sub-loop `g`. Sub-loop `g` must have run exactly
/// that part, once per iteration: a cancelled split stage keeps what it
/// committed and fills its holes.
fn cancel_inside_stage(
    w: &Workload,
    arena: Arena,
    s: &Scenario,
    tolerance: Tolerance,
    (g, k): (usize, u64),
    slow: Option<(u64, Duration)>,
) -> u64 {
    let expected = sequential_checksum(w, arena.clone());
    let (mut prog, plan) = fissioned_program(w, arena);
    let trip = prog.kernel(g).iters();
    let before = g as u64 * trip;
    let token = CancelToken::new();
    let result = {
        let kernels: Vec<_> = (0..plan.partition.len())
            .map(|l| {
                let (at, slow) = if l == g {
                    (k * s.chunk, slow.map(|(c, nap)| (c * s.chunk, nap)))
                } else {
                    (u64::MAX, None)
                };
                CancelsAt::new(prog.kernel(l), token.clone(), at, slow)
            })
            .collect();
        let cfg = RunConfig {
            runner: runner(s),
            tolerance,
            cancel: token,
            ..RunConfig::default()
        };
        let result = try_run_planned(&kernels, &plan, &cfg);
        if let Err(RunError::Cancelled {
            committed_iters, ..
        }) = result
        {
            let within = committed_iters - before;
            assert!(
                kernels[g].ran_exactly(within),
                "sub-loop {g} did not run exactly its prefix of {within}"
            );
        }
        result
    };
    let Err(RunError::Cancelled {
        committed_iters, ..
    }) = result
    else {
        panic!("expected a cancel inside sub-loop {g}, got {result:?}");
    };
    resume(&prog, plan.partition.len(), committed_iters);
    assert_eq!(prog.checksum(), expected, "resume is not bitwise");
    let within = committed_iters - before;
    assert!(
        within >= (k + 1) * s.chunk && within < trip,
        "prefix {within} of sub-loop {g} is not inside it past chunk {k}"
    );
    within
}

/// A cancel inside a DOALL stage keeps the chunks the stage committed: the
/// chunk being executed finishes, the prefix lies strictly inside the
/// stage past it, and a resume from it is bitwise, with or without chunk
/// journals.
#[test]
fn cancelled_doall_stage_keeps_its_committed_prefix() {
    let s = Scenario {
        lag: None,
        yw: true,
        threads: 3,
        ..lag2_scenario()
    };
    let (w, arena) = build(&s);
    let plan = plan_loop(&w, &w.loops[0]);
    let schedules: Vec<_> = plan.partition.iter().map(|p| p.schedule).collect();
    assert_eq!(schedules, [Schedule::Parallel, Schedule::Parallel]);
    for tolerance in [
        Tolerance::fail_fast(),
        Tolerance::resilient(Duration::from_secs(5)),
    ] {
        for g in [0, 1] {
            cancel_inside_stage(&w, arena.clone(), &s, tolerance.clone(), (g, 3), None);
        }
    }
}

/// A DOACROSS stage whose lag exceeds the chunk leaves a hole when a
/// worker stops below a committed chunk. Lag 5 over one-iteration chunks
/// on 3 workers: chunk 5's gate waits for chunk 0 only, so it commits
/// (and cancels) while chunk 1 sleeps and chunk 4, queued behind chunk 1
/// on the same worker, never starts. The hole is filled, the prefix is
/// exact and past chunk 5, and the resume is bitwise.
#[test]
fn cancelled_doacross_stage_fills_its_holes() {
    let s = Scenario {
        iters: 96,
        lag: Some(5),
        threads: 3,
        chunk: 1,
        ..lag2_scenario()
    };
    let (w, arena) = build(&s);
    let plan = plan_loop(&w, &w.loops[0]);
    assert!(
        matches!(plan.partition[0].schedule, Schedule::DoAcross { lag: 5 }),
        "{:?}",
        plan.partition
    );
    let nap = Some((1, Duration::from_millis(50)));
    for tolerance in [
        Tolerance::fail_fast(),
        Tolerance::resilient(Duration::from_secs(5)),
    ] {
        cancel_inside_stage(&w, arena.clone(), &s, tolerance, (0, 5), nap);
    }
}

/// A split stage whose kernel cannot journal range-exactly (a stride-2
/// write) stops at its prefix on a cancel, like any split stage, instead
/// of completing the stage.
#[test]
fn cancelled_unjournalable_split_stage_stops_at_its_prefix() {
    let n = 1024;
    let mut space = AddressSpace::new();
    let src = space.alloc("src", 8, n);
    let x = space.alloc("x", 8, 2 * n);
    let sref = |name: &'static str, array, stride, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base: 0, stride },
        mode,
        bytes: 8,
        hoistable: false,
    };
    let w = Workload {
        space,
        index: IndexStore::new(),
        loops: vec![LoopSpec {
            name: "stride-2 writer".into(),
            iters: n,
            refs: vec![
                sref("src(i)", src, 1, Mode::Read),
                sref("x(2i)", x, 2, Mode::Write),
            ],
            compute: 2.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        }],
    };
    let mut arena = Arena::new(&w.space);
    for i in 0..n {
        arena.set_f64(&w.space, src, i, (i % 13) as f64 * 0.5 + 0.25);
    }
    let (prog, plan) = fissioned_program(&w, arena.clone());
    assert_eq!(plan.partition.len(), 1);
    assert_eq!(plan.partition[0].schedule, Schedule::Parallel);
    assert!(!prog.kernel(0).journal_range_exact());
    let s = Scenario {
        iters: n,
        threads: 3,
        ..lag2_scenario()
    };
    for tolerance in [
        Tolerance::fail_fast(),
        Tolerance::resilient(Duration::from_secs(5)),
    ] {
        cancel_inside_stage(&w, arena.clone(), &s, tolerance, (0, 3), None);
    }
}

/// Split chunks capture into each worker's run-long journal buffer, and
/// only when the run could want a rollback: a planned run under a
/// salvaging tolerance meters one chunk journal per worker that captured,
/// for 16 chunks as for 64, a budget of a few chunk journals per worker
/// carries a 64-chunk DOALL stage, and a fail-fast run captures nothing.
#[test]
fn planned_runs_meter_a_steady_state_not_the_chunk_count() {
    const CHUNK: u64 = 64;
    const THREADS: usize = 2;
    let journal = CHUNK * 8; // one 8-byte write per iteration
    let run = |chunks: u64, tolerance: Tolerance, budget: MemBudget| {
        let s = Scenario {
            iters: chunks * CHUNK,
            lag: None,
            yw: true,
            threads: THREADS,
            chunk: CHUNK,
            ..lag2_scenario()
        };
        let (w, arena) = build(&s);
        let (prog, plan) = fissioned_program(&w, arena);
        assert!(plan
            .partition
            .iter()
            .all(|p| p.schedule == Schedule::Parallel));
        let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
        let cfg = RunConfig {
            runner: runner(&s),
            tolerance,
            budget,
            ..RunConfig::default()
        };
        try_run_planned(&kernels, &plan, &cfg)
    };
    // Claiming is dynamic, so a short stage may run on one worker only.
    let capturing = |stats: &cascade_rt::PlannedStats| {
        (0..THREADS)
            .filter(|&t| {
                stats
                    .sub_loops
                    .iter()
                    .any(|s| s.threads[t].journal_bytes > 0)
            })
            .count() as u64
    };
    let resilient = Tolerance::resilient(Duration::from_secs(5));
    for chunks in [16, 64] {
        let stats = run(chunks, resilient.clone(), MemBudget::unlimited()).expect("a clean run");
        let workers = capturing(&stats);
        assert!(workers >= 1, "the chunk journals are metered");
        assert_eq!(
            stats.budget_high_water,
            workers * journal,
            "{chunks} chunks: metered bytes are not one journal per capturing worker"
        );
    }
    let few = MemBudget::limited(4 * journal * THREADS as u64);
    let stats = run(64, resilient, few).expect("a few chunk journals per worker suffice");
    assert!(stats.budget_high_water <= journal * THREADS as u64);

    let stats = run(64, Tolerance::fail_fast(), MemBudget::unlimited()).expect("a clean run");
    let captured: u64 = stats
        .sub_loops
        .iter()
        .flat_map(|sub| &sub.threads)
        .map(|t| t.journal_bytes)
        .sum();
    assert_eq!((captured, stats.budget_high_water), (0, 0));
}

/// A pipelined pair's stage, watched: a consumer counts the chunks it
/// committed into `commits`; a producer records that count as each of its
/// chunks starts, and before the chunk at iteration `hold_at` waits (up to
/// a few seconds) for a consumer chunk to commit. Behind a barrier none
/// ever does, so the wait times out and records 0.
struct Watched<K> {
    inner: K,
    consumer: bool,
    commits: Arc<AtomicU32>,
    hold_at: u64,
    seen: Mutex<Vec<u32>>,
}

impl<K: RealKernel> Watched<K> {
    fn new(inner: K, consumer: bool, commits: &Arc<AtomicU32>, hold_at: u64) -> Self {
        Watched {
            inner,
            consumer,
            commits: Arc::clone(commits),
            hold_at,
            seen: Mutex::new(Vec::new()),
        }
    }
}

impl<K: RealKernel> RealKernel for Watched<K> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }
    unsafe fn execute(&self, range: Range<u64>) {
        if !self.consumer {
            if range.start == self.hold_at {
                let give_up = Instant::now() + Duration::from_secs(5);
                while self.commits.load(Ordering::Acquire) == 0 && Instant::now() < give_up {
                    std::thread::yield_now();
                }
            }
            let seen = self.commits.load(Ordering::Acquire);
            self.seen.lock().unwrap().push(seen);
        }
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.execute(range) };
        if self.consumer {
            self.commits.fetch_add(1, Ordering::Release);
        }
    }
    fn helper_horizon(&self) -> Option<u64> {
        self.inner.helper_horizon()
    }
    fn panics_before_mutation(&self) -> bool {
        self.inner.panics_before_mutation()
    }
    fn journal_range_exact(&self) -> bool {
        self.inner.journal_range_exact()
    }
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.journal_capture(range, buf) }
    }
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        // SAFETY: forwarded under the caller's exclusivity.
        unsafe { self.inner.journal_rollback(range, buf) }
    }
}

/// A lag-1 recurrence feeding a read-modify-write consumer: the plan is
/// `[Sequential, Parallel]`, a pipelined pair under a run that arms
/// neither retry nor verification.
fn pair_scenario() -> Scenario {
    Scenario {
        lag: Some(1),
        xw: false,
        yw: true,
        threads: 2,
        ..lag2_scenario()
    }
}

/// A pipelined pair's consumer runs beside its producer, not after it:
/// some consumer chunk commits before the producer's last chunk starts.
/// The producer ran plain and reports as a split stage does: no token
/// stats, one lane per worker, every chunk counted on worker 0, and the
/// consumer names it and reports the overlap.
#[test]
fn pipelined_consumer_runs_beside_its_producer() {
    let s = pair_scenario();
    let (w, arena) = build(&s);
    let expected = sequential_checksum(&w, arena.clone());
    let (mut prog, plan) = fissioned_program(&w, arena);
    let schedules: Vec<_> = plan.partition.iter().map(|p| p.schedule).collect();
    assert_eq!(schedules, [Schedule::Sequential, Schedule::Parallel]);
    let m = s.iters.div_ceil(s.chunk);
    let (stats, seen) = {
        let commits = Arc::new(AtomicU32::new(0));
        let last = (m - 1) * s.chunk;
        let kernels = [
            Watched::new(prog.kernel(0), false, &commits, last),
            Watched::new(prog.kernel(1), true, &commits, u64::MAX),
        ];
        let cfg = RunConfig {
            runner: runner(&s),
            ..RunConfig::default()
        };
        let stats = try_run_planned(&kernels, &plan, &cfg).expect("a clean planned run");
        let seen = kernels[0].seen.lock().unwrap().clone();
        (stats, seen)
    };
    assert_eq!(prog.checksum(), expected, "pipelined pair diverged");
    assert_eq!(seen.len() as u64, m);
    assert!(
        seen[seen.len() - 1] > 0,
        "no consumer chunk committed before the producer's last chunk: {seen:?}"
    );
    let (producer, consumer) = (&stats.sub_loops[0], &stats.sub_loops[1]);
    assert!(
        producer.run.is_none(),
        "a plain producer has no token stats"
    );
    assert_eq!(producer.threads.len(), s.threads);
    assert_eq!((producer.chunks, producer.threads[0].chunks), (m, m));
    assert_eq!(
        (producer.pipelined_after, consumer.pipelined_after),
        (None, Some(0))
    );
    assert_eq!(consumer.chunks, m);
    assert!(consumer.overlap > Duration::ZERO, "{consumer:?}");
}

/// A cancel inside a pipelined pair's producer, fired after a consumer
/// chunk committed: the consumer read-modify-writes `y`, so the prefix
/// lies in the consumer, past every chunk it committed, with the producer
/// run to its end on the calling thread. Each stage ran exactly its part
/// of the prefix, once, and a resume from it is bitwise.
#[test]
fn cancelled_pipelined_pair_resumes_from_the_consumer() {
    let s = pair_scenario();
    let (w, arena) = build(&s);
    let expected = sequential_checksum(&w, arena.clone());
    let k = 9;
    for tolerance in [
        Tolerance::fail_fast(),
        Tolerance::resilient(Duration::from_secs(5)),
    ] {
        let (mut prog, plan) = fissioned_program(&w, arena.clone());
        let trip = prog.kernel(0).iters();
        let token = CancelToken::new();
        let commits = Arc::new(AtomicU32::new(0));
        let result = {
            let kernels: Vec<_> = (0..2)
                .map(|l| {
                    let at = if l == 0 { k * s.chunk } else { u64::MAX };
                    let inner = CancelsAt::new(prog.kernel(l), token.clone(), at, None);
                    Watched::new(inner, l == 1, &commits, at)
                })
                .collect();
            let cfg = RunConfig {
                runner: runner(&s),
                tolerance,
                cancel: token,
                ..RunConfig::default()
            };
            let result = try_run_planned(&kernels, &plan, &cfg);
            if let Err(RunError::Cancelled {
                committed_iters, ..
            }) = result
            {
                assert!(
                    kernels[0].inner.ran_exactly(trip),
                    "the producer ran to its end once"
                );
                let within = committed_iters.saturating_sub(trip);
                assert!(
                    kernels[1].inner.ran_exactly(within),
                    "the consumer did not run exactly its prefix of {within}"
                );
            }
            result
        };
        let Err(RunError::Cancelled {
            committed_iters, ..
        }) = result
        else {
            panic!("expected a cancel, got {result:?}");
        };
        assert!(
            committed_iters >= trip + s.chunk && committed_iters < 2 * trip,
            "prefix {committed_iters} is not inside the consumer past a committed chunk"
        );
        resume(&prog, plan.partition.len(), committed_iters);
        assert_eq!(prog.checksum(), expected, "resume is not bitwise");
    }
}

/// A panic in a pipelined pair's producer: a salvaging run finishes the
/// producer's uncommitted chunks, then the consumer's, bitwise; a
/// fail-fast run names the producer's chunk; and a retrying run keeps the
/// cascaded residue (token stats present) and recovers in-cascade.
#[test]
fn producer_fault_in_a_pair() {
    let s = pair_scenario();
    let (w, arena) = build(&s);
    let expected = sequential_checksum(&w, arena.clone());
    let chunk = 7;
    for tolerance in [
        Tolerance::resilient(Duration::from_secs(5)),
        Tolerance::fail_fast(),
        Tolerance::retrying(Duration::from_secs(5)),
    ] {
        let (mut prog, plan) = fissioned_program(&w, arena.clone());
        let result = {
            let kernels: Vec<_> = (0..2)
                .map(|g| {
                    let mut fp = FaultPlan::new(s.chunk);
                    if g == 0 {
                        fp = fp.inject(chunk, FaultKind::Panic);
                    }
                    FaultyKernel::new(prog.kernel(g), fp)
                })
                .collect();
            let cfg = RunConfig {
                runner: runner(&s),
                tolerance: tolerance.clone(),
                ..RunConfig::default()
            };
            try_run_planned(&kernels, &plan, &cfg)
        };
        if tolerance.retry.is_some() {
            let stats = result.expect("the retry ladder recovers a fail-stop panic");
            assert!(
                stats.sub_loops[0].run.is_some(),
                "retry keeps the cascaded path"
            );
            assert_eq!(stats.sub_loops[1].pipelined_after, None);
        } else if tolerance.salvage {
            let stats = result.expect("a salvaging run recovers");
            assert!(stats.sub_loops[0].degraded && stats.sub_loops[1].degraded);
            assert!(stats.sub_loops[0].run.is_none());
        } else {
            assert!(
                matches!(result, Err(RunError::WorkerPanicked { thread: 0, chunk: c }) if c == chunk),
                "expected a typed panic on producer chunk {chunk}, got {result:?}"
            );
            continue;
        }
        assert_eq!(prog.checksum(), expected, "{tolerance:?}: diverged");
    }
}
