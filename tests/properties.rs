//! Property-based tests over randomized workloads: the invariants that
//! must hold for *any* loop population, not just PARMVR.

use proptest::prelude::*;

use cascaded_execution::rt::{
    try_run_governed, RealKernel, RtPolicy, RunConfig, RunnerConfig, SpecProgram,
};
use cascaded_execution::{
    machines, run_cascaded, run_sequential, AddressSpace, Arena, CascadeConfig, ChunkPlan,
    HelperPolicy, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};

/// Data-array length used by all generated workloads.
const ARR_LEN: u64 = 8192;

/// A generated reference stream, in index form.
#[derive(Debug, Clone)]
struct GenRef {
    read_pool: bool,
    array_pick: u8,
    indirect: bool,
    stride: i64,
    base: i64,
    mode_pick: u8,
    hoistable: bool,
}

/// A generated workload configuration.
#[derive(Debug, Clone)]
struct GenWorkload {
    iters: u64,
    refs: Vec<GenRef>,
    seed: u64,
}

fn gen_ref() -> impl Strategy<Value = GenRef> {
    (
        any::<bool>(),
        0u8..3,
        any::<bool>(),
        1i64..4,
        0i64..4,
        0u8..3,
        any::<bool>(),
    )
        .prop_map(
            |(read_pool, array_pick, indirect, stride, base, mode_pick, hoistable)| GenRef {
                read_pool,
                array_pick,
                indirect,
                stride,
                base,
                mode_pick,
                hoistable,
            },
        )
}

fn gen_workload() -> impl Strategy<Value = GenWorkload> {
    (
        64u64..800,
        proptest::collection::vec(gen_ref(), 1..5),
        any::<u64>(),
    )
        .prop_map(|(iters, refs, seed)| GenWorkload { iters, refs, seed })
}

/// Materialize a generated configuration into a valid workload + arena.
/// Read refs draw from a read-only array pool, write/modify refs from a
/// disjoint written pool, so helper-phase reads can never race.
fn build(gw: &GenWorkload) -> (Workload, Arena) {
    let mut space = AddressSpace::new();
    let read_pool: Vec<_> = (0..3)
        .map(|i| space.alloc(&format!("r{i}"), 8, ARR_LEN))
        .collect();
    let write_pool: Vec<_> = (0..3)
        .map(|i| space.alloc(&format!("w{i}"), 8, ARR_LEN))
        .collect();
    let index_arr = space.alloc("idx", 4, ARR_LEN);

    let mut index = IndexStore::new();
    // Deterministic pseudo-random in-range indices.
    index.set(
        index_arr,
        (0..ARR_LEN)
            .map(|i| ((i.wrapping_mul(2_654_435_761) ^ gw.seed) % ARR_LEN) as u32)
            .collect(),
    );

    let mut refs = Vec::new();
    let mut any_write = false;
    for (k, r) in gw.refs.iter().enumerate() {
        let mode = if r.read_pool {
            Mode::Read
        } else {
            any_write = true;
            if r.mode_pick == 0 {
                Mode::Write
            } else {
                Mode::Modify
            }
        };
        let pool = if r.read_pool { &read_pool } else { &write_pool };
        let array = pool[(r.array_pick as usize) % pool.len()];
        // Keep affine walks in bounds: base + stride * iters <= ARR_LEN.
        let stride = r
            .stride
            .min(((ARR_LEN - 8) / gw.iters.max(1)) as i64)
            .max(1);
        let pattern = if r.indirect {
            Pattern::Indirect {
                index: index_arr,
                ibase: 0,
                istride: stride,
            }
        } else {
            Pattern::Affine {
                base: r.base,
                stride,
            }
        };
        refs.push(StreamRef {
            name: Box::leak(format!("ref{k}").into_boxed_str()),
            array,
            pattern,
            mode,
            bytes: 8,
            hoistable: r.hoistable && mode == Mode::Read,
        });
    }
    // Ensure the loop writes something (pure-read loops are legal but make
    // runtime equivalence vacuous) half the time by adding a writer.
    if !any_write {
        refs.push(StreamRef {
            name: "out(i)",
            array: write_pool[0],
            pattern: Pattern::Affine { base: 0, stride: 1 },
            mode: Mode::Write,
            bytes: 8,
            hoistable: false,
        });
    }
    let any_hoistable = refs.iter().any(|r| r.hoistable);
    let spec = LoopSpec {
        name: "generated".into(),
        iters: gw.iters,
        refs,
        compute: 7.0,
        hoistable_compute: if any_hoistable { 3.0 } else { 0.0 },
        hoist_result_bytes: if any_hoistable { 8 } else { 0 },
    };
    spec.validate();
    let workload = Workload {
        space,
        index,
        loops: vec![spec],
    };
    let mut arena = Arena::new(&workload.space);
    for (i, id) in read_pool.iter().chain(&write_pool).enumerate() {
        for e in 0..ARR_LEN {
            let v = ((e ^ gw.seed) as f64).sin() * 0.5 + i as f64;
            arena.set_f64(&workload.space, *id, e, v);
        }
    }
    arena.install_indices(&workload.space, &workload.index);
    (workload, arena)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cascaded real-thread execution is bitwise identical to sequential
    /// execution for arbitrary workloads, thread counts, chunk sizes and
    /// helper policies.
    #[test]
    fn runtime_matches_sequential_bitwise(
        gw in gen_workload(),
        threads in 1usize..5,
        chunk in 17u64..600,
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => RtPolicy::None,
            1 => RtPolicy::Prefetch,
            _ => RtPolicy::Restructure,
        };
        let expected = {
            let (w, a) = build(&gw);
            let mut prog = SpecProgram::new(w, a).unwrap();
            let k = prog.kernel(0);
            // SAFETY: single-threaded baseline.
            unsafe { k.execute(0..k.iters()) };
            prog.checksum()
        };
        let (w, a) = build(&gw);
        let mut prog = SpecProgram::new(w, a).unwrap();
        let k = prog.kernel(0);
        try_run_governed(&k, &RunConfig::from(RunnerConfig {
            nthreads: threads,
            iters_per_chunk: chunk,
            policy,
            poll_batch: 16,
        })).unwrap();
        prop_assert_eq!(prog.checksum(), expected);
    }

    /// The simulator is deterministic and its reports are well-formed for
    /// arbitrary workloads and cascade parameters.
    #[test]
    fn simulator_reports_are_wellformed(
        gw in gen_workload(),
        nprocs in 1usize..9,
        chunk_kb in 1u64..129,
        policy_pick in 0u8..4,
        jump_out in any::<bool>(),
    ) {
        let policy = match policy_pick {
            0 => HelperPolicy::None,
            1 => HelperPolicy::Prefetch,
            2 => HelperPolicy::Restructure { hoist: false },
            _ => HelperPolicy::Restructure { hoist: true },
        };
        let (w, _) = build(&gw);
        let m = machines::pentium_pro();
        let cfg = CascadeConfig {
            nprocs,
            chunk_bytes: chunk_kb * 1024,
            policy,
            jump_out,
            calls: 1,
            flush_between_calls: true,
        };
        let r1 = run_cascaded(&m, &w, &cfg);
        let r2 = run_cascaded(&m, &w, &cfg);
        prop_assert_eq!(r1.total_cycles(), r2.total_cycles());
        let l = &r1.loops[0];
        prop_assert!(l.cycles > 0.0);
        prop_assert!(l.helper_iters <= l.iters);
        prop_assert!(l.helper_complete <= l.chunks);
        prop_assert_eq!(l.iters, w.loops[0].iters);
        // Chunk accounting matches the plan.
        let plan = ChunkPlan::new(&w.loops[0], cfg.chunk_bytes, m.l1.line as u64);
        prop_assert_eq!(l.chunks, plan.num_chunks());
    }

    /// With unbounded helper time (no jump-out, enough processors), the
    /// prefetch policy can only reduce execution-phase memory traffic
    /// relative to the sequential baseline.
    #[test]
    fn prefetch_never_adds_execution_phase_memory_traffic(
        gw in gen_workload(),
    ) {
        let (w, _) = build(&gw);
        let m = machines::pentium_pro();
        let base = run_sequential(&m, &w, 1, true);
        let cfg = CascadeConfig {
            nprocs: 8,
            chunk_bytes: 32 * 1024,
            policy: HelperPolicy::Prefetch,
            jump_out: false,
            calls: 1,
            flush_between_calls: true,
        };
        let r = run_cascaded(&m, &w, &cfg);
        let base_mem: u64 = base.loops.iter().map(|l| l.exec.mem_lines).sum();
        let exec_mem: u64 = r.loops.iter().map(|l| l.exec.mem_lines).sum();
        // Tolerance for boundary lines shared between chunks on different
        // processors (each fetches its own copy).
        prop_assert!(
            exec_mem as f64 <= base_mem as f64 * 1.05 + 64.0,
            "exec-phase lines {} vs baseline {}", exec_mem, base_mem
        );
    }

    /// Chunk plans partition any iteration space exactly.
    #[test]
    fn chunk_plans_partition(iters in 1u64..100_000, per in 1u64..5_000) {
        let plan = ChunkPlan::by_iterations(iters, per);
        let mut next = 0u64;
        for r in plan.ranges() {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start);
            next = r.end;
        }
        prop_assert_eq!(next, iters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential invariant: a one-processor cascade with no helper is
    /// the sequential execution plus exactly one control transfer per
    /// chunk — same cycles otherwise, same misses.
    #[test]
    fn single_processor_cascade_equals_sequential_plus_transfers(
        gw in gen_workload(),
        chunk_kb in 1u64..65,
    ) {
        let (w, _) = build(&gw);
        let m = machines::pentium_pro();
        let seq = run_sequential(&m, &w, 1, true);
        let casc = run_cascaded(&m, &w, &CascadeConfig {
            nprocs: 1,
            chunk_bytes: chunk_kb * 1024,
            policy: HelperPolicy::None,
            jump_out: true,
            calls: 1,
            flush_between_calls: true,
        });
        let transfers = casc.loops[0].chunks as f64 * m.transfer_cost as f64;
        let expect = seq.total_cycles() + transfers;
        prop_assert!(
            (casc.total_cycles() - expect).abs() < 1e-6,
            "cascade {} != sequential {} + transfers {}",
            casc.total_cycles(), seq.total_cycles(), transfers
        );
        prop_assert_eq!(casc.loops[0].exec.l2_misses, seq.loops[0].exec.l2_misses);
        prop_assert_eq!(casc.loops[0].exec.l1_misses, seq.loops[0].exec.l1_misses);
    }

    /// The recorded timeline is always a valid Figure-1 schedule, and its
    /// makespan matches the reported loop cycles.
    #[test]
    fn recorded_timelines_are_valid_schedules(
        gw in gen_workload(),
        nprocs in 2usize..6,
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => HelperPolicy::Prefetch,
            1 => HelperPolicy::Restructure { hoist: false },
            _ => HelperPolicy::Restructure { hoist: true },
        };
        let (w, _) = build(&gw);
        let m = machines::pentium_pro();
        let r = run_cascaded(&m, &w, &CascadeConfig {
            nprocs,
            chunk_bytes: 16 * 1024,
            policy,
            jump_out: true,
            calls: 1,
            flush_between_calls: true,
        });
        let l = &r.loops[0];
        l.timeline.validate();
        prop_assert_eq!(l.timeline.events.len() as u64, l.chunks);
        // Makespan = schedule end + final transfer.
        let expect = l.timeline.end() - l.timeline.start() + m.transfer_cost as f64;
        prop_assert!((l.cycles - expect).abs() < 1e-6,
            "loop cycles {} != timeline span {}", l.cycles, expect);
    }
}
