//! Quickstart: cascade one unparallelizable loop, in the simulator and on
//! real threads.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The loop is a gather-update with a loop-carried scatter dependence —
//! the kind of loop a parallelizing compiler must leave sequential:
//!
//! ```fortran
//! do i = 1, n
//!    hist(cell(i)) = hist(cell(i)) + weight(i)   ! colliding scatter-add
//! end do
//! ```

use cascaded_execution::rt::{
    run_sequential as rt_sequential, try_run_governed, RtPolicy, RunConfig, RunnerConfig,
    SpecProgram,
};
use cascaded_execution::{
    machines, run_cascaded, run_sequential, AddressSpace, Arena, CascadeConfig, HelperPolicy,
    IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};

fn build_workload(n: u64) -> (Workload, Arena) {
    let mut space = AddressSpace::new();
    let hist = space.alloc("hist", 8, n);
    let weight = space.alloc("weight", 8, n);
    let cell = space.alloc("cell", 4, n);

    let mut index = IndexStore::new();
    // A colliding map: the scatter-add order matters, so the loop cannot
    // be parallelized without changing its result.
    index.set(
        cell,
        (0..n).map(|i| ((i * 2_654_435_761) % n) as u32).collect(),
    );

    let spec = LoopSpec {
        name: "hist(cell(i)) += weight(i)".into(),
        iters: n,
        refs: vec![
            StreamRef {
                name: "weight(i)",
                array: weight,
                pattern: Pattern::Affine { base: 0, stride: 1 },
                mode: Mode::Read,
                bytes: 8,
                hoistable: true,
            },
            StreamRef {
                name: "hist(cell(i))",
                array: hist,
                pattern: Pattern::Indirect {
                    index: cell,
                    ibase: 0,
                    istride: 1,
                },
                mode: Mode::Modify,
                bytes: 8,
                hoistable: false,
            },
        ],
        compute: 6.0,
        hoistable_compute: 2.0,
        hoist_result_bytes: 8,
    };

    let workload = Workload {
        space,
        index,
        loops: vec![spec],
    };
    let mut arena = Arena::new(&workload.space);
    for i in 0..n {
        arena.set_f64(&workload.space, weight, i, (i % 17) as f64 * 0.25 + 0.5);
    }
    arena.install_indices(&workload.space, &workload.index);
    (workload, arena)
}

fn main() {
    let n = 1u64 << 19; // 512K iterations, ~8MB of data: exceeds both L2s
    let (workload, arena) = build_workload(n);

    // ---- 1. Simulated speedup on the paper's machines --------------------
    println!("Simulated cascaded execution (4 processors, 64KB chunks):");
    for machine in [machines::pentium_pro(), machines::r10000()] {
        let baseline = run_sequential(&machine, &workload, 2, true);
        for policy in [
            HelperPolicy::Prefetch,
            HelperPolicy::Restructure { hoist: true },
        ] {
            let report = run_cascaded(
                &machine,
                &workload,
                &CascadeConfig {
                    nprocs: 4,
                    policy,
                    ..CascadeConfig::default()
                },
            );
            println!(
                "  {:11} {:18}: speedup {:.2}  (exec-phase L2 misses {} vs {})",
                machine.name,
                policy.label(),
                report.overall_speedup_vs(&baseline),
                report.loops[0].exec.l2_misses,
                baseline.loops[0].exec.l2_misses,
            );
        }
    }

    // ---- 2. The same loop on real threads --------------------------------
    println!("\nReal-thread cascaded execution on this host:");
    let expected = {
        let mut prog = SpecProgram::new(workload.clone(), arena.clone()).unwrap();
        let kernel = prog.kernel(0);
        let dt = rt_sequential(&kernel);
        println!(
            "  sequential:              {:>8.2} ms",
            dt.as_secs_f64() * 1e3
        );
        prog.checksum()
    };
    let mut prog = SpecProgram::new(workload, arena).unwrap();
    let kernel = prog.kernel(0);
    let stats = try_run_governed(
        &kernel,
        &RunConfig::from(RunnerConfig {
            nthreads: std::thread::available_parallelism().map_or(2, |c| c.get().clamp(2, 4)),
            iters_per_chunk: 8192,
            policy: RtPolicy::Restructure,
            poll_batch: 128,
        }),
    )
    .expect("cascaded run failed");
    println!(
        "  cascaded ({} chunks):    {:>8.2} ms, helper coverage {:.0}%",
        stats.chunks,
        stats.elapsed.as_secs_f64() * 1e3,
        stats.helper_coverage() * 100.0
    );
    assert_eq!(
        prog.checksum(),
        expected,
        "cascaded result must be bitwise sequential"
    );
    println!("  result: bitwise identical to sequential execution");
}
