//! The kernel zoo: where does cascaded execution pay?
//!
//! Runs the `cascade-kernels` suite — the canonical unparallelizable
//! loops beyond wave5's particle mover — through the simulator on both
//! machines and through the real-thread runtime, printing a one-screen
//! map of the technique's applicability. Kernels with loop-carried reads
//! run under an analyzer-derived helper horizon (see `docs/ANALYSIS.md`).
//!
//! ```sh
//! cargo run --release --example kernel_zoo -- [elements]
//! ```

use cascaded_execution::kernels::suite;
use cascaded_execution::rt::{RtPolicy, RunnerConfig, SpecProgram};
use cascaded_execution::{machines, run_cascaded, run_sequential, CascadeConfig, HelperPolicy};

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 17);
    println!("kernel zoo at n = {n} elements\n");
    println!(
        "{:<18} {:>12} {:>9} {:>9} {:>9}   why it is sequential",
        "kernel", "footprint", "PPro rst", "R10k rst", "rt check"
    );
    let why = [
        "x(i) depends on earlier x entries",
        "next address is this node's data",
        "y(i) = a*y(i-1) + x(i)",
        "b recurrence fused with parallel c stream",
        "colliding FP scatter-add",
        "scatter-accumulate into y",
    ];
    assert_eq!(suite(n, 7).len(), why.len(), "one why per kernel");
    for (k, why) in suite(n, 7).into_iter().zip(why) {
        let spec = &k.workload.loops[0];
        let footprint = format!("{:.1} MB", spec.footprint() as f64 / (1024.0 * 1024.0));
        let mut speeds = Vec::new();
        for machine in [machines::pentium_pro(), machines::r10000()] {
            let base = run_sequential(&machine, &k.workload, 2, true);
            let r = run_cascaded(
                &machine,
                &k.workload,
                &CascadeConfig {
                    nprocs: 4,
                    policy: HelperPolicy::Restructure { hoist: true },
                    ..CascadeConfig::default()
                },
            );
            speeds.push(r.overall_speedup_vs(&base));
        }
        let rt_col = if k.rt_safe() {
            // Verify bitwise equivalence on real threads.
            let expected = {
                let mut prog = SpecProgram::new(k.workload.clone(), k.arena.clone()).unwrap();
                let kern = prog.kernel(0);
                // SAFETY: single-threaded baseline.
                unsafe {
                    cascaded_execution::rt::RealKernel::execute(
                        &kern,
                        0..cascaded_execution::rt::RealKernel::iters(&kern),
                    )
                };
                prog.checksum()
            };
            let mut prog = SpecProgram::new(k.workload.clone(), k.arena.clone()).unwrap();
            let kern = prog.kernel(0);
            cascaded_execution::rt::try_run_governed(
                &kern,
                &cascaded_execution::rt::RunConfig::from(RunnerConfig {
                    nthreads: 2,
                    iters_per_chunk: 2048,
                    policy: RtPolicy::Restructure,
                    poll_batch: 64,
                }),
            )
            .expect("cascaded run failed");
            if prog.checksum() == expected {
                "bitwise"
            } else {
                "MISMATCH"
            }
        } else {
            "sim-only"
        };
        println!(
            "{:<18} {:>12} {:>8.2}x {:>8.2}x {:>9}   {}",
            k.name, footprint, speeds[0], speeds[1], rt_col, why
        );
    }
    println!("\nEvery kernel the dependence analyzer admits runs on real threads; loops that");
    println!("read an array they also write carry a HorizonSafe(lag) verdict, and helpers");
    println!("stay within `lag` of the committed frontier (see docs/ANALYSIS.md).");
}
