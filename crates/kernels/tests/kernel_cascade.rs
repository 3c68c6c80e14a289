//! The kernel suite through the full system: simulator speedups per loop
//! class, and real-thread bitwise equivalence for every kernel — including
//! the carried-read pair the analyzer proves horizon-safe.

use std::time::Duration;

use cascade_core::{run_cascaded, run_sequential, CascadeConfig, HelperPolicy};
use cascade_kernels::{histogram, pointer_chase, seq_spmv, suite, triangular_solve};
use cascade_mem::machines::pentium_pro;
use cascade_rt::{
    try_run_governed, FaultEvent, FaultKind, FaultPlan, FaultyKernel, RtPolicy, RunConfig,
    RunnerConfig, SpecProgram, Tolerance,
};

#[test]
fn every_kernel_simulates_under_every_policy() {
    let m = pentium_pro();
    for k in suite(8192, 3) {
        let base = run_sequential(&m, &k.workload, 1, true);
        for policy in [
            HelperPolicy::None,
            HelperPolicy::Prefetch,
            HelperPolicy::Restructure { hoist: false },
            HelperPolicy::Restructure { hoist: true },
        ] {
            let cfg = CascadeConfig {
                nprocs: 4,
                policy,
                calls: 1,
                ..CascadeConfig::default()
            };
            let r = run_cascaded(&m, &k.workload, &cfg);
            let s = r.overall_speedup_vs(&base);
            assert!(
                s > 0.2 && s < 20.0,
                "{} under {:?}: absurd speedup {s}",
                k.name,
                policy
            );
        }
    }
}

#[test]
fn memory_bound_kernels_gain_most() {
    // The pointer chase (no locality at all) must gain more from
    // restructuring than the histogram over a small bucket array (whose
    // working set is cache-resident).
    let m = pentium_pro();
    let chase = pointer_chase(1 << 18, 8, 3);
    let hist = histogram(1 << 18, 512, 3); // 4KB of buckets: cache-resident
    let cfg = CascadeConfig {
        nprocs: 4,
        policy: HelperPolicy::Restructure { hoist: true },
        calls: 1,
        ..CascadeConfig::default()
    };
    let s_chase = run_cascaded(&m, &chase.workload, &cfg).overall_speedup_vs(&run_sequential(
        &m,
        &chase.workload,
        1,
        true,
    ));
    let s_hist = run_cascaded(&m, &hist.workload, &cfg).overall_speedup_vs(&run_sequential(
        &m,
        &hist.workload,
        1,
        true,
    ));
    assert!(
        s_chase > s_hist,
        "chase ({s_chase:.2}) must out-gain cache-resident histogram ({s_hist:.2})"
    );
    assert!(
        s_chase > 1.5,
        "a random chase is highly memory bound: {s_chase:.2}"
    );
}

#[test]
fn every_kernel_cascades_bitwise_on_threads() {
    for k in suite(4096, 11) {
        let name = k.name;
        assert!(k.rt_safe(), "{name}: analyzer must admit every kernel");
        let expected = {
            let mut prog = SpecProgram::new(k.workload.clone(), k.arena.clone()).unwrap();
            let kern = prog.kernel(0);
            // SAFETY: single-threaded baseline.
            unsafe {
                cascade_rt::RealKernel::execute(&kern, 0..cascade_rt::RealKernel::iters(&kern))
            };
            prog.checksum()
        };
        let mut prog = SpecProgram::new(k.workload, k.arena).unwrap();
        let kern = prog.kernel(0);
        try_run_governed(
            &kern,
            &RunConfig::from(RunnerConfig {
                nthreads: 3,
                iters_per_chunk: 119,
                policy: RtPolicy::Restructure,
                poll_batch: 8,
            }),
        )
        .unwrap();
        assert_eq!(prog.checksum(), expected, "{name} diverged under cascading");
    }
}

#[test]
fn tri_solve_survives_injected_panic_bitwise() {
    // Chaos smoke for the newly rt-enabled carried-read kernel: a worker
    // panic mid-run must be absorbed by the retry ladder (injected faults
    // are fail-stop) with a bitwise-identical result — the helper horizon
    // keeps holding even while chunks are re-executed on survivors.
    let build = || triangular_solve(4096, 4, 17);
    let expected = {
        let k = build();
        let mut prog = SpecProgram::new(k.workload, k.arena).unwrap();
        let kern = prog.kernel(0);
        // SAFETY: single-threaded baseline.
        unsafe { cascade_rt::RealKernel::execute(&kern, 0..cascade_rt::RealKernel::iters(&kern)) };
        prog.checksum()
    };
    let k = build();
    let mut prog = SpecProgram::new(k.workload, k.arena).unwrap();
    let cfg = RunnerConfig {
        nthreads: 3,
        iters_per_chunk: 113,
        policy: RtPolicy::Restructure,
        poll_batch: 8,
    };
    let faulty = FaultyKernel::new(
        prog.kernel(0),
        FaultPlan::new(cfg.iters_per_chunk).inject(5, FaultKind::Panic),
    );
    try_run_governed(
        &faulty,
        &RunConfig {
            runner: cfg,
            tolerance: Tolerance::retrying(Duration::from_secs(5)),
            ..Default::default()
        },
    )
    .expect("retry ladder must absorb a fail-stop panic");
    assert_eq!(faulty.fired(), vec![5], "the planned fault must have fired");
    drop(faulty);
    assert_eq!(
        prog.checksum(),
        expected,
        "tri-solve diverged under fault + retry"
    );
}

#[test]
fn tri_solve_survives_mid_mutation_panic_bitwise() {
    // Acceptance for transactional chunks: tri-solve makes *no* fail-stop
    // promise, and this fault panics after 40 iterations of the chunk
    // already mutated x — before journaling this was unconditionally
    // fatal. The analyzer bounds the write-set, the worker rolls the
    // chunk back to its pre-chunk bytes, and both the retry ladder and
    // the salvage pass must now finish bitwise-identical to sequential.
    let build = || triangular_solve(4096, 4, 17);
    let expected = {
        let k = build();
        let mut prog = SpecProgram::new(k.workload, k.arena).unwrap();
        let kern = prog.kernel(0);
        // SAFETY: single-threaded baseline.
        unsafe { cascade_rt::RealKernel::execute(&kern, 0..cascade_rt::RealKernel::iters(&kern)) };
        prog.checksum()
    };
    for (label, tol, want_degraded) in [
        ("retry", Tolerance::retrying(Duration::from_secs(5)), false),
        (
            "salvage",
            Tolerance::resilient(Duration::from_secs(5)),
            true,
        ),
    ] {
        let k = build();
        let mut prog = SpecProgram::new(k.workload, k.arena).unwrap();
        let cfg = RunnerConfig {
            nthreads: 3,
            iters_per_chunk: 113,
            policy: RtPolicy::Restructure,
            poll_batch: 8,
        };
        let faulty = FaultyKernel::new(
            prog.kernel(0),
            FaultPlan::new(cfg.iters_per_chunk)
                .inject(5, FaultKind::PanicMidMutation { after_iters: 40 }),
        );
        let stats = try_run_governed(
            &faulty,
            &RunConfig {
                runner: cfg.clone(),
                tolerance: tol.clone(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{label}: journaled recovery must absorb the fault: {e}"));
        assert_eq!(stats.degraded, want_degraded, "{label}");
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::ChunkRolledBack { chunk: 5, .. })),
            "{label}: missing rollback event: {:?}",
            stats.faults
        );
        assert_eq!(faulty.fired(), vec![5], "{label}: planned fault must fire");
        drop(faulty);
        assert_eq!(
            prog.checksum(),
            expected,
            "tri-solve diverged under mid-mutation fault + {label}"
        );
    }
}

#[test]
fn spmv_scatter_order_is_preserved() {
    // The scatter-accumulate makes seq_spmv order-sensitive; cascading
    // across different chunk sizes must all give the sequential answer.
    let build = || seq_spmv(8192, 2048, 2048, 5);
    let expected = {
        let k = build();
        let mut prog = SpecProgram::new(k.workload, k.arena).unwrap();
        let kern = prog.kernel(0);
        // SAFETY: single-threaded baseline.
        unsafe { cascade_rt::RealKernel::execute(&kern, 0..cascade_rt::RealKernel::iters(&kern)) };
        prog.checksum()
    };
    for chunk in [64u64, 777, 5000] {
        let k = build();
        let mut prog = SpecProgram::new(k.workload, k.arena).unwrap();
        let kern = prog.kernel(0);
        try_run_governed(
            &kern,
            &RunConfig::from(RunnerConfig {
                nthreads: 2,
                iters_per_chunk: chunk,
                policy: RtPolicy::Prefetch,
                poll_batch: 16,
            }),
        )
        .unwrap();
        assert_eq!(prog.checksum(), expected, "chunk {chunk} diverged");
    }
}
