//! Simulator/runtime agreement: the same workload descriptions drive both
//! the trace-driven simulator and the real-thread runtime, and cascaded
//! real execution is bitwise identical to sequential real execution for
//! every PARMVR loop and the synthetic loop.

use cascaded_execution::rt::{try_run_governed, RtPolicy, RunConfig, RunnerConfig, SpecProgram};
use cascaded_execution::synth::{Synth, Variant};
use cascaded_execution::wave5::{Parmvr, ParmvrParams};
use cascaded_execution::ChunkPlan;

fn parmvr() -> Parmvr {
    Parmvr::build(ParmvrParams {
        scale: 0.01,
        seed: 31,
    })
}

fn sequential_checksum(p: Parmvr) -> u64 {
    let mut prog = SpecProgram::new(p.workload, p.arena).unwrap();
    for i in 0..prog.num_loops() {
        let k = prog.kernel(i);
        // SAFETY: single-threaded baseline.
        unsafe { cascaded_execution::rt::RealKernel::execute(&k, 0..p_iters(&k)) };
    }
    prog.checksum()
}

fn p_iters(k: &cascaded_execution::rt::SpecKernel<'_>) -> u64 {
    cascaded_execution::rt::RealKernel::iters(k)
}

#[test]
fn all_fifteen_parmvr_loops_cascade_bitwise() {
    let expected = sequential_checksum(parmvr());
    for policy in [RtPolicy::None, RtPolicy::Prefetch, RtPolicy::Restructure] {
        for threads in [2usize, 3] {
            let p = parmvr();
            let mut prog = SpecProgram::new(p.workload, p.arena).unwrap();
            for i in 0..prog.num_loops() {
                let k = prog.kernel(i);
                try_run_governed(
                    &k,
                    &RunConfig::from(RunnerConfig {
                        nthreads: threads,
                        iters_per_chunk: 301, // deliberately ragged
                        policy,
                        poll_batch: 32,
                    }),
                )
                .unwrap();
            }
            assert_eq!(
                prog.checksum(),
                expected,
                "policy {policy:?}, {threads} threads diverged from sequential"
            );
        }
    }
}

#[test]
fn synthetic_loop_cascades_bitwise_in_both_variants() {
    for variant in [Variant::Dense, Variant::Sparse] {
        let expected = {
            let s = Synth::build(1 << 14, variant, 77);
            let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
            let k = prog.kernel(0);
            // SAFETY: single-threaded baseline.
            unsafe { cascaded_execution::rt::RealKernel::execute(&k, 0..p_iters(&k)) };
            prog.checksum()
        };
        let s = Synth::build(1 << 14, variant, 77);
        let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let k = prog.kernel(0);
        try_run_governed(
            &k,
            &RunConfig::from(RunnerConfig {
                nthreads: 4,
                iters_per_chunk: 123,
                policy: RtPolicy::Restructure,
                poll_batch: 16,
            }),
        )
        .unwrap();
        assert_eq!(prog.checksum(), expected, "{variant:?} diverged");
    }
}

#[test]
fn simulator_and_runtime_agree_on_chunk_boundaries() {
    // Both sides split the iteration space with ChunkPlan; a plan built
    // from the same parameters must give identical ranges everywhere.
    let p = parmvr();
    for spec in &p.workload.loops {
        let plan_a = ChunkPlan::new(spec, 64 * 1024, 32);
        let plan_b = ChunkPlan::new(spec, 64 * 1024, 32);
        assert_eq!(plan_a, plan_b);
        let covered: u64 = plan_a.ranges().map(|r| r.end - r.start).sum();
        assert_eq!(
            covered, spec.iters,
            "{}: plan must cover the loop exactly",
            spec.name
        );
    }
}

#[test]
fn runtime_helper_stats_are_consistent() {
    let p = parmvr();
    let prog = SpecProgram::new(p.workload, p.arena).unwrap();
    let k = prog.kernel(0);
    let stats = try_run_governed(
        &k,
        &RunConfig::from(RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 256,
            policy: RtPolicy::Restructure,
            poll_batch: 16,
        }),
    )
    .unwrap();
    let total_chunks: u64 = stats.threads.iter().map(|t| t.chunks).sum();
    assert_eq!(
        total_chunks, stats.chunks,
        "every chunk executed exactly once"
    );
    let coverage = stats.helper_coverage();
    assert!(
        (0.0..=1.0).contains(&coverage),
        "coverage must be a fraction: {coverage}"
    );
    let helped: u64 = stats.threads.iter().map(|t| t.helper_iters).sum();
    assert!(
        helped <= stats.iters,
        "helpers cannot cover more than the loop"
    );
}
