//! Criterion micro-benchmarks of the real-thread runtime: the cost of a
//! control transfer on this host (the analogue of the paper's measured
//! 120 / 500 cycle flag transfers), pack/prefetch helper throughput, and
//! end-to-end cascaded execution of the synthetic loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use cascade_rt::{
    try_run_governed, RealKernel, RtPolicy, RunConfig, RunnerConfig, SpecProgram, Token,
};
use cascade_synth::{Synth, Variant};
use cascade_wave5::{Parmvr, ParmvrParams};

fn bench_token(c: &mut Criterion) {
    let mut g = c.benchmark_group("token");
    g.sample_size(10); // spin/yield heavy on oversubscribed hosts
    g.bench_function("uncontended_transfer", |b| {
        // Single-thread grant/observe cycle: lower bound of the paper's
        // "transfer of control" cost on this host.
        b.iter(|| {
            let t = Token::new();
            for i in 0..1000u64 {
                t.release_to(i + 1);
                black_box(t.wait_for(i + 1));
            }
        })
    });
    g.bench_function("two_thread_pingpong", |b| {
        b.iter(|| {
            let t = Token::new();
            std::thread::scope(|s| {
                for me in 0..2u64 {
                    let t = &t;
                    s.spawn(move || {
                        let mut chunk = me;
                        while chunk < 200 {
                            t.wait_for(chunk);
                            t.release_to(chunk + 1);
                            chunk += 2;
                        }
                    });
                }
            });
        })
    });
    g.finish();
}

fn bench_helpers(c: &mut Criterion) {
    let mut g = c.benchmark_group("helpers");
    let n = 1u64 << 16;
    let s = Synth::build(n, Variant::Dense, 9);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    g.throughput(Throughput::Elements(n));
    g.bench_function("prefetch_iter", |b| {
        b.iter(|| {
            for i in 0..n {
                k.prefetch_iter(i);
            }
        })
    });
    g.bench_function("pack_iter", |b| {
        let mut buf = Vec::with_capacity((n * 8) as usize);
        b.iter(|| {
            buf.clear();
            for i in 0..n {
                black_box(k.pack_iter(i, &mut buf));
            }
        })
    });
    g.finish();
}

fn bench_cascade_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("cascade-rt");
    g.sample_size(10);
    let n = 1u64 << 18;
    for policy in [RtPolicy::None, RtPolicy::Prefetch, RtPolicy::Restructure] {
        g.bench_function(format!("synthetic_dense_{}", policy.label()), |b| {
            b.iter(|| {
                let s = Synth::build(n, Variant::Dense, 9);
                let prog = SpecProgram::new(s.workload, s.arena).unwrap();
                let k = prog.kernel(0);
                let cfg = RunnerConfig {
                    nthreads: 2,
                    iters_per_chunk: 8192,
                    policy,
                    poll_batch: 128,
                };
                black_box(
                    try_run_governed(&k, &RunConfig::from(cfg))
                        .expect("cascaded run failed")
                        .chunks,
                )
            })
        });
    }
    g.finish();
}

fn bench_wave5_small(c: &mut Criterion) {
    let mut g = c.benchmark_group("wave5");
    g.sample_size(10);
    // End-to-end miniature PARMVR: all 15 loops cascaded in sequence, the
    // same configuration `bench_suite` snapshots into BENCH_runtime.json.
    g.bench_function("parmvr_x15_small", |b| {
        b.iter(|| {
            let p = Parmvr::build(ParmvrParams {
                scale: 0.02,
                seed: 5,
            });
            let prog = SpecProgram::new(p.workload, p.arena).unwrap();
            let cfg = RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 2048,
                policy: RtPolicy::Restructure,
                poll_batch: 64,
            };
            let mut chunks = 0u64;
            for i in 0..prog.num_loops() {
                let k = prog.kernel(i);
                chunks += try_run_governed(&k, &RunConfig::from(cfg.clone()))
                    .expect("cascaded run failed")
                    .chunks;
            }
            black_box(chunks)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_token,
    bench_helpers,
    bench_cascade_end_to_end,
    bench_wave5_small
);
criterion_main!(benches);
