//! Extra experiment C: the real-thread runtime on this host.
//!
//! Runs the synthetic loop and a miniature PARMVR under actual cascaded
//! execution (std::thread workers, atomic token, x86-64 prefetch helpers,
//! sequential-buffer packing) and checks bitwise equivalence with the
//! sequential execution. On a multi-core shared-memory host this also
//! reports wall-clock times; on a single-CPU container (like the
//! reproduction environment) the value demonstrated is protocol
//! correctness, not speedup — the quantitative claims live in the
//! simulator experiments.

use cascade_bench::{header, row, scale_from_args};
use cascade_rt::{
    run_sequential, try_run_governed, RtPolicy, RunConfig, RunnerConfig, SpecProgram,
};
use cascade_synth::{Synth, Variant};
use cascade_wave5::{Parmvr, ParmvrParams};

fn main() {
    // `scale` multiplies the synthetic vector length (default n = 2M) and
    // the PARMVR problem size.
    let scale = scale_from_args(1.0);
    header("Extra C: real-thread cascaded execution (correctness + wall time on this host)");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host CPUs: {cpus}\n");
    let widths = [30usize, 9, 12, 12, 10, 10];
    println!(
        "{}",
        row(
            &[
                "kernel".into(),
                "policy".into(),
                "seq (ms)".into(),
                "casc (ms)".into(),
                "chunks".into(),
                "bitwise".into()
            ],
            &widths
        )
    );

    // Synthetic loop, dense and sparse.
    for variant in [Variant::Dense, Variant::Sparse] {
        for policy in [RtPolicy::Prefetch, RtPolicy::Restructure] {
            let n = (((1u64 << 21) as f64 * scale) as u64).max(1024) / 8 * 8;
            let seq_sum = {
                let s = Synth::build(n, variant, 3);
                let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
                let k = prog.kernel(0);
                // SAFETY: single-threaded baseline.
                let dt = run_sequential(&k);
                (prog.checksum(), dt)
            };
            let s = Synth::build(n, variant, 3);
            let mut prog = SpecProgram::new(s.workload, s.arena).unwrap();
            let k = prog.kernel(0);
            let cfg = RunnerConfig {
                nthreads: cpus.clamp(1, 4),
                iters_per_chunk: 16 * 1024,
                policy,
                poll_batch: 128,
            };
            let stats =
                try_run_governed(&k, &RunConfig::from(cfg.clone())).expect("cascaded run failed");
            let ok = prog.checksum() == seq_sum.0;
            println!(
                "{}",
                row(
                    &[
                        format!("synthetic {}", variant.label()),
                        policy.label().to_string(),
                        format!("{:.2}", seq_sum.1.as_secs_f64() * 1e3),
                        format!("{:.2}", stats.elapsed.as_secs_f64() * 1e3),
                        stats.chunks.to_string(),
                        if ok {
                            "OK".into()
                        } else {
                            "MISMATCH".to_string()
                        },
                    ],
                    &widths
                )
            );
            assert!(ok, "cascaded execution diverged from sequential");
        }
    }

    // Miniature PARMVR: every loop in sequence.
    let scale = (0.02 * scale).max(0.005);
    let seq_sum = {
        let p = Parmvr::build(ParmvrParams { scale, seed: 5 });
        let mut prog = SpecProgram::new(p.workload, p.arena).unwrap();
        let t0 = std::time::Instant::now();
        for i in 0..prog.num_loops() {
            let k = prog.kernel(i);
            run_sequential(&k);
        }
        (prog.checksum(), t0.elapsed())
    };
    let p = Parmvr::build(ParmvrParams { scale, seed: 5 });
    let mut prog = SpecProgram::new(p.workload, p.arena).unwrap();
    let cfg = RunnerConfig {
        nthreads: cpus.clamp(1, 4),
        iters_per_chunk: 2048,
        policy: RtPolicy::Restructure,
        poll_batch: 64,
    };
    let t0 = std::time::Instant::now();
    let mut chunks = 0;
    for i in 0..prog.num_loops() {
        let k = prog.kernel(i);
        chunks += try_run_governed(&k, &RunConfig::from(cfg.clone()))
            .expect("cascaded run failed")
            .chunks;
    }
    let casc_dt = t0.elapsed();
    let ok = prog.checksum() == seq_sum.0;
    println!(
        "{}",
        row(
            &[
                format!("PARMVR x15 (scale {scale})"),
                "restr.".into(),
                format!("{:.2}", seq_sum.1.as_secs_f64() * 1e3),
                format!("{:.2}", casc_dt.as_secs_f64() * 1e3),
                chunks.to_string(),
                if ok { "OK".into() } else { "MISMATCH".into() },
            ],
            &widths
        )
    );
    assert!(ok, "cascaded PARMVR diverged from sequential");
    println!("\nAll cascaded executions are bitwise identical to sequential execution.");
    if cpus == 1 {
        println!("(single-CPU host: wall-clock comparison is not meaningful here)");
    }
}
