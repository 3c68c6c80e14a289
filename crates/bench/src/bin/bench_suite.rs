//! bench_suite — the tier-2 perf-trajectory snapshot.
//!
//! Runs a fixed set of runtime measurements — token-pass microbench,
//! pack/prefetch helper throughput, an observed cascaded run of the
//! synthetic loop, the miniature wave5 end-to-end, and the deterministic
//! simulator on the same problems — and emits one machine-readable JSON
//! snapshot (`BENCH_runtime.json`).
//!
//! The snapshot splits into two maps with different contracts:
//!
//! * `exact` — structural counters (chunks, handoffs, bytes, simulated
//!   cycles/misses). Deterministic for a given scale: independent of the
//!   host, load, and build profile. `bench_diff` gates on these — any
//!   drift is a real behaviour change, never flakiness.
//! * `timing_ns` — wall-clock measurements. Host-dependent by nature;
//!   `bench_diff` reports their drift but does not gate on it unless
//!   asked (`--max-regress`).
//!
//! Regenerate the checked-in baseline with:
//!
//! ```text
//! cargo run --release -p cascade-bench --bin bench_suite -- --out BENCH_runtime.json
//! ```
//!
//! `CASCADE_SCALE` shrinks every problem for smoke runs (counters then
//! differ from the full-scale baseline, which `bench_diff` refuses to
//! compare — the params must match).

use std::time::Instant;

use cascade_analyze::plan::plan_loop;
use cascade_bench::{baseline, cascade_cfg, header, parmvr, scale_from_args, CHUNK_64K};
use cascade_core::metrics::fmt_f64;
use cascade_core::{run_cascaded as sim_run_cascaded, HelperPolicy};
use cascade_mem::machines::pentium_pro;
use cascade_rt::{
    fission_specs, try_run_governed, try_run_planned, RealKernel, RtPolicy, RunConfig,
    RunnerConfig, SpecProgram, Token, VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::{
    AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};

#[derive(Default)]
struct Suite {
    exact: Vec<(String, f64)>,
    timing: Vec<(String, f64)>,
}

impl Suite {
    fn exact(&mut self, key: &str, v: f64) {
        self.exact.push((key.to_string(), v));
    }
    fn timing(&mut self, key: &str, v: f64) {
        self.timing.push((key.to_string(), v));
    }

    fn to_json(&self, scale: f64) -> String {
        let map = |pairs: &[(String, f64)]| -> String {
            let mut out = String::new();
            for (i, (k, v)) in pairs.iter().enumerate() {
                let sep = if i + 1 < pairs.len() { "," } else { "" };
                out.push_str(&format!("    \"{k}\": {}{sep}\n", fmt_f64(*v)));
            }
            out
        };
        format!(
            "{{\n  \"schema\": \"cascade-bench-v1\",\n  \"params\": {{\"scale\": {}, \"threads\": 2}},\n  \"exact\": {{\n{}  }},\n  \"timing_ns\": {{\n{}  }}\n}}\n",
            fmt_f64(scale),
            map(&self.exact),
            map(&self.timing),
        )
    }
}

/// A lag-2 recurrence (`a(i+2) = f(a(i))`) plus an independent consumer:
/// the planner fissions it into `[doacross(2), parallel]`, so the
/// planned executor exercises the post/wait pipeline.
fn doacross_workload(n: u64) -> (Workload, Arena) {
    let mut space = AddressSpace::new();
    let a = space.alloc("a", 8, n + 2);
    let x = space.alloc("x", 8, n);
    let sref = |name: &'static str, array, base, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base, stride: 1 },
        mode,
        bytes: 8,
        hoistable: false,
    };
    let spec = LoopSpec {
        name: "bench-doacross".into(),
        iters: n,
        refs: vec![
            sref("a(i)", a, 0, Mode::Read),
            sref("a(i+2)", a, 2, Mode::Write),
            sref("x(i)", x, 0, Mode::Write),
        ],
        compute: 4.0,
        hoistable_compute: 0.0,
        hoist_result_bytes: 0,
    };
    let w = Workload {
        space,
        index: IndexStore::new(),
        loops: vec![spec],
    };
    let mut arena = Arena::new(&w.space);
    for i in 0..n + 2 {
        arena.set_f64(&w.space, a, i, (i % 23) as f64 * 0.1875 + 0.25);
    }
    (w, arena)
}

fn main() {
    let scale = scale_from_args(1.0);
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
    };
    let mut suite = Suite::default();

    // --- token-pass microbench (the paper's transfer-of-control cost) ---
    let transfers = 10_000u64;
    let t0 = Instant::now();
    let t = Token::new();
    for i in 0..transfers {
        t.release_to(i + 1);
        std::hint::black_box(t.wait_for(i + 1));
    }
    let per_transfer = t0.elapsed().as_nanos() as f64 / transfers as f64;
    suite.exact("token_pass.transfers", transfers as f64);
    suite.timing("token_pass.per_transfer_ns", per_transfer);

    // --- pack / prefetch helper throughput ---
    let n = (((64u64 << 10) as f64 * scale) as u64).max(1024) / 8 * 8;
    let s = Synth::build(n, Variant::Dense, 9);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for i in 0..n {
        k.pack_iter(i, &mut buf);
    }
    let pack_ns = t0.elapsed().as_nanos() as f64;
    suite.exact("helpers.packed_bytes", buf.len() as f64);
    suite.timing("helpers.pack_pass_ns", pack_ns);
    let t0 = Instant::now();
    for i in 0..n {
        k.prefetch_iter(i);
    }
    suite.exact(
        "helpers.prefetch_bytes",
        (n * k.prefetch_bytes_per_iter()) as f64,
    );
    suite.timing("helpers.prefetch_pass_ns", t0.elapsed().as_nanos() as f64);

    // --- observed cascaded run of the synthetic loop ---
    let cfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 4096,
        policy: RtPolicy::Restructure,
        poll_batch: 64,
    };
    let stats =
        try_run_governed(&k, &RunConfig::from(cfg.clone())).expect("fault-free run must succeed");
    let m = stats.metrics();
    suite.exact("rt_cascade.chunks", stats.chunks as f64);
    suite.exact("rt_cascade.iters", stats.iters as f64);
    suite.exact("rt_cascade.handoffs", m.handoff.count as f64);
    suite.exact("rt_cascade.exec_samples", m.chunk_exec.count as f64);
    suite.timing("rt_cascade.wall_ns", stats.elapsed.as_nanos() as f64);

    // --- verified execution: digest handoffs + full-replay audit ---
    // The same synthetic loop under `VerifyPolicy::EveryChunk`. The
    // counters are structural: claimants replay-verify every committed
    // predecessor (chunks - 1 of them; the supervisor audits the final
    // chunk outside the per-thread counters) and the arena is scrubbed
    // exactly twice (baseline + post-join compare). The digest/replay
    // path cost is host-dependent and lands in `timing`.
    let vs = Synth::build(n, Variant::Dense, 9);
    let vprog = SpecProgram::new(vs.workload, vs.arena).unwrap();
    let vk = vprog.kernel(0);
    let vcfg = RunConfig {
        runner: cfg,
        verify: VerifyPolicy::EveryChunk,
        ..RunConfig::default()
    };
    let vstats = try_run_governed(&vk, &vcfg).expect("fault-free run must succeed");
    let verified: u64 = vstats.threads.iter().map(|t| t.verified_chunks).sum();
    let verify_ns: u128 = vstats.threads.iter().map(|t| t.verify_ns).sum();
    suite.exact("verify.chunks", vstats.chunks as f64);
    suite.exact("verify.replayed_chunks", verified as f64);
    suite.exact("verify.scrubs", vstats.scrubs as f64);
    suite.timing("verify.digest_replay_ns", verify_ns as f64);
    suite.timing("verify.wall_ns", vstats.elapsed.as_nanos() as f64);

    // --- miniature wave5 end-to-end on real threads ---
    let pscale = (0.02 * scale).max(0.005);
    let p = cascade_wave5::Parmvr::build(cascade_wave5::ParmvrParams {
        scale: pscale,
        seed: 5,
    });
    let wprog = SpecProgram::new(p.workload, p.arena).unwrap();
    let wcfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 2048,
        policy: RtPolicy::Restructure,
        poll_batch: 64,
    };
    let t0 = Instant::now();
    let (mut chunks, mut iters, mut handoffs) = (0u64, 0u64, 0u64);
    for l in 0..wprog.num_loops() {
        let k = wprog.kernel(l);
        let stats = try_run_governed(&k, &RunConfig::from(wcfg.clone()))
            .expect("fault-free run must succeed");
        chunks += stats.chunks;
        iters += stats.iters;
        handoffs += stats.metrics().handoff.count;
    }
    suite.exact("wave5.loops", wprog.num_loops() as f64);
    suite.exact("wave5.chunks", chunks as f64);
    suite.exact("wave5.iters", iters as f64);
    suite.exact("wave5.handoffs", handoffs as f64);
    suite.timing("wave5.wall_ns", t0.elapsed().as_nanos() as f64);

    // --- plan-driven execution: fission + the DOACROSS post/wait pipeline ---
    // fused_stream fissions into [sequential residue, parallel consumer];
    // the lag-2 recurrence plans [doacross(2), parallel]. Sub-loop
    // counts, per-sub-loop chunk counts, and post/wait gate counts are
    // structural — deterministic for a given scale — so they gate in
    // `exact`; gate-stall time is host-dependent and lands in `timing`.
    let fused = cascade_kernels::fused_stream(n, 11);
    let (dw, darena) = doacross_workload(n);
    let planned_cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: 2,
            iters_per_chunk: 1024,
            policy: RtPolicy::Restructure,
            poll_batch: 64,
        },
        ..RunConfig::default()
    };
    let t0 = Instant::now();
    let mut stall_ns = 0u128;
    for (tag, w, arena) in [
        ("fused", fused.workload, fused.arena),
        ("doacross", dw, darena),
    ] {
        let plan = plan_loop(&w, &w.loops[0]);
        assert!(!plan.opaque && !plan.partition.is_empty(), "{tag}: no plan");
        let fw = Workload {
            space: w.space.clone(),
            index: w.index.clone(),
            loops: fission_specs(&w.loops[0], &plan),
        };
        let prog = SpecProgram::new(fw, arena).unwrap();
        let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
        let stats =
            try_run_planned(&kernels, &plan, &planned_cfg).expect("fault-free run must succeed");
        suite.exact(
            &format!("planned.{tag}.sub_loops"),
            stats.sub_loops.len() as f64,
        );
        suite.exact(&format!("planned.{tag}.iters"), stats.iters as f64);
        suite.exact(
            &format!("planned.{tag}.post_waits"),
            stats.post_waits() as f64,
        );
        for s in &stats.sub_loops {
            suite.exact(
                &format!("planned.{tag}.sub{}_chunks", s.index),
                s.chunks as f64,
            );
        }
        stall_ns += stats.post_wait_stall_ns();
    }
    suite.timing("planned.post_wait_stall_ns", stall_ns as f64);
    suite.timing("planned.wall_ns", t0.elapsed().as_nanos() as f64);

    // --- the deterministic simulator on the same wave5 problem ---
    let machine = pentium_pro();
    let w = parmvr(pscale);
    let t0 = Instant::now();
    let base = baseline(&machine, &w.workload);
    let casc = sim_run_cascaded(
        &machine,
        &w.workload,
        &cascade_cfg(4, CHUNK_64K, HelperPolicy::Restructure { hoist: true }),
    );
    suite.exact("sim_wave5.base_cycles", base.total_cycles());
    suite.exact("sim_wave5.casc_cycles", casc.total_cycles());
    suite.exact(
        "sim_wave5.exec_l2_misses",
        casc.loops.iter().map(|l| l.exec.l2_misses).sum::<u64>() as f64,
    );
    suite.timing("sim_wave5.host_wall_ns", t0.elapsed().as_nanos() as f64);

    let json = suite.to_json(scale);
    match out_path {
        Some(path) => {
            header(&format!(
                "Bench suite: perf-trajectory snapshot (scale {scale})"
            ));
            println!(
                "{} exact counters, {} timings",
                suite.exact.len(),
                suite.timing.len()
            );
            for (k, v) in &suite.exact {
                println!("  exact   {k:<28} {}", fmt_f64(*v));
            }
            for (k, v) in &suite.timing {
                println!("  timing  {k:<28} {:.0} ns", v);
            }
            std::fs::write(&path, &json).expect("write snapshot");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
