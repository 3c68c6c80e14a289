//! The exact-counter gate: the structural counters the paper's argument
//! rests on (chunks, handoffs, packed and prefetched bytes, DOACROSS
//! post/wait gates, simulated cycles and misses), computed at one fixed
//! scale and compared exactly with the `exact` block of
//! `BENCH_runtime.json`, the golden file.
//!
//! The counters are independent of the host, its load and the build
//! profile, so any difference is a behaviour change (chunking, the
//! handoff protocol, helper byte accounting, the plan executor, the
//! simulator's cost model), never noise. Timings are not gated here:
//! the repository benchmark (`benchmark/`) measures the same layers with
//! repetition and spread.
//!
//! When a change moves a counter on purpose, the failure message prints
//! every key as golden -> computed and then the whole computed block;
//! paste that block over the `exact` block of `BENCH_runtime.json`.
//!
//! ```text
//! cargo test --release -p cascade-bench --test exact_counters
//! ```

use cascade_analyze::plan::plan_loop;
use cascade_bench::json::{parse, Json};
use cascade_bench::{baseline, cascade_cfg, parmvr, CHUNK_64K};
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

/// Every counter, in the golden file's order.
fn compute() -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |key: &str, v: f64| out.push((key.to_string(), v));

    // The token pass (the paper's transfer of control), on one thread.
    let t = Token::new();
    for i in 0..10_000u64 {
        t.release_to(i + 1);
        t.wait_for(i + 1);
    }
    put("token_pass.transfers", t.current() as f64);

    // The pack and prefetch helpers over the whole synthetic loop.
    let n = 64u64 << 10;
    let s = Synth::build(n, Variant::Dense, 9);
    let prog = SpecProgram::new(s.workload, s.arena).unwrap();
    let k = prog.kernel(0);
    let mut buf = Vec::new();
    for i in 0..n {
        k.pack_iter(i, &mut buf);
    }
    put("helpers.packed_bytes", buf.len() as f64);
    put(
        "helpers.prefetch_bytes",
        (n * k.prefetch_bytes_per_iter()) as f64,
    );

    // A cascaded run of the synthetic loop on two real threads.
    let cfg = RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 4096,
        policy: RtPolicy::Restructure,
        poll_batch: 64,
    };
    let stats =
        try_run_governed(&k, &RunConfig::from(cfg.clone())).expect("fault-free run must succeed");
    let m = stats.metrics();
    put("rt_cascade.chunks", stats.chunks as f64);
    put("rt_cascade.iters", stats.iters as f64);
    put("rt_cascade.handoffs", m.handoff.count as f64);
    put("rt_cascade.exec_samples", m.chunk_exec.count as f64);

    // The same loop under `VerifyPolicy::EveryChunk`: claimants replay
    // every committed predecessor (the supervisor audits the last chunk
    // outside the per-thread counters), and the arena is scrubbed twice.
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
    put("verify.chunks", vstats.chunks as f64);
    put("verify.replayed_chunks", verified as f64);
    put("verify.scrubs", vstats.scrubs as f64);

    // A miniature wave5, all 15 PARMVR loops, on real threads.
    let pscale = 0.02;
    let p = cascade_wave5::Parmvr::build(cascade_wave5::ParmvrParams {
        scale: pscale,
        seed: 5,
    });
    let wprog = SpecProgram::new(p.workload, p.arena).unwrap();
    let wcfg = RunConfig::from(RunnerConfig {
        nthreads: 2,
        iters_per_chunk: 2048,
        policy: RtPolicy::Restructure,
        poll_batch: 64,
    });
    let (mut chunks, mut iters, mut handoffs) = (0u64, 0u64, 0u64);
    for l in 0..wprog.num_loops() {
        let stats = try_run_governed(&wprog.kernel(l), &wcfg).expect("fault-free run must succeed");
        chunks += stats.chunks;
        iters += stats.iters;
        handoffs += stats.metrics().handoff.count;
    }
    put("wave5.loops", wprog.num_loops() as f64);
    put("wave5.chunks", chunks as f64);
    put("wave5.iters", iters as f64);
    put("wave5.handoffs", handoffs as f64);

    // Plan-driven execution: fused_stream fissions into [sequential
    // residue, parallel consumer]; the lag-2 recurrence plans
    // [doacross(2), parallel].
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
        put(
            &format!("planned.{tag}.sub_loops"),
            stats.sub_loops.len() as f64,
        );
        put(&format!("planned.{tag}.iters"), stats.iters as f64);
        put(
            &format!("planned.{tag}.post_waits"),
            stats.post_waits() as f64,
        );
        for s in &stats.sub_loops {
            put(
                &format!("planned.{tag}.sub{}_chunks", s.index),
                s.chunks as f64,
            );
        }
    }

    // The deterministic simulator on the same wave5 problem.
    let machine = pentium_pro();
    let w = parmvr(pscale);
    let base = baseline(&machine, &w.workload);
    let casc = sim_run_cascaded(
        &machine,
        &w.workload,
        &cascade_cfg(4, CHUNK_64K, HelperPolicy::Restructure { hoist: true }),
    );
    put("sim_wave5.base_cycles", base.total_cycles());
    put("sim_wave5.casc_cycles", casc.total_cycles());
    put(
        "sim_wave5.exec_l2_misses",
        casc.loops.iter().map(|l| l.exec.l2_misses).sum::<u64>() as f64,
    );
    out
}

#[test]
fn exact_counters_match_the_golden_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let golden: Vec<(&str, f64)> = doc
        .get("exact")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("{path}: no \"exact\" object"))
        .iter()
        .map(|(k, v)| {
            let v = v
                .as_f64()
                .unwrap_or_else(|| panic!("{path}: {k} is not a number"));
            (k.as_str(), v)
        })
        .collect();
    let computed = compute();

    let mut report = String::new();
    let mut diffs = 0;
    for (k, g) in &golden {
        match computed.iter().find(|(ck, _)| ck == k) {
            Some((_, c)) if c == g => report += &format!("  ok       {k:<28} {}\n", fmt_f64(*g)),
            Some((_, c)) => {
                diffs += 1;
                report += &format!("  CHANGED  {k:<28} {} -> {}\n", fmt_f64(*g), fmt_f64(*c));
            }
            None => {
                diffs += 1;
                report += &format!("  MISSING  {k:<28} {} -> (not computed)\n", fmt_f64(*g));
            }
        }
    }
    for (k, c) in &computed {
        if !golden.iter().any(|(gk, _)| gk == k) {
            diffs += 1;
            report += &format!("  NEW      {k:<28} (not in golden) -> {}\n", fmt_f64(*c));
        }
    }
    if diffs > 0 {
        let block: Vec<String> = computed
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {}", fmt_f64(*v)))
            .collect();
        panic!(
            "{diffs} exact counter(s) differ from {path} (golden -> computed):\n{report}\n\
             computed block; if the change is intended, paste it over the file's \"exact\" block:\n\
             \x20 \"exact\": {{\n{}\n  }}",
            block.join(",\n")
        );
    }
}
