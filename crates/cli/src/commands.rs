//! The `cascade` subcommands.

use std::path::Path;
use std::time::Duration;

use cascade_analyze::oracle::{check_plan, Violation};
use cascade_analyze::plan::{plan_workload, Schedule, TransformPlan};
use cascade_analyze::{analyze_workload, WorkloadReport};
use cascade_core::{
    run_cascaded, run_sequential, run_unbounded, CascadeConfig, HelperPolicy, RunReport,
    UnboundedConfig,
};
use cascade_mem::{machines, MachineConfig};
use cascade_rt::{
    ckpt, try_run_governed, Observe, RealKernel, RtPolicy, RunConfig, RunnerConfig, SpecProgram,
    VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::{from_text, to_text, Arena, Workload};
use cascade_wave5::{Parmvr, ParmvrParams};

use cascade_core::ChunkPlan;
use cascade_trace::{
    reuse_distances, stride_histogram, Diagnostic, Mode, Resolver, Severity, TraceRef,
};

use crate::args::{ArgError, Args};

/// Usage text.
pub fn help() -> String {
    "\
cascade — cascaded execution (IPPS 1999) reproduction

USAGE:
  cascade machines
      Print the simulated machines (paper Table 1).

  cascade sim [options]
      Simulate cascaded execution and report speedup vs. the sequential
      baseline.
        --workload parmvr|synth-dense|synth-sparse   (default parmvr)
        --scale F          workload scale for parmvr (default 0.25)
        --n N              vector length for synth workloads (default 4194304)
        --seed N           workload seed (default 42)
        --machine ppro|r10000                        (default ppro)
        --future K         scale the machine's memory latency by K
        --procs N          processors (default 4)
        --chunk BYTES      chunk size, accepts K/M suffix (default 64K)
        --policy none|prefetch|restructure|restructure+hoist
                                                      (default restructure+hoist)
        --calls N          invocations, last measured (default 2)
        --no-jump-out      stall the token instead of abandoning helpers
        --unbounded        use the paper's unbounded-processor model
        --per-loop         per-loop table instead of one-line summary

  cascade rt [options]
      Run the workload on real threads and verify bitwise equivalence
      with sequential execution.
        --workload/--scale/--n/--seed   as above
        --threads N        worker threads (default: available parallelism)
        --chunk-iters N    iterations per chunk (default 4096)
        --policy none|prefetch|restructure            (default restructure)
        --poll N           helper iterations between token polls (default 64)
        --verify off|checksum|every|sampled:K         (default off)
                           online verified execution: every chunk commit
                           publishes a write-footprint digest with the
                           token handoff; `every`/`sampled:K` also
                           replay-verify committed chunks against a
                           journaled private view before the next chunk
                           executes (docs/ROBUSTNESS.md)

  cascade run [options]
      Run the workload on real threads under an explicit execution
      mode and verify bitwise equivalence with sequential execution.
        --mode cascade|plan   (default plan)
                           cascade: the token-serialized runtime (as
                           `cascade rt`); plan: fission each loop under
                           its analyzer transformation plan and run
                           DOALL sub-loops as chunks claimed in order,
                           DOACROSS sub-loops as a post/wait pipeline,
                           and sequential residues cascaded — in plan
                           order. A serial sub-loop right before a DOALL
                           one runs plain on one worker with the DOALL
                           one behind its frontier. Opaque loops fall
                           back to cascade.
        --workload/--scale/--n/--seed   as above
        --threads/--chunk-iters/--poll/--policy/--verify   as `rt`
                           (verification rides sequential/cascaded
                           stages; DOALL/DOACROSS stages have no
                           sequential handoff to checksum)

  cascade metrics [options]
      Phase-level observability report of one cascaded run: per-worker
      helper/spin/execute breakdown, token-handoff latency distribution,
      pack/prefetch byte counts, jump-outs and horizon stalls — in the
      schema shared by the simulator and the real-thread runtime
      (docs/OBSERVABILITY.md).
        --source rt|sim    real threads (default) or the simulator
        --workload/--scale/--n/--seed   as above
                           (default: quickstart-style synthetic loop,
                           n 65536)
        --loop N           loop index within the workload (default 0)
        --format text|json (default text)
        --events           include the timestamped phase-event ring
        --out FILE         write the report to a file instead of stdout
        rt:  --threads/--chunk-iters/--poll/--policy   as `rt`
        sim: --machine/--procs/--chunk/--policy        as `sim`

  cascade chaos [options]
      Fault-injection matrix against the real-thread runtime: random
      plans of panics, stalls and slowdowns. Each run must recover
      in-cascade (with --tolerance retry), salvage a bitwise
      sequential-identical result, or report a typed error.
      Exits 1 if any plan silently corrupts the result.
        --n N              vector length of the synth workloads (default 16384)
        --seed N           plan/workload seed (default 42)
        --plans N          number of fault plans (default 20)
        --max-threads N    thread counts sampled from 1..=N (default 4)
        --chunk-iters N    iterations per chunk (default 128)
        --watchdog-ms N    stall-detection window (default 25)
        --stall-ms N       injected stall duration (default 80)
        --tolerance retry|salvage|fail-fast           (default salvage)
                           retry: re-execute fail-stop chunks on healthy
                           workers, quarantining the failed thread
        --retry-budget N   chunk re-executions before falling through
                           to salvage (default 4, retry only)
        --retry-backoff-ms N  first stall backoff window, doubling per
                           strike (default 10, retry only)
        --mode cascade|plan                          (default cascade)
                           plan: point the matrix at the plan-driven
                           executor instead — randomized multi-writer
                           loops fissioned into DOALL/DOACROSS/
                           sequential sub-loops, with per-sub-loop
                           fault plans; same verdict rules
        --mid-mutation     also sample panics that fire *after* part of
                           a chunk's writes landed; recovery then rests
                           on the analyzer-bounded undo journal (the
                           synth kernels are journalable, so these must
                           recover, salvage, or report a typed error —
                           never corrupt)
        --cancel           also storm run governance: each plan gets a
                           canceller thread firing at a random point (or,
                           every third plan, a random run deadline); a
                           cancelled run must report the exact committed
                           prefix, and resuming sequentially from it must
                           be bitwise identical to straight sequential
        --kill             kill-restart storm instead: fork checkpointing
                           child runs, SIGKILL each at a random point,
                           resume from the surviving checkpoint and gate
                           on bitwise equality with an uninterrupted
                           sequential run
          --plans N        kill trials (default 6)
          --every is sampled per trial; --throttle-us N slows child
          chunks (default 300) so kills land mid-run; --kill-dir D keeps
          checkpoint dirs under D (default: temp, removed on success)
        --corrupt          silent-bit-flip storm instead: chunks execute
                           normally but XOR a byte inside (or, every 4th
                           plan, outside) their write footprint; the run
                           executes under an armed replaying verify
                           policy and every flip must be detected online
                           — repaired bitwise, or failed with a typed
                           error whose committed prefix resumes bitwise
                           (out-of-footprint flips are the arena
                           scrubber's catch). Exits 1 on any missed flip
                           or silent divergence.
          --verify every|sampled:K        (default every)
          --tolerance retry|salvage|fail-fast  as above (default retry:
          retry/salvage repair in place, fail-fast proves the typed
          error's clean prefix); --plans N flip plans (default 12)

  cascade resume [options]
      Restore a checkpointed run (written by a durable run or chaos
      --kill) and finish the loop sequentially from the committed
      prefix. Corrupted, torn or stale checkpoints are refused with a
      typed error — never silently resumed.
        --dir D            checkpoint directory (required)
        --verify           also replay the whole loop from the pristine
                           base snapshot and require the resumed state to
                           match bitwise (exit 1 on divergence)

  cascade sweep [options]
      Sweep one parameter of the simulated cascade.
        --param procs|chunk
        --values a,b,c     e.g. 2,4,8 or 4K,64K,1M
        (plus all `sim` options for the fixed parameters)

  cascade analyze [options]
      Reuse-distance / stride analysis of one loop's reference stream
      (original vs restructured execution stream over one chunk).
        --workload/--scale/--n/--seed   as above
        --loop N           loop index within the workload (default 0)
        --chunk BYTES      chunk to analyze (default 64K)
        --line BYTES       line granularity (default 32)

  cascade analyze --all [options]
      Static helper-safety report (cascade-analyze): per-operand lattice
      verdicts (packable | prefetchable | horizon_safe | unsafe) over the
      kernel suite and wave5. Exits 1 on any unsafe verdict or error
      diagnostic.
        --n N              kernel suite scale (default 4096)
        --seed N           kernel/wave5 seed (default 42)
        --scale F          wave5 scale (default 0.01)
        --format text|json (default text)
        --workload-file F  analyze one dumped workload instead

  cascade plan [--all] [options]
      Whole-loop transformation plans (cascade-analyze): statement-level
      dependence graph, SCC-condensed fission partition, per-sub-loop
      DOALL / DOACROSS / sequential schedules, and the per-kernel mode
      matrix (cascade | fission | DOACROSS). Every
      plan is re-validated against the dynamic replay oracle; exits 1 if
      any plan is contradicted.
        --n N              kernel suite scale (default 4096)
        --seed N           kernel/wave5 seed (default 42)
        --scale F          wave5 scale (default 0.01)
        --format text|json (default text)
        --workload-file F  plan one dumped workload instead

  cascade dump [options]
      Serialize a workload to the text format (share/edit/replay).
        --workload/--scale/--n/--seed   as above
        --out FILE         write to a file instead of stdout

  cascade schedule [options]
      Render the cascade schedule of one loop as a timeline (Figure 1).
        --workload/--scale/--n/--seed/--machine/--policy   as above
        --loop N           loop index (default 0)
        --procs N          processors (default 3)
        --chunks N         approximate chunk count (default 12)
        --width N          chart width (default 72)

  Every workload option also accepts --workload-file FILE (a dump).
"
    .to_string()
}

fn machine_from(args: &Args) -> Result<MachineConfig, ArgError> {
    let m = match args.get("machine", "ppro").as_str() {
        "ppro" | "pentium-pro" | "pentiumpro" => machines::pentium_pro(),
        "r10000" | "r10k" => machines::r10000(),
        other => {
            return Err(ArgError::usage(format!(
                "unknown machine '{other}' (ppro|r10000)"
            )))
        }
    };
    match args.get_opt("future") {
        None => Ok(m),
        Some(k) => {
            let k: f64 = k
                .parse()
                .map_err(|_| ArgError::usage(format!("--future: cannot parse '{k}'")))?;
            Ok(machines::future(&m, k))
        }
    }
}

/// Read and parse a `--workload-file` dump.
fn workload_file(path: &str) -> Result<Workload, ArgError> {
    let bad = |e: &dyn std::fmt::Display| ArgError::usage(format!("--workload-file {path}: {e}"));
    let text = std::fs::read_to_string(path).map_err(|e| bad(&e))?;
    from_text(&text).map_err(|e| bad(&e))
}

fn workload_from(args: &Args) -> Result<(Workload, Arena, String), ArgError> {
    let seed = args.get_num("seed", 42u64)?;
    if let Some(path) = args.get_opt("workload-file") {
        let workload = workload_file(&path)?;
        // Build real backing data: deterministic values for the non-index
        // arrays, index contents from the file.
        let mut arena = Arena::new(&workload.space);
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (id, def) in workload.space.iter() {
            if workload.index.contains(id) || def.elem != 8 {
                continue;
            }
            for i in 0..def.len {
                arena.set_f64(&workload.space, id, i, next() + 0.001);
            }
        }
        arena.install_indices(&workload.space, &workload.index);
        return Ok((workload, arena, format!("file:{path}")));
    }
    match args.get("workload", "parmvr").as_str() {
        "parmvr" | "wave5" => {
            let scale = args.get_num("scale", 0.25f64)?;
            if scale <= 0.0 {
                return Err(ArgError::usage("--scale must be positive"));
            }
            let p = Parmvr::build(ParmvrParams { scale, seed });
            Ok((p.workload, p.arena, format!("parmvr (scale {scale})")))
        }
        w @ ("synth-dense" | "synth-sparse") => {
            let n = args.get_num("n", 4u64 << 20)?;
            let variant = if w.ends_with("dense") {
                Variant::Dense
            } else {
                Variant::Sparse
            };
            let s = Synth::build(n, variant, seed);
            Ok((
                s.workload,
                s.arena,
                format!("synthetic {} (n={n})", variant.label()),
            ))
        }
        other => Err(ArgError::usage(format!(
            "unknown workload '{other}' (parmvr|synth-dense|synth-sparse)"
        ))),
    }
}

fn rt_policy_from(args: &Args) -> Result<RtPolicy, ArgError> {
    match args.get("policy", "restructure").as_str() {
        "none" => Ok(RtPolicy::None),
        "prefetch" | "prefetched" => Ok(RtPolicy::Prefetch),
        "restructure" | "restructured" => Ok(RtPolicy::Restructure),
        other => Err(ArgError::usage(format!(
            "unknown policy '{other}' (none|prefetch|restructure)"
        ))),
    }
}

fn sim_policy_from(args: &Args) -> Result<HelperPolicy, ArgError> {
    match args.get("policy", "restructure+hoist").as_str() {
        "none" => Ok(HelperPolicy::None),
        "prefetch" | "prefetched" => Ok(HelperPolicy::Prefetch),
        "restructure" | "restructured" => Ok(HelperPolicy::Restructure { hoist: false }),
        "restructure+hoist" | "restructured+hoist" => Ok(HelperPolicy::Restructure { hoist: true }),
        other => Err(ArgError::usage(format!(
            "unknown policy '{other}' (none|prefetch|restructure|restructure+hoist)"
        ))),
    }
}

/// `cascade machines`
pub fn machines(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown()?;
    let mut out = String::new();
    for m in [machines::pentium_pro(), machines::r10000()] {
        out.push_str(&format!(
            "{}\n  L1 {:>4} KB {}-way {:>3}B lines, {} cycles\n  L2 {:>4} KB {}-way {:>3}B lines, {} cycles\n  memory {} cycles, transfer of control {} cycles\n",
            m.name,
            m.l1.size / 1024,
            m.l1.assoc,
            m.l1.line,
            m.l1.latency,
            m.l2.size / 1024,
            m.l2.assoc,
            m.l2.line,
            m.l2.latency,
            m.mem_latency,
            m.transfer_cost,
        ));
    }
    Ok(out)
}

fn render_summary(report: &RunReport, base: &RunReport, title: &str) -> String {
    format!(
        "{title}\n  configuration: {}\n  baseline:      {:.3e} cycles\n  cascaded:      {:.3e} cycles\n  overall speedup {:.3}\n",
        report.summary(),
        base.total_cycles(),
        report.total_cycles(),
        report.overall_speedup_vs(base),
    )
}

fn render_per_loop(report: &RunReport, base: &RunReport) -> String {
    let mut out = format!(
        "{:<48} {:>12} {:>12} {:>8} {:>9}\n",
        "loop", "orig Mcy", "casc Mcy", "speedup", "coverage"
    );
    for (l, b) in report.loops.iter().zip(&base.loops) {
        out.push_str(&format!(
            "{:<48} {:>12.2} {:>12.2} {:>8.2} {:>8.0}%\n",
            l.name,
            b.cycles / 1e6,
            l.cycles / 1e6,
            b.cycles / l.cycles,
            l.helper_coverage() * 100.0,
        ));
    }
    out.push_str(&format!(
        "{:<48} {:>12.2} {:>12.2} {:>8.2}\n",
        "OVERALL",
        base.total_cycles() / 1e6,
        report.total_cycles() / 1e6,
        report.overall_speedup_vs(base),
    ));
    out
}

/// `cascade sim`
pub fn sim(args: &Args) -> Result<String, ArgError> {
    let machine = machine_from(args)?;
    let (workload, _arena, wname) = workload_from(args)?;
    let policy = sim_policy_from(args)?;
    let procs = args.get_num("procs", 4usize)?;
    let chunk = args.get_bytes("chunk", 64 * 1024)?;
    let calls = args.get_num("calls", 2usize)?;
    let unbounded = args.flag("unbounded");
    let per_loop = args.flag("per-loop");
    let no_jump_out = args.flag("no-jump-out");
    args.reject_unknown()?;

    let base = run_sequential(&machine, &workload, calls, true);
    let report = if unbounded {
        run_unbounded(
            &machine,
            &workload,
            &UnboundedConfig {
                chunk_bytes: chunk,
                policy,
                calls,
                flush_between_calls: true,
            },
        )
    } else {
        run_cascaded(
            &machine,
            &workload,
            &CascadeConfig {
                nprocs: procs,
                chunk_bytes: chunk,
                policy,
                jump_out: !no_jump_out,
                calls,
                flush_between_calls: true,
            },
        )
    };
    let title = format!(
        "simulated cascaded execution of {wname} on {}",
        machine.name
    );
    let mut out = render_summary(&report, &base, &title);
    if per_loop {
        out.push('\n');
        out.push_str(&render_per_loop(&report, &base));
    }
    Ok(out)
}

/// Compile a workload for the real-thread runtime.
fn compiled(workload: Workload, arena: Arena) -> Result<SpecProgram, ArgError> {
    SpecProgram::new(workload, arena)
        .map_err(|e| ArgError::usage(format!("workload rejected by the analyzer: {e}")))
}

/// What `rt` and `run` share: the workload, the run configuration their
/// options describe, and the timed sequential reference.
struct RtRun {
    workload: Workload,
    arena: Arena,
    wname: String,
    cfg: RunConfig,
    expected: u64,
    sequential: Duration,
}

fn rt_run_from(args: &Args) -> Result<RtRun, ArgError> {
    let (workload, arena, wname) = workload_from(args)?;
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    // An armed `verify` adds checksummed handoffs, claimant verification
    // and the arena scrubber.
    let cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: args.get_num("threads", threads)?,
            iters_per_chunk: args.get_num("chunk-iters", 4096u64)?,
            policy: rt_policy_from(args)?,
            poll_batch: args.get_num("poll", 64u64)?,
        },
        verify: verify_policy_from(&args.get("verify", "off"))?,
        ..RunConfig::default()
    };
    args.reject_unknown()?;

    let mut prog = compiled(workload.clone(), arena.clone())?;
    let t0 = std::time::Instant::now();
    for i in 0..prog.num_loops() {
        cascade_rt::run_sequential(&prog.kernel(i));
    }
    let sequential = t0.elapsed();
    Ok(RtRun {
        expected: prog.checksum(),
        workload,
        arena,
        wname,
        cfg,
        sequential,
    })
}

/// `cascade rt`
pub fn rt(args: &Args) -> Result<String, ArgError> {
    let r = rt_run_from(args)?;
    let mut prog = compiled(r.workload, r.arena)?;
    let t0 = std::time::Instant::now();
    let mut chunks = 0u64;
    let mut helped = 0u64;
    let mut iters = 0u64;
    let mut verified = 0u64;
    let mut helper_audits = 0u64;
    let mut scrubs = 0u64;
    for i in 0..prog.num_loops() {
        let k = prog.kernel(i);
        let stats = try_run_governed(&k, &r.cfg)
            .map_err(|e| ArgError::verification(format!("loop {i}: {e}")))?;
        chunks += stats.chunks;
        iters += stats.iters;
        helped += stats.threads.iter().map(|t| t.helper_iters).sum::<u64>();
        verified += stats.threads.iter().map(|t| t.verified_chunks).sum::<u64>();
        helper_audits += stats.threads.iter().map(|t| t.helper_audits).sum::<u64>();
        scrubs += stats.scrubs;
    }
    let elapsed = t0.elapsed();

    let mut out = format!(
        "real-thread cascaded execution of {}\n  threads {}, {chunks} chunks, policy {}\n  sequential {:.2} ms, cascaded {:.2} ms, helper coverage {:.0}%\n",
        r.wname,
        r.cfg.runner.nthreads,
        r.cfg.runner.policy.label(),
        r.sequential.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3,
        100.0 * helped as f64 / iters.max(1) as f64,
    );
    if r.cfg.verify.armed() {
        out.push_str(&format!(
            "  verification: {verified} chunks replay-verified ({helper_audits} in a helper phase), {scrubs} arena scrubs, no corruption\n",
        ));
    }
    if prog.checksum() != r.expected {
        return Err(ArgError::verification(
            "cascaded result DIVERGED from sequential execution",
        ));
    }
    out.push_str("  result: bitwise identical to sequential execution\n");
    Ok(out)
}

/// `cascade run`: execute a workload under an explicit execution mode.
/// `--mode cascade` is the token-serialized runtime (identical to
/// `cascade rt`); `--mode plan` consumes the analyzer's per-loop
/// [`TransformPlan`] and executes each sub-loop of the fissioned
/// partition under its planned schedule — DOALL sub-loops as chunks
/// claimed in order across the worker pool, DOACROSS sub-loops as a
/// pipelined post/wait stage over per-worker committed-iteration
/// counters, sequential residues cascaded with the token runtime — in
/// the plan's topological order. A serial sub-loop directly before a
/// DOALL one runs plain on one worker while the pool runs the DOALL one
/// behind its frontier; its line reports the overlap. The final arena state is gated on
/// bitwise equality with straight sequential execution; opaque loops
/// (no usable plan) fall back to the cascaded runtime.
pub fn run(args: &Args) -> Result<String, ArgError> {
    let mode = args.get("mode", "plan");
    match mode.as_str() {
        "cascade" => return rt(args),
        "plan" => {}
        other => {
            return Err(ArgError::usage(format!(
                "unknown mode '{other}' (cascade|plan)"
            )))
        }
    }
    let r = rt_run_from(args)?;
    let (workload, cfg) = (r.workload, r.cfg);
    let plans = plan_workload(&workload);
    let mut out = format!(
        "plan-driven execution of {}\n  threads {}, {} iters/chunk, policy {}\n",
        r.wname,
        cfg.runner.nthreads,
        cfg.runner.iters_per_chunk,
        cfg.runner.policy.label()
    );
    let t0 = std::time::Instant::now();
    let mut arena = r.arena;
    let mut post_waits = 0u64;
    let mut stall_ns = 0u128;
    for (i, (spec, plan)) in workload.loops.iter().zip(&plans).enumerate() {
        if plan.opaque || plan.partition.is_empty() {
            // No usable plan: this loop runs under the classic cascaded
            // token runtime, unfissioned.
            let lw = Workload {
                space: workload.space.clone(),
                index: workload.index.clone(),
                loops: vec![spec.clone()],
            };
            let prog = compiled(lw, arena)?;
            try_run_governed(&prog.kernel(0), &cfg)
                .map_err(|e| ArgError::verification(format!("loop '{}' failed: {e}", spec.name)))?;
            arena = prog.into_arena();
            out.push_str(&format!(
                "  loop {i} ({}): opaque — cascaded, {} iters\n",
                spec.name, spec.iters
            ));
            continue;
        }
        let fw = Workload {
            space: workload.space.clone(),
            index: workload.index.clone(),
            loops: cascade_rt::fission_specs(spec, plan),
        };
        let prog = SpecProgram::new(fw, arena).map_err(|e| {
            ArgError::usage(format!("fissioned workload rejected by the analyzer: {e}"))
        })?;
        let stats = {
            let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
            cascade_rt::try_run_planned(&kernels, plan, &cfg).map_err(|e| {
                ArgError::verification(format!("planned run of loop '{}' failed: {e}", spec.name))
            })?
        };
        arena = prog.into_arena();
        out.push_str(&format!(
            "  loop {i} ({}): {} sub-loops{}\n",
            spec.name,
            stats.sub_loops.len(),
            if stats.degraded { ", degraded" } else { "" }
        ));
        for s in &stats.sub_loops {
            let pipelined = s.pipelined_after.map_or(String::new(), |p| {
                let overlap = s.overlap.as_secs_f64() * 1e3;
                format!(", pipelined after sub-loop {p} ({overlap:.2} ms overlap)")
            });
            out.push_str(&format!(
                "    sub-loop {}: {:<12} {} iters, {} chunks, {} post/waits{pipelined}\n",
                s.index,
                schedule_str(s.schedule),
                s.iters,
                s.chunks,
                s.post_waits
            ));
        }
        post_waits += stats.post_waits();
        stall_ns += stats.post_wait_stall_ns();
    }
    let elapsed = t0.elapsed();

    out.push_str(&format!(
        "  sequential {:.2} ms, planned {:.2} ms, {post_waits} post/waits ({:.2} ms gate stall)\n",
        r.sequential.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3,
        stall_ns as f64 / 1e6,
    ));
    if compiled(workload, arena)?.checksum() != r.expected {
        return Err(ArgError::verification(
            "planned result DIVERGED from sequential execution",
        ));
    }
    out.push_str("  result: bitwise identical to sequential execution\n");
    Ok(out)
}

/// The workload behind `cascade metrics` when none is named: the
/// quickstart-scale synthetic loop, small enough that the report answers
/// in well under a second on either source.
fn metrics_workload(args: &Args) -> Result<(Workload, Arena, String), ArgError> {
    if args.get_opt("workload").is_some() || args.get_opt("workload-file").is_some() {
        return workload_from(args);
    }
    let n = args.get_num("n", 1u64 << 16)?;
    let seed = args.get_num("seed", 42u64)?;
    let s = Synth::build(n, Variant::Dense, seed);
    Ok((s.workload, s.arena, format!("synthetic dense (n={n})")))
}

/// `cascade metrics`
pub fn metrics(args: &Args) -> Result<String, ArgError> {
    let source = args.get("source", "rt");
    let format = args.get("format", "text");
    let events = args.flag("events");
    let out_path = args.get_opt("out");
    let loop_idx = args.get_num("loop", 0usize)?;
    let (mut workload, arena, wname) = metrics_workload(args)?;
    if loop_idx >= workload.loops.len() {
        return Err(ArgError::usage(format!(
            "--loop {loop_idx}: workload has {} loops",
            workload.loops.len()
        )));
    }

    let (m, title) = match source.as_str() {
        "rt" | "real" => {
            let threads = args.get_num(
                "threads",
                std::thread::available_parallelism().map_or(2, |n| n.get()),
            )?;
            let chunk_iters = args.get_num("chunk-iters", 4096u64)?;
            let poll = args.get_num("poll", 64u64)?;
            let policy = rt_policy_from(args)?;
            args.reject_unknown()?;
            let prog = compiled(workload, arena)?;
            let k = prog.kernel(loop_idx);
            let cfg = RunnerConfig {
                nthreads: threads,
                iters_per_chunk: chunk_iters,
                policy,
                poll_batch: poll,
            };
            let obs = if events {
                Observe::with_events()
            } else {
                Observe::default()
            };
            let stats = try_run_governed(
                &k,
                &RunConfig {
                    runner: cfg,
                    observe: obs,
                    ..Default::default()
                },
            )
            .map_err(|e| ArgError::verification(format!("cascaded run failed: {e}")))?;
            let title = format!(
                "real-thread cascade metrics of {wname}, loop {loop_idx} \
                 ({threads} threads, policy {})",
                policy.label()
            );
            (stats.metrics(), title)
        }
        "sim" | "simulated" => {
            let machine = machine_from(args)?;
            let policy = sim_policy_from(args)?;
            let procs = args.get_num("procs", 4usize)?;
            let chunk = args.get_bytes("chunk", 64 * 1024)?;
            args.reject_unknown()?;
            let spec = workload.loops.swap_remove(loop_idx);
            workload.loops = vec![spec];
            let report = run_cascaded(
                &machine,
                &workload,
                &CascadeConfig {
                    nprocs: procs,
                    chunk_bytes: chunk,
                    policy,
                    jump_out: true,
                    calls: 1,
                    flush_between_calls: false,
                },
            );
            let title = format!(
                "simulated cascade metrics of {wname}, loop {loop_idx} on {} \
                 ({procs} procs, policy {})",
                machine.name,
                policy.label()
            );
            (report.loops[0].timeline.metrics_with_events(events), title)
        }
        other => {
            return Err(ArgError::usage(format!(
                "unknown source '{other}' (rt|sim)"
            )))
        }
    };

    let doc = match format.as_str() {
        "json" => m.to_json(),
        "text" => format!("{title}\n{}", m.render_text()),
        other => {
            return Err(ArgError::usage(format!(
                "unknown format '{other}' (text|json)"
            )))
        }
    };
    match out_path {
        None => Ok(doc),
        Some(p) => {
            std::fs::write(&p, &doc).map_err(|e| ArgError::usage(format!("--out {p}: {e}")))?;
            Ok(format!("wrote {} bytes to {p}\n", doc.len()))
        }
    }
}

/// Parse `--verify off|checksum|every|sampled:K` into a [`VerifyPolicy`].
pub(crate) fn verify_policy_from(name: &str) -> Result<VerifyPolicy, ArgError> {
    match name {
        "off" => Ok(VerifyPolicy::Off),
        "checksum" => Ok(VerifyPolicy::Checksum),
        "every" => Ok(VerifyPolicy::EveryChunk),
        other => {
            if let Some(k) = other.strip_prefix("sampled:") {
                let k: u64 = k.parse().map_err(|_| {
                    ArgError::usage(format!("--verify: cannot parse '{k}' as a sample period"))
                })?;
                if k == 0 {
                    return Err(ArgError::usage(
                        "--verify sampled:0 never samples; use at least 1",
                    ));
                }
                return Ok(VerifyPolicy::Sampled(k));
            }
            Err(ArgError::usage(format!(
                "--verify: unknown policy '{other}' (off|checksum|every|sampled:K)"
            )))
        }
    }
}

/// `cascade resume`
pub fn resume(args: &Args) -> Result<String, ArgError> {
    let dir = args
        .get_opt("dir")
        .ok_or_else(|| ArgError::usage("resume: --dir is required"))?;
    let verify = args.flag("verify");
    args.reject_unknown()?;

    let ck =
        ckpt::load(Path::new(&dir)).map_err(|e| ArgError::usage(format!("--dir {dir}: {e}")))?;
    let meta = ck.meta();
    let committed = ck.committed_iters();
    let chunks = ck.committed_chunks();
    let deltas = ck.num_deltas();
    let verify_src = verify.then(|| (ck.workload_text().to_string(), ck.base_bytes().to_vec()));
    let (mut prog, at) = ck
        .into_program()
        .map_err(|e| ArgError::usage(format!("--dir {dir}: {e}")))?;
    let total = {
        let k = prog.kernel(meta.loop_index);
        // SAFETY: single-threaded — the documented sequential resume.
        unsafe { k.execute(at..k.iters()) };
        k.iters()
    };
    let sum = prog.checksum();
    let mut out = format!(
        "resumed {dir}: loop {}, {committed}/{total} iterations checkpointed \
         ({chunks} chunks, {deltas} deltas)\n\
         finished sequentially from iteration {at}; checksum {sum:016x}\n",
        meta.loop_index
    );
    if let Some((text, base)) = verify_src {
        // Replay the whole loop from the pristine base snapshot: the
        // checkpointed prefix plus the sequential tail must be
        // indistinguishable from never having crashed.
        let w =
            from_text(&text).map_err(|e| ArgError::usage(format!("--dir {dir}: workload: {e}")))?;
        let fresh_arena = Arena::try_from_bytes(&w.space, base)
            .map_err(|e| ArgError::usage(format!("--dir {dir}: {e}")))?;
        let mut fresh = SpecProgram::new(w, fresh_arena).map_err(|e| {
            ArgError::usage(format!(
                "--dir {dir}: workload rejected by the analyzer: {e}"
            ))
        })?;
        {
            let k = fresh.kernel(meta.loop_index);
            cascade_rt::run_sequential(&k);
        }
        if fresh.arena_mut().bytes() == prog.arena_mut().bytes() {
            out.push_str("verify: bitwise identical to an uninterrupted sequential run\n");
        } else {
            return Err(ArgError::verification(format!(
                "{out}verify: resumed state DIVERGED from an uninterrupted sequential run"
            )));
        }
    }
    Ok(out)
}

/// `cascade dump`
pub fn dump(args: &Args) -> Result<String, ArgError> {
    let (workload, _arena, _name) = workload_from(args)?;
    let out_path = args.get_opt("out");
    args.reject_unknown()?;
    let text = to_text(&workload);
    match out_path {
        None => Ok(text),
        Some(p) => {
            std::fs::write(&p, &text).map_err(|e| ArgError::usage(format!("--out {p}: {e}")))?;
            Ok(format!("wrote {} bytes to {p}\n", text.len()))
        }
    }
}

/// `cascade schedule`
pub fn schedule(args: &Args) -> Result<String, ArgError> {
    let machine = machine_from(args)?;
    let (mut workload, _arena, wname) = workload_from(args)?;
    let policy = sim_policy_from(args)?;
    let procs = args.get_num("procs", 3usize)?;
    let loop_idx = args.get_num("loop", 0usize)?;
    let width = args.get_num("width", 72usize)?;
    let chunks_wanted = args.get_num("chunks", 12u64)?;
    args.reject_unknown()?;
    if loop_idx >= workload.loops.len() {
        return Err(ArgError::usage(format!(
            "--loop {loop_idx}: workload has {} loops",
            workload.loops.len()
        )));
    }
    let spec = workload.loops.swap_remove(loop_idx);
    workload.loops = vec![spec];
    let chunk_bytes = (workload.loops[0].footprint() / chunks_wanted.max(1)).max(4096);
    let r = run_cascaded(
        &machine,
        &workload,
        &CascadeConfig {
            nprocs: procs,
            chunk_bytes,
            policy,
            jump_out: true,
            calls: 1,
            flush_between_calls: true,
        },
    );
    let l = &r.loops[0];
    Ok(format!(
        "cascade schedule of {wname} / {} on {} ({} procs, {} chunks)\n\n{}",
        l.name,
        machine.name,
        procs,
        l.chunks,
        l.timeline.render(width)
    ))
}

/// `cascade analyze`
pub fn analyze(args: &Args) -> Result<String, ArgError> {
    if args.flag("all") {
        return analyze_all(args);
    }
    let (workload, _arena, wname) = workload_from(args)?;
    let loop_idx = args.get_num("loop", 0usize)?;
    let chunk = args.get_bytes("chunk", 64 * 1024)?;
    let line = args.get_bytes("line", 32)?;
    args.reject_unknown()?;
    let spec = workload.loops.get(loop_idx).ok_or_else(|| {
        ArgError::usage(format!(
            "--loop {loop_idx}: workload has {} loops",
            workload.loops.len()
        ))
    })?;
    let res = Resolver::new(&workload.space, &workload.index);
    let plan = ChunkPlan::new(spec, chunk, line);
    let range = plan.range(0);

    let mut original = Vec::new();
    for i in range.clone() {
        for r in &spec.refs {
            if let Some(ix) = res.index_access(r, i) {
                original.push(TraceRef {
                    addr: ix.addr,
                    bytes: ix.bytes,
                });
            }
            let d = res.data_access(r, i);
            original.push(TraceRef {
                addr: d.addr,
                bytes: d.bytes,
            });
            if matches!(r.mode, Mode::Modify) {
                original.push(TraceRef {
                    addr: d.addr,
                    bytes: d.bytes,
                });
            }
        }
    }
    let pbpi = spec.packed_bytes_per_iter(true);
    let base = workload.space.extent();
    let mut restructured = Vec::new();
    for i in range.clone() {
        if pbpi > 0 {
            restructured.push(TraceRef {
                addr: base + (i - range.start) * pbpi,
                bytes: pbpi as u32,
            });
        }
        for r in &spec.refs {
            if r.mode.writes() {
                let d = res.data_access(r, i);
                restructured.push(TraceRef {
                    addr: d.addr,
                    bytes: d.bytes,
                });
            }
        }
    }

    let mut out = format!(
        "reference-stream analysis of {wname}, loop {loop_idx} ({}), first chunk of {} iterations
",
        spec.name,
        range.end - range.start
    );
    for (label, refs) in [("original", &original), ("restructured", &restructured)] {
        let p = reuse_distances(refs, line);
        out.push_str(&format!(
            "  {label:<13} {:>7} accesses, {:>6} lines, mean reuse distance {}, compulsory {}
",
            refs.len(),
            p.working_set_lines,
            p.mean_distance().map_or("-".into(), |d| format!("{d:.1}")),
            p.compulsory(),
        ));
    }
    let strides = stride_histogram(&original);
    out.push_str("  dominant strides (original): ");
    let top: Vec<String> = strides
        .iter()
        .take(3)
        .map(|(s, c)| format!("{s:+} x{c}"))
        .collect();
    out.push_str(&top.join(", "));
    out.push('\n');
    Ok(out)
}

/// `cascade analyze --all`: the static helper-safety report — per-operand
/// lattice verdicts for the kernel suite plus wave5 (or one dumped
/// workload), in text or JSON. Exits 1 (verification failure) when any
/// target carries an `Unsafe` verdict or error diagnostic.
/// `(n, seed, scale, format, targets)` of `analyze --all` and `plan`: the
/// targets are one dumped workload, or the kernel suite plus wave5; the
/// JSON reports echo the parameters.
type Suite = (u64, u64, f64, String, Vec<(String, Workload)>);

fn suite_from(args: &Args) -> Result<Suite, ArgError> {
    let n = args.get_num("n", 4096u64)?;
    let seed = args.get_num("seed", 42u64)?;
    let scale = args.get_num("scale", 0.01f64)?;
    let format = args.get("format", "text");
    let file = args.get_opt("workload-file");
    // `plan --all` is accepted for symmetry with `analyze --all`; without
    // a --workload-file the full suite is the only target set anyway.
    let _ = args.flag("all");
    args.reject_unknown()?;

    let targets = match file {
        Some(path) => vec![(path.clone(), workload_file(&path)?)],
        None => {
            let p = Parmvr::build(ParmvrParams { scale, seed });
            let suite = cascade_kernels::suite(n, seed).into_iter();
            suite
                .map(|k| (k.name.to_string(), k.workload))
                .chain([("wave5-parmvr".to_string(), p.workload)])
                .collect()
        }
    };
    Ok((n, seed, scale, format, targets))
}

fn analyze_all(args: &Args) -> Result<String, ArgError> {
    let (n, seed, scale, format, targets) = suite_from(args)?;
    let targets: Vec<(String, WorkloadReport)> = targets
        .into_iter()
        .map(|(name, w)| (name, analyze_workload(&w)))
        .collect();

    let out = match format.as_str() {
        "text" => render_analysis_text(&targets),
        "json" => render_analysis_json(&targets, n, seed, scale),
        other => {
            return Err(ArgError::usage(format!(
                "unknown format '{other}' (text|json)"
            )))
        }
    };
    let rejected: Vec<&str> = targets
        .iter()
        .filter(|(_, r)| !r.rt_ok())
        .map(|(name, _)| name.as_str())
        .collect();
    if rejected.is_empty() {
        Ok(out)
    } else {
        Err(ArgError::verification(format!(
            "{out}\nunsafe verdicts or error diagnostics in: {}",
            rejected.join(", ")
        )))
    }
}

fn mode_str(m: Mode) -> &'static str {
    match m {
        Mode::Read => "read",
        Mode::Write => "write",
        Mode::Modify => "modify",
    }
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Info => "info",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

fn render_analysis_text(targets: &[(String, WorkloadReport)]) -> String {
    let mut out = String::from("helper-safety analysis (cascade-analyze)\n");
    let mut admitted = 0usize;
    for (name, rep) in targets {
        let status = if rep.rt_ok() {
            admitted += 1;
            "admitted"
        } else {
            "REJECTED"
        };
        out.push_str(&format!("\n== {name}: {status}\n"));
        for d in &rep.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        for l in &rep.loops {
            let lag = match l.helper_lag() {
                Some(lag) => format!(", helper lag {lag}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  loop {} ({} iters{lag})\n",
                l.loop_name, l.iters
            ));
            for r in &l.refs {
                out.push_str(&format!(
                    "    {:<18} {:<7} {}\n",
                    r.name,
                    mode_str(r.mode),
                    r.verdict
                ));
            }
            for d in &l.diagnostics {
                out.push_str(&format!("    {d}\n"));
            }
        }
    }
    out.push_str(&format!(
        "\nsummary: {admitted}/{} targets admitted\n",
        targets.len()
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `"diagnostics": [` member of a loop object, up to (not including)
/// its closing bracket, in both JSON reports.
fn diagnostics_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("          \"diagnostics\": [\n");
    for (j, d) in diagnostics.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"code\": \"{}\", \"severity\": \"{}\", \"ref\": {}, \"message\": \"{}\"}}{}\n",
            d.code.as_str(),
            severity_str(d.severity),
            d.ref_name
                .as_ref()
                .map_or("null".to_string(), |r| format!("\"{}\"", json_escape(r))),
            json_escape(&d.message),
            if j + 1 < diagnostics.len() { "," } else { "" }
        ));
    }
    out
}

fn render_analysis_json(
    targets: &[(String, WorkloadReport)],
    n: u64,
    seed: u64,
    scale: f64,
) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"cascade-analyze-v1\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"n\": {n}, \"seed\": {seed}, \"scale\": {scale}}},\n"
    ));
    out.push_str("  \"targets\": [\n");
    for (t, (name, rep)) in targets.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(name)));
        out.push_str(&format!("      \"rt_ok\": {},\n", rep.rt_ok()));
        out.push_str("      \"loops\": [\n");
        for (i, l) in rep.loops.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!(
                "          \"name\": \"{}\",\n          \"iters\": {},\n          \"helper_lag\": {},\n          \"rt_ok\": {},\n",
                json_escape(&l.loop_name),
                l.iters,
                opt(l.helper_lag()),
                l.rt_ok()
            ));
            out.push_str("          \"refs\": [\n");
            for (j, r) in l.refs.iter().enumerate() {
                let fp = r.footprint.as_ref().map_or("null".to_string(), |f| {
                    format!(
                        "{{\"lo\": {}, \"hi\": {}, \"exact\": {}}}",
                        f.lo, f.hi, f.exact
                    )
                });
                out.push_str(&format!(
                    "            {{\"name\": \"{}\", \"mode\": \"{}\", \"class\": \"{}\", \"lag\": {}, \"footprint\": {fp}}}{}\n",
                    json_escape(r.name),
                    mode_str(r.mode),
                    r.verdict.class(),
                    opt(r.verdict.lag()),
                    if j + 1 < l.refs.len() { "," } else { "" }
                ));
            }
            out.push_str("          ],\n");
            out.push_str(&diagnostics_json(&l.diagnostics));
            out.push_str("          ]\n");
            out.push_str(&format!(
                "        }}{}\n",
                if i + 1 < rep.loops.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if t + 1 < targets.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `cascade plan`: whole-loop transformation plans (cascade-analyze) —
/// the statement-level dependence graph condensed into a topologically
/// ordered fission partition with per-sub-loop DOALL/DOACROSS/sequential
/// schedules, plus the per-kernel mode matrix. Every emitted plan is
/// re-validated against the dynamic replay oracle; exits 1 (verification
/// failure) if any plan is contradicted.
pub fn plan(args: &Args) -> Result<String, ArgError> {
    let (n, seed, scale, format, targets) = suite_from(args)?;

    // Plan every loop of every target, then replay-validate each plan.
    let mut planned: Vec<PlannedTarget> = Vec::new();
    let mut contradicted: Vec<String> = Vec::new();
    for (name, w) in &targets {
        let plans = plan_workload(w);
        let mut violations = Vec::new();
        for (spec, p) in w.loops.iter().zip(&plans) {
            let v = check_plan(w, spec, p, 0x5eed);
            if !v.is_empty() {
                contradicted.push(format!("{name} / {}", spec.name));
            }
            violations.push(v);
        }
        planned.push((name.clone(), plans, violations));
    }

    let out = match format.as_str() {
        "text" => render_plan_text(&planned),
        "json" => render_plan_json(&planned, n, seed, scale),
        other => {
            return Err(ArgError::usage(format!(
                "unknown format '{other}' (text|json)"
            )))
        }
    };
    if contradicted.is_empty() {
        Ok(out)
    } else {
        Err(ArgError::verification(format!(
            "{out}\nplans contradicted by the replay oracle: {}",
            contradicted.join(", ")
        )))
    }
}

/// One planned target: name, per-loop plans, per-loop oracle violations.
type PlannedTarget = (String, Vec<TransformPlan>, Vec<Vec<Violation>>);

fn schedule_str(s: Schedule) -> String {
    match s {
        Schedule::DoAcross { lag } => format!("doacross({lag})"),
        s => s.as_str().to_string(),
    }
}

fn render_plan_text(planned: &[PlannedTarget]) -> String {
    let mut out = String::from("transformation plans (cascade-analyze)\n");
    let mut validated = 0usize;
    let mut total = 0usize;
    for (name, plans, violations) in planned {
        out.push_str(&format!("\n== {name}\n"));
        for (p, v) in plans.iter().zip(violations) {
            total += 1;
            let m = &p.modes;
            out.push_str(&format!(
                "  loop {} ({} iters{})\n",
                p.loop_name,
                p.iters,
                if p.opaque { ", opaque" } else { "" }
            ));
            for s in &p.statements {
                out.push_str(&format!("    S{}: {}\n", s.id, s.name));
            }
            if !p.edges.is_empty() {
                out.push_str("    deps:");
                for e in &p.edges {
                    out.push_str(&format!(
                        " S{}->S{} {}({})",
                        e.src,
                        e.dst,
                        e.kind.as_str(),
                        e.lag
                    ));
                }
                out.push('\n');
            }
            for (g, sub) in p.partition.iter().enumerate() {
                let stmts: Vec<String> = sub.statements.iter().map(|s| format!("S{s}")).collect();
                out.push_str(&format!(
                    "    sub-loop {g}: [{}] {}\n",
                    stmts.join(" "),
                    schedule_str(sub.schedule)
                ));
            }
            let opt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
            out.push_str(&format!(
                "    modes: cascade={} helper_lag={} journalable={} fission={} ({} sub-loops) doacross={} parallel={}\n",
                m.cascade,
                opt(m.helper_lag),
                m.journalable,
                m.fissionable,
                m.sub_loops,
                opt(m.doacross_lag),
                m.parallel
            ));
            for d in &p.diagnostics {
                out.push_str(&format!("    {d}\n"));
            }
            if v.is_empty() {
                validated += 1;
                out.push_str("    oracle: validated\n");
            } else {
                out.push_str(&format!(
                    "    oracle: CONTRADICTED ({} violations)\n",
                    v.len()
                ));
            }
        }
    }
    out.push_str(&format!(
        "\nsummary: {validated}/{total} plans replay-validated\n"
    ));
    out
}

fn render_plan_json(planned: &[PlannedTarget], n: u64, seed: u64, scale: f64) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"cascade-plan-v1\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"n\": {n}, \"seed\": {seed}, \"scale\": {scale}}},\n"
    ));
    out.push_str("  \"targets\": [\n");
    for (t, (name, plans, violations)) in planned.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(name)));
        out.push_str("      \"loops\": [\n");
        for (i, (p, v)) in plans.iter().zip(violations).enumerate() {
            let m = &p.modes;
            out.push_str("        {\n");
            out.push_str(&format!(
                "          \"name\": \"{}\",\n          \"iters\": {},\n          \"opaque\": {},\n",
                json_escape(&p.loop_name),
                p.iters,
                p.opaque
            ));
            out.push_str("          \"statements\": [\n");
            for (j, s) in p.statements.iter().enumerate() {
                out.push_str(&format!(
                    "            {{\"id\": {}, \"name\": \"{}\", \"anchor\": {}}}{}\n",
                    s.id,
                    json_escape(s.name),
                    s.anchor.map_or("null".to_string(), |a| a.to_string()),
                    if j + 1 < p.statements.len() { "," } else { "" }
                ));
            }
            out.push_str("          ],\n");
            out.push_str("          \"edges\": [\n");
            for (j, e) in p.edges.iter().enumerate() {
                out.push_str(&format!(
                    "            {{\"src\": {}, \"dst\": {}, \"kind\": \"{}\", \"lag\": {}, \"src_ref\": \"{}\", \"dst_ref\": \"{}\"}}{}\n",
                    e.src,
                    e.dst,
                    e.kind.as_str(),
                    e.lag,
                    json_escape(e.src_ref),
                    json_escape(e.dst_ref),
                    if j + 1 < p.edges.len() { "," } else { "" }
                ));
            }
            out.push_str("          ],\n");
            out.push_str("          \"partition\": [\n");
            for (j, sub) in p.partition.iter().enumerate() {
                let stmts: Vec<String> = sub.statements.iter().map(|s| s.to_string()).collect();
                out.push_str(&format!(
                    "            {{\"statements\": [{}], \"schedule\": \"{}\", \"lag\": {}}}{}\n",
                    stmts.join(", "),
                    schedule_str(sub.schedule),
                    opt(sub.carried_lag),
                    if j + 1 < p.partition.len() { "," } else { "" }
                ));
            }
            out.push_str("          ],\n");
            out.push_str(&format!(
                "          \"modes\": {{\"cascade\": {}, \"helper_lag\": {}, \"journalable\": {}, \"fissionable\": {}, \"sub_loops\": {}, \"doacross_lag\": {}, \"parallel\": {}}},\n",
                m.cascade,
                opt(m.helper_lag),
                m.journalable,
                m.fissionable,
                m.sub_loops,
                opt(m.doacross_lag),
                m.parallel
            ));
            out.push_str(&diagnostics_json(&p.diagnostics));
            out.push_str("          ],\n");
            out.push_str(&format!("          \"oracle_violations\": {}\n", v.len()));
            out.push_str(&format!(
                "        }}{}\n",
                if i + 1 < plans.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if t + 1 < planned.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `cascade sweep`
pub fn sweep(args: &Args) -> Result<String, ArgError> {
    let param = args.get("param", "procs");
    let machine = machine_from(args)?;
    let (workload, _arena, wname) = workload_from(args)?;
    let policy = sim_policy_from(args)?;
    let procs = args.get_num("procs", 4usize)?;
    let chunk = args.get_bytes("chunk", 64 * 1024)?;
    let calls = args.get_num("calls", 2usize)?;
    let values = args.get_list("values", &["2", "4", "8"]);
    args.reject_unknown()?;

    let base = run_sequential(&machine, &workload, calls, true);
    let mut out = format!(
        "sweep of {param} — {wname} on {}, policy {}\n",
        machine.name,
        policy.label()
    );
    for v in values {
        // The fixed parameters, with the swept one overwritten below.
        let mut cfg = CascadeConfig {
            nprocs: procs,
            chunk_bytes: chunk,
            policy,
            jump_out: true,
            calls,
            flush_between_calls: true,
        };
        match param.as_str() {
            "procs" => {
                cfg.nprocs = v.parse().map_err(|_| {
                    ArgError::usage(format!("--values: '{v}' is not a processor count"))
                })?
            }
            "chunk" => {
                cfg.chunk_bytes = crate::args::parse_bytes(&v)
                    .ok_or_else(|| ArgError::usage(format!("--values: '{v}' is not a byte size")))?
            }
            other => {
                return Err(ArgError::usage(format!(
                    "unknown sweep parameter '{other}' (procs|chunk)"
                )))
            }
        }
        let label = format!("{param}={v}");
        let r = run_cascaded(&machine, &workload, &cfg);
        out.push_str(&format!(
            "  {label:<14} speedup {:.3}\n",
            r.overall_speedup_vs(&base)
        ));
    }
    Ok(out)
}
