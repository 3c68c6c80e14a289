//! Per-layer measurements, each taken from outside by timing calls into
//! one layer's public functions.
//!
//! The interpreter drills run both twins through one more rep each, on a
//! single thread, chunk by chunk, the way a worker would: helper call over
//! the chunk, then the execution call. Because the cascaded twin goes
//! through `execute_packed` / `journal_capture` / `replay_footprint` and
//! the sequential twin through plain `execute`, bitwise-equal arenas
//! afterwards are the drill's correctness check. Timing a 64-iteration
//! chunk costs two clock reads per call (~50 ns on ~500 ns), which
//! inflates `dense_handoff`'s drill numbers by about a tenth; every other
//! workload's chunks are 16 to 64 times longer.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cascade_core::{run_cascaded as sim_cascaded, run_sequential as sim_sequential};
use cascade_core::{CascadeConfig, HelperPolicy, RunReport};
use cascade_mem::machines::pentium_pro;
use cascade_rt::{
    ckpt, try_run_governed, CkptMeta, CkptWriter, PlannedStats, RealKernel, RtPolicy, RunConfig,
    RunStats, RunnerConfig, SpecKernel, SpecProgram, Token,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::{to_text, Workload};
use cascade_wave5::{Parmvr, ParmvrParams};

use crate::metrics::Metrics;
use crate::span::Recorder;
use crate::stats::{median_of, percentile, sorted};
use crate::workloads::{
    expected_chunks, expected_packed_bytes_per_iter, CascRep, Case, Kind, NTHREADS,
};

/// Chunks per loop whose drill calls are kept as spans; later chunks are
/// timed but not recorded, so `dense_handoff`'s 81,920 chunks do not
/// become a quarter-gigabyte trace file.
const DRILL_SPAN_CHUNKS: u64 = 128;

/// The chunk ranges of a loop.
fn chunks(iters: u64, ipc: u64) -> impl Iterator<Item = (u64, Range<u64>)> {
    (0..expected_chunks(iters, ipc)).map(move |c| (c, c * ipc..((c + 1) * ipc).min(iters)))
}

/// The iterations of `range` a helper may touch before the chunk's own
/// execution phase starts: everything, or `lag` iterations past the
/// committed frontier for a horizon-gated kernel. The runner applies the
/// same rule.
fn helper_prefix(k: &SpecKernel<'_>, range: &Range<u64>) -> Range<u64> {
    match k.helper_horizon() {
        Some(lag) => range.start..range.end.min(range.start + lag),
        None => range.clone(),
    }
}

/// Accumulated time and work of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ns: u128,
    units: u64,
    bytes: u64,
}

impl Tally {
    fn add(&mut self, d: Duration, units: u64, bytes: u64) {
        self.ns += d.as_nanos();
        self.units += units;
        self.bytes += bytes;
    }

    fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns as f64 / self.units as f64
        }
    }

    fn bytes_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.bytes as f64 / self.units as f64
        }
    }
}

/// Totals of the three interpreter drills.
#[derive(Debug, Default)]
struct Drill {
    execute: Tally,
    execute_packed: Tally,
    pack: Tally,
    prefetch: Tally,
    journal: Tally,
    replay: Tally,
    errors: Vec<String>,
}

/// Time `f` and keep it as a span when `keep`.
fn timed<R>(
    rec: &mut Recorder,
    keep: bool,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    let d = start.elapsed();
    if keep {
        rec.record(name, start, d);
    }
    (r, d)
}

/// One rep of the sequential twin through plain `execute`, chunk by
/// chunk: the drill's reference side and the `execute` timing.
fn drill_reference(case: &Case, rec: &mut Recorder, out: &mut Drill) {
    let ipc = case.kind.iters_per_chunk();
    for u in &case.units {
        for l in 0..u.seq.num_loops() {
            let k = u.seq.kernel(l);
            for (c, range) in chunks(k.iters(), ipc) {
                let n = range.end - range.start;
                // SAFETY: the drill is single-threaded, so the call is
                // trivially exclusive.
                let ((), d) = timed(rec, c < DRILL_SPAN_CHUNKS, "interp.execute", || unsafe {
                    k.execute(range)
                });
                out.execute.add(d, n, 0);
            }
        }
    }
}

/// `pack_iter` over the chunk's helper prefix, `execute_packed` over the
/// packed prefix, `execute` over the rest.
fn drill_pack(case: &Case, rec: &mut Recorder, out: &mut Drill) {
    let ipc = case.kind.iters_per_chunk();
    let mut buf = Vec::new();
    for u in &case.units {
        for l in 0..u.casc.num_loops() {
            let k = u.casc.kernel(l);
            let per_iter = expected_packed_bytes_per_iter(k.spec());
            for (c, range) in chunks(k.iters(), ipc) {
                let keep = c < DRILL_SPAN_CHUNKS;
                let prefix = helper_prefix(&k, &range);
                buf.clear();
                let (packed_to, d) = timed(rec, keep, "interp.pack_iter", || {
                    prefix
                        .clone()
                        .find(|&i| !k.pack_iter(i, &mut buf))
                        .unwrap_or(prefix.end)
                });
                let packed = packed_to - range.start;
                out.pack.add(d, packed, buf.len() as u64);
                if buf.len() as u64 != packed * per_iter {
                    out.errors.push(format!(
                        "{} loop {l} chunk {c}: packed {} B for {packed} iterations, closed form {per_iter} B/iter",
                        u.name,
                        buf.len()
                    ));
                }
                // SAFETY: single-threaded drill; `buf` holds exactly the
                // bytes `pack_iter` appended for `range.start..packed_to`.
                let ((), d) = timed(rec, keep, "interp.execute_packed", || unsafe {
                    k.execute_packed(range.start..packed_to, &buf)
                });
                out.execute_packed.add(d, packed, 0);
                if packed_to < range.end {
                    // SAFETY: single-threaded drill.
                    timed(rec, keep, "interp.execute", || unsafe {
                        k.execute(packed_to..range.end)
                    });
                }
            }
        }
    }
}

/// `prefetch_iter` over the chunk's helper prefix, then `execute`.
fn drill_prefetch(case: &Case, rec: &mut Recorder, out: &mut Drill) {
    let ipc = case.kind.iters_per_chunk();
    for u in &case.units {
        for l in 0..u.casc.num_loops() {
            let k = u.casc.kernel(l);
            for (c, range) in chunks(k.iters(), ipc) {
                let keep = c < DRILL_SPAN_CHUNKS;
                let prefix = helper_prefix(&k, &range);
                let n = prefix.end - prefix.start;
                let ((), d) = timed(rec, keep, "interp.prefetch_iter", || {
                    prefix.for_each(|i| k.prefetch_iter(i))
                });
                out.prefetch.add(d, n, n * k.prefetch_bytes_per_iter());
                // SAFETY: single-threaded drill.
                timed(rec, keep, "interp.execute", || unsafe { k.execute(range) });
            }
        }
    }
}

/// `journal_capture`, `execute`, `replay_footprint`; the replay must
/// reproduce the chunk's post-state write-set bit for bit.
fn drill_journal(case: &Case, rec: &mut Recorder, out: &mut Drill) {
    let ipc = case.kind.iters_per_chunk();
    let (mut pre, mut post) = (Vec::new(), Vec::new());
    for u in &case.units {
        for l in 0..u.casc.num_loops() {
            let k = u.casc.kernel(l);
            for (c, range) in chunks(k.iters(), ipc) {
                let keep = c < DRILL_SPAN_CHUNKS;
                // SAFETY (all four calls): single-threaded drill, so every
                // call is exclusive and `range` is committed once executed;
                // `pre` is the untouched capture taken before execution.
                let (journaled, d) = timed(rec, keep, "interp.journal_capture", || unsafe {
                    k.journal_capture(range.clone(), &mut pre)
                });
                if journaled {
                    out.journal.add(d, 1, pre.len() as u64);
                }
                timed(rec, keep, "interp.execute", || unsafe {
                    k.execute(range.clone())
                });
                if !journaled {
                    continue;
                }
                let (replayed, d) = timed(rec, keep, "interp.replay_footprint", || unsafe {
                    k.replay_footprint(range.clone(), &pre)
                });
                let Some(replayed) = replayed else { continue };
                out.replay.add(d, 1, 0);
                let captured = unsafe { k.journal_capture(range, &mut post) };
                if !captured || replayed != post {
                    out.errors.push(format!(
                        "{} loop {l} chunk {c}: replay differs from the executed write-set",
                        u.name
                    ));
                }
            }
        }
    }
}

/// Run the three drills (one rep on each twin per drill), check the twins
/// after each, and record the `interp.*` metrics. Returns what went wrong.
pub fn interp_drills(case: &mut Case, rec: &mut Recorder, m: &mut Metrics) -> Vec<String> {
    type DrillFn = fn(&Case, &mut Recorder, &mut Drill);
    let drills: [(&'static str, DrillFn); 3] = [
        ("drill.pack", drill_pack),
        ("drill.prefetch", drill_prefetch),
        ("drill.journal", drill_journal),
    ];
    let mut out = Drill::default();
    for (name, drill) in drills {
        let s = rec.enter(name);
        drill_reference(case, rec, &mut out);
        drill(case, rec, &mut out);
        if !case.twins_agree() {
            out.errors.push(format!(
                "{name}: twins are not bitwise equal after the drill"
            ));
        }
        rec.exit(s);
    }

    let s = rec.enter("drill.scrub");
    let t = Instant::now();
    for u in &case.units {
        for l in 0..u.casc.num_loops() {
            // SAFETY: no run is in flight; the drill thread is the only one.
            std::hint::black_box(unsafe { u.casc.kernel(l).scrub_digest() });
        }
    }
    m.set("interp.scrub_ms", t.elapsed().as_secs_f64() * 1e3);
    rec.exit(s);

    m.set("interp.execute_ns_per_iter", out.execute.ns_per_unit());
    m.set(
        "interp.execute_packed_ns_per_iter",
        out.execute_packed.ns_per_unit(),
    );
    m.set("interp.pack_ns_per_iter", out.pack.ns_per_unit());
    if out.pack.ns > 0 {
        // bytes per nanosecond is GB/s.
        m.set(
            "interp.pack_mb_per_s",
            out.pack.bytes as f64 / out.pack.ns as f64 * 1e3,
        );
    }
    m.set("interp.packed_bytes_per_iter", out.pack.bytes_per_unit());
    m.set("interp.prefetch_ns_per_iter", out.prefetch.ns_per_unit());
    m.set(
        "interp.prefetch_bytes_per_iter",
        out.prefetch.bytes_per_unit(),
    );
    m.set(
        "interp.journal_capture_ns_per_chunk",
        out.journal.ns_per_unit(),
    );
    m.set(
        "interp.journal_bytes_per_chunk",
        out.journal.bytes_per_unit(),
    );
    m.set("interp.replay_ns_per_chunk", out.replay.ns_per_unit());
    out.errors
}

/// The synthetic loop written by hand over plain vectors copied out of
/// the arena: what the interpreter's `execute` is a tax on.
pub fn native_reference(case: &mut Case, rec: &mut Recorder, m: &mut Metrics) {
    let Some((arrays, step)) = case.units[0].synth else {
        return;
    };
    let s = rec.enter("ref.native");
    let unit = &mut case.units[0];
    let space = unit.seq.workload().space.clone();
    let n = space.array(arrays.x).len;
    let arena = unit.seq.arena_mut();
    let copy = |id| -> Vec<u32> { (0..n).map(|i| arena.get_u32(&space, id, i)).collect() };
    let (mut x, a, b, ij) = (
        copy(arrays.x),
        copy(arrays.a),
        copy(arrays.b),
        copy(arrays.ij),
    );
    let iters = n / step;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in (0..n as usize).step_by(step as usize) {
                let j = ij[i] as usize;
                x[j] = x[j].wrapping_add(a[i]).wrapping_add(b[i]);
            }
            std::hint::black_box(&mut x);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    rec.exit(s);
    m.set_samples("ref.native_ns_per_iter", &samples);
    let native = m.get("ref.native_ns_per_iter");
    if native > 0.0 {
        m.set(
            "derived.interp_tax",
            m.get("interp.execute_ns_per_iter") / native,
        );
    }
}

/// `token.*`: the cross-core handoff (two threads ping-pong one token,
/// every round trip timed with one clock read) and the single-thread
/// release/wait pair `bench_suite` reports.
pub fn token_micro(rec: &mut Recorder, m: &mut Metrics, nproc: usize) {
    let s = rec.enter("micro.token");
    // On one CPU each handoff costs a scheduler yield; keep the run short.
    let rounds: u64 = if nproc >= 2 { 20_000 } else { 500 };
    let token = Token::new();
    let ready = AtomicBool::new(false);
    let mut trips = Vec::with_capacity(rounds as usize);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            ready.store(true, Ordering::Release);
            for r in 0..rounds {
                token.wait_for(2 * r + 1);
                token.release_to(2 * r + 2);
            }
        });
        while !ready.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let mut last = Instant::now();
        for r in 0..rounds {
            token.release_to(2 * r + 1);
            token.wait_for(2 * r + 2);
            let now = Instant::now();
            trips.push((now - last).as_nanos() as f64 / 2.0);
            last = now;
        }
    });
    let trips = sorted(trips);
    m.set_samples("token.handoff_ns", &trips);
    m.set("token.handoff_p99_ns", percentile(&trips, 990));

    let transfers = 100_000u64;
    let token = Token::new();
    let t = Instant::now();
    for i in 0..transfers {
        token.release_to(i + 1);
        std::hint::black_box(token.wait_for(i + 1));
    }
    m.set(
        "token.uncontended_ns",
        t.elapsed().as_nanos() as f64 / transfers as f64,
    );
    rec.exit(s);
}

/// `runner.fixed_ns`: a cascaded run of one iteration per thread — spawn,
/// one handoff, join — so what is left is the runner's fixed cost.
pub fn runner_fixed(rec: &mut Recorder, m: &mut Metrics, seed: u64) {
    let s = rec.enter("micro.runner_fixed");
    let synth = Synth::build(8 * NTHREADS as u64, Variant::Sparse, seed);
    let prog =
        SpecProgram::new(synth.workload, synth.arena).expect("the synthetic loop is admitted");
    let k = prog.kernel(0);
    let cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: NTHREADS,
            iters_per_chunk: 1,
            policy: RtPolicy::Restructure,
            poll_batch: 64,
        },
        ..RunConfig::default()
    };
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            try_run_governed(&k, &cfg).expect("a fault-free run succeeds");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    m.set_samples("runner.fixed_ns", &samples);
    rec.exit(s);
}

/// `ckpt.*`: base snapshot, eight chunk deltas and a verified load on a
/// fixed 16 MiB dense program under `dir`. Returns what went wrong.
pub fn ckpt_micro(rec: &mut Recorder, m: &mut Metrics, seed: u64, dir: &Path) -> Vec<String> {
    let s = rec.enter("micro.ckpt");
    let synth = Synth::build(1 << 20, Variant::Dense, seed);
    let text = to_text(&synth.workload);
    let base = synth.arena.bytes().to_vec();
    let mut prog =
        SpecProgram::new(synth.workload, synth.arena).expect("the synthetic loop is admitted");
    // Deltas of a killed earlier run would linger beside the new ones.
    let _ = std::fs::remove_dir_all(dir);
    let errors = match ckpt_cycle(rec, m, &prog, dir, &text, &base) {
        Ok(restored) if restored == prog.checksum() => Vec::new(),
        Ok(_) => vec!["ckpt: the restored arena differs from the live one".to_string()],
        Err(e) => vec![format!("ckpt: {e}")],
    };
    let _ = std::fs::remove_dir_all(dir);
    rec.exit(s);
    errors
}

/// Create, append [`CKPT_DELTAS`] executed chunks, load, restore; returns
/// the restored arena's checksum.
fn ckpt_cycle(
    rec: &mut Recorder,
    m: &mut Metrics,
    prog: &SpecProgram,
    dir: &Path,
    text: &str,
    base: &[u8],
) -> Result<u64, String> {
    const IPC: u64 = 4096;
    const CKPT_DELTAS: u64 = 8;
    let k = prog.kernel(0);
    let meta = CkptMeta {
        loop_index: 0,
        iters: k.iters(),
        iters_per_chunk: IPC,
    };
    let (writer, d) = timed(rec, true, "ckpt.create", || {
        CkptWriter::create(dir, text, meta, base)
    });
    let mut writer = writer.map_err(|e| e.to_string())?;
    m.set("ckpt.base_ms", d.as_secs_f64() * 1e3);

    let mut publish = Vec::new();
    let mut delta = Vec::new();
    for c in 0..CKPT_DELTAS {
        let range = c * IPC..(c + 1) * IPC;
        // SAFETY: single-threaded; the chunk is executed, then its
        // post-state write-set is read with nothing else running.
        let captured = unsafe {
            k.execute(range.clone());
            k.journal_capture(range.clone(), &mut delta)
        };
        if !captured {
            return Err("the dense synthetic loop must be journalable".into());
        }
        let (res, d) = timed(rec, true, "ckpt.append_delta", || {
            writer.append_delta(c, c + 1, range.start, range.end, &delta)
        });
        res.map_err(|e| e.to_string())?;
        publish.push(d.as_secs_f64() * 1e3);
    }
    m.set_samples("ckpt.publish_ms_per_delta", &publish);
    m.set("ckpt.bytes_per_delta", delta.len() as f64);

    let (loaded, d) = timed(rec, true, "ckpt.load", || ckpt::load(dir));
    m.set("ckpt.load_ms", d.as_secs_f64() * 1e3);
    let (mut restored, committed) = loaded
        .and_then(|c| c.into_program())
        .map_err(|e| e.to_string())?;
    if committed != CKPT_DELTAS * IPC {
        return Err(format!(
            "restored at iteration {committed}, wrote {}",
            CKPT_DELTAS * IPC
        ));
    }
    Ok(restored.checksum())
}

/// `sim.*`: the simulator's predicted speedup for the same loop shape at
/// a reduced scale — **simulated** time on the Pentium Pro model (two
/// processors, 64 KB chunks, the workload's own helper policy), not a
/// measurement of this host.
pub fn sim_prediction(kind: Kind, rec: &mut Recorder, m: &mut Metrics, seed: u64, quick: bool) {
    let workload: Workload = match kind {
        Kind::SparsePack => {
            Synth::build(
                if quick { 1 << 16 } else { SIM_SYNTH_N },
                Variant::Sparse,
                seed,
            )
            .workload
        }
        Kind::Wave5Seq15 => {
            Parmvr::build(ParmvrParams {
                scale: if quick { 0.01 } else { SIM_PARMVR_SCALE },
                seed,
            })
            .workload
        }
        _ => return,
    };
    let s = rec.enter("sim.predict");
    let machine = pentium_pro();
    let t = Instant::now();
    let base = sim_sequential(&machine, &workload, SIM_CALLS, true);
    let casc = sim_cascaded(
        &machine,
        &workload,
        &CascadeConfig {
            nprocs: NTHREADS,
            chunk_bytes: 64 * 1024,
            policy: HelperPolicy::Restructure { hoist: false },
            jump_out: true,
            calls: SIM_CALLS,
            flush_between_calls: true,
        },
    );
    let host_ns = t.elapsed().as_nanos() as f64;
    rec.exit(s);
    let refs = |r: &RunReport| -> u64 {
        r.loops
            .iter()
            .map(|l| l.exec.l1_hits + l.exec.l1_misses + l.helper.l1_hits + l.helper.l1_misses)
            .sum()
    };
    m.set("sim.pred_speedup", casc.overall_speedup_vs(&base));
    m.set("sim.host_ms", host_ns / 1e6);
    // The reports count the measured (last) call only; every call costs
    // the host the same.
    let simulated = SIM_CALLS as u64 * (refs(&base) + refs(&casc));
    if simulated > 0 {
        m.set("sim.host_ns_per_ref", host_ns / simulated as f64);
    }
}

/// Vector length of the simulated sparse loop (the measured one is
/// [`crate::workloads`]' 20 Mi; the simulator walks every reference).
pub const SIM_SYNTH_N: u64 = 1 << 21;
/// PARMVR scale of the simulated run (the measured one is 1.0).
pub const SIM_PARMVR_SCALE: f64 = 0.1;
/// Calls per simulated configuration: the first warms structural state,
/// the last is measured (the repository's standard discipline).
const SIM_CALLS: usize = 2;

/// Per-rep numbers read off the `RunStats` / `PlannedStats` of untraced
/// reps; timings become medians over reps, counts must repeat exactly.
#[derive(Default)]
pub struct RepStats {
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl RepStats {
    fn push(&mut self, name: &'static str, v: f64) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s.push(v),
            None => self.samples.push((name, vec![v])),
        }
    }

    /// Fold one cascaded rep in.
    pub fn add(&mut self, rep: &CascRep) {
        let runs: Vec<&RunStats> = rep.runs.iter().map(|(_, r)| r).collect();
        if !runs.is_empty() {
            self.add_runs(&runs);
        }
        if !rep.planned.is_empty() {
            self.add_planned(&rep.planned);
        }
    }

    fn add_runs(&mut self, runs: &[&RunStats]) {
        let threads = || runs.iter().flat_map(|r| r.threads.iter());
        let sum = |f: fn(&cascade_rt::ThreadStats) -> u128| threads().map(f).sum::<u128>() as f64;
        let chunks: u64 = runs.iter().map(|r| r.chunks).sum();
        let iters: u64 = runs.iter().map(|r| r.iters).sum();
        let exec_ns = sum(|t| t.exec_ns);
        let elapsed_ns: f64 = runs.iter().map(|r| r.elapsed.as_nanos() as f64).sum();
        let per_chunk = |v: f64| v / chunks.max(1) as f64;

        self.push("runner.chunks", chunks as f64);
        self.push("runner.handoffs", sum(|t| u128::from(t.handoffs)));
        self.push("runner.exec_ns", exec_ns);
        self.push("runner.helper_ns", sum(|t| t.helper_ns));
        self.push("runner.spin_ns", sum(|t| t.spin_ns));
        self.push("runner.other_ns", sum(|t| t.other_ns));
        self.push(
            "runner.helper_complete_ratio",
            per_chunk(sum(|t| u128::from(t.helper_complete))),
        );
        self.push(
            "runner.helper_coverage",
            sum(|t| u128::from(t.helper_iters)) / iters.max(1) as f64,
        );
        self.push("runner.jump_outs", sum(|t| u128::from(t.jump_outs)));
        self.push(
            "runner.horizon_stalls",
            sum(|t| u128::from(t.horizon_stalls)),
        );
        let takeovers = sum(|t| u128::from(t.takeover.count));
        if takeovers > 0.0 {
            self.push(
                "runner.handoff_mean_ns",
                sum(|t| t.takeover.sum_ns) / takeovers,
            );
        }
        self.push(
            "runner.handoff_max_ns",
            threads().map(|t| t.takeover.max_ns).max().unwrap_or(0) as f64,
        );
        self.push(
            "runner.per_chunk_overhead_ns",
            per_chunk(elapsed_ns - exec_ns),
        );

        self.push(
            "verify.replayed_chunks",
            sum(|t| u128::from(t.verified_chunks)),
        );
        self.push(
            "verify.scrubs",
            runs.iter().map(|r| r.scrubs).sum::<u64>() as f64,
        );
        self.push("verify.ns_per_chunk", per_chunk(sum(|t| t.verify_ns)));
        self.push("journal.ns_per_chunk", per_chunk(sum(|t| t.journal_ns)));
        self.push("journal.bytes", sum(|t| u128::from(t.journal_bytes)));
    }

    fn add_planned(&mut self, planned: &[PlannedStats]) {
        use cascade_analyze::plan::Schedule;
        let subs = || planned.iter().flat_map(|p| p.sub_loops.iter());
        let wall_ms = |want: fn(Schedule) -> bool| -> f64 {
            subs()
                .filter(|s| want(s.schedule))
                .map(|s| match &s.run {
                    Some(run) => run.elapsed.as_nanos(),
                    None => s.threads.iter().map(|t| t.wall_ns).max().unwrap_or(0),
                })
                .sum::<u128>() as f64
                / 1e6
        };
        self.push("sched.sub_loops", subs().count() as f64);
        self.push(
            "sched.post_waits",
            planned.iter().map(|p| p.post_waits()).sum::<u64>() as f64,
        );
        self.push(
            "sched.sub_chunks",
            subs().map(|s| s.chunks).sum::<u64>() as f64,
        );
        self.push(
            "sched.post_wait_stall_ns",
            planned.iter().map(|p| p.post_wait_stall_ns()).sum::<u128>() as f64,
        );
        self.push("sched.doall_ms", wall_ms(|s| s == Schedule::Parallel));
        self.push(
            "sched.doacross_ms",
            wall_ms(|s| matches!(s, Schedule::DoAcross { .. })),
        );
        self.push("sched.residue_ms", wall_ms(|s| s == Schedule::Sequential));
    }

    /// Record everything; an exact count that differed between reps is
    /// returned as an error.
    pub fn record(&self, m: &mut Metrics) -> Vec<String> {
        use crate::metrics::{Kind, PER_LAYER};
        let mut errors = Vec::new();
        for (name, samples) in &self.samples {
            let def = PER_LAYER
                .iter()
                .find(|d| d.name == *name)
                .expect("registered");
            if def.kind == Kind::Timing {
                m.set_samples(name, samples);
            } else {
                m.set(name, median_of(samples));
                if samples.iter().any(|v| *v != samples[0]) {
                    errors.push(format!(
                        "{name} is an exact count but varied between reps: {samples:?}"
                    ));
                }
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use cascade_rt::Observe;

    #[test]
    fn chunk_ranges_tile_the_loop() {
        let all: Vec<_> = chunks(10, 4).collect();
        assert_eq!(all, vec![(0, 0..4), (1, 4..8), (2, 8..10)]);
        assert_eq!(chunks(8, 4).count(), 2);
    }

    /// The drills on a quick-size workload of each helper style: the
    /// packed, prefetched and journaled twins stay bitwise equal to the
    /// plain one, and the exact per-iteration byte counts hit their
    /// closed forms.
    #[test]
    fn drills_keep_twins_bitwise_equal() {
        for (kind, packed, prefetched) in [
            (Kind::GuardedDense, 12.0, 16.0),
            (Kind::Wave5Seq15, 0.0, 0.0),
            (Kind::ZooPrefetch, 0.0, 0.0),
        ] {
            let mut rec = Recorder::new("t");
            let mut case = Case::build(kind, 5, true, &mut rec);
            let mut m = Metrics::new(&PER_LAYER);
            let errors = interp_drills(&mut case, &mut rec, &mut m);
            assert_eq!(errors, Vec::<String>::new(), "{}", kind.name());
            assert!(m.get("interp.execute_ns_per_iter") > 0.0);
            assert!(m.get("interp.pack_mb_per_s") > 0.0);
            if packed > 0.0 {
                assert_eq!(m.get("interp.packed_bytes_per_iter"), packed);
                assert_eq!(m.get("interp.prefetch_bytes_per_iter"), prefetched);
                // 4096 iterations of X(IJ(i)) with IJ the identity.
                assert_eq!(m.get("interp.journal_bytes_per_chunk"), 4096.0 * 4.0);
                native_reference(&mut case, &mut rec, &mut m);
                assert!(m.get("derived.interp_tax") > 0.0);
            }
            assert!(rec
                .spans()
                .iter()
                .any(|s| s.name == "interp.execute_packed"));
        }
    }

    #[test]
    fn rep_stats_flag_a_count_that_moves() {
        let mut rec = Recorder::disabled();
        let case = Case::build(Kind::PlannedMix, 5, true, &mut rec);
        let mut stats = RepStats::default();
        for _ in 0..2 {
            stats.add(&case.casc_rep(&Observe::default(), &mut rec).unwrap());
        }
        let mut m = Metrics::new(&PER_LAYER);
        assert_eq!(stats.record(&mut m), Vec::<String>::new());
        assert_eq!(m.get("sched.sub_loops"), 4.0);
        assert!(m.get("sched.post_waits") > 0.0 && m.get("runner.chunks") > 0.0);
        stats.push("sched.post_waits", 1.0);
        assert_eq!(stats.record(&mut m).len(), 1);
    }

    #[test]
    fn micro_benchmarks_report_and_verify() {
        let mut rec = Recorder::new("t");
        let mut m = Metrics::new(&PER_LAYER);
        token_micro(&mut rec, &mut m, 1);
        assert!(m.get("token.handoff_ns") > 0.0 && m.get("token.uncontended_ns") > 0.0);
        runner_fixed(&mut rec, &mut m, 5);
        assert!(m.get("runner.fixed_ns") > 0.0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-ckpt-{}", std::process::id()));
        assert_eq!(ckpt_micro(&mut rec, &mut m, 5, &dir), Vec::<String>::new());
        assert_eq!(m.get("ckpt.bytes_per_delta"), 4096.0 * 4.0);
        assert!(!dir.exists());
        sim_prediction(Kind::SparsePack, &mut rec, &mut m, 5, true);
        assert!(m.get("sim.pred_speedup") > 0.0 && m.get("sim.host_ns_per_ref") > 0.0);
    }
}
