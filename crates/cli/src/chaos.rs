//! `cascade chaos`: one storm driver over a fault-axis table.
//!
//! A storm is `--plans` independent cases. Each case samples its faults
//! from its cell's own RNG stream, runs, and is classified into one
//! `Verdict`; the driver tallies the verdicts, prints the cell's summary
//! line and exits 1 if any case landed in a failing bucket.
//!
//! The axes — ladder faults (panics, stalls, slowdowns), `--corrupt`
//! (silent bit flips under an armed verify policy) and `--kill` (SIGKILL
//! of a checkpointing child) — crossed with `--mode cascade|plan` form a
//! grid. `TABLE` holds the cells that have a driver, with their
//! defaults, RNG salt and wording; `rejected` holds the cells that do
//! not, with the reason the usage error gives.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cascade_analyze::plan::{plan_workload, TransformPlan};
use cascade_rt::{
    ckpt, fission_specs, run_sequential, try_run_governed, try_run_planned, CkptMeta, CkptPolicy,
    CkptSink, CkptWriter, FaultEvent, FaultKind, FaultPlan, FaultyKernel, RealKernel, RetryPolicy,
    RtPolicy, RunConfig, RunError, RunnerConfig, SpecProgram, Tolerance, VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::{
    to_text, AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};

use crate::args::{ArgError, Args};
use crate::commands::verify_policy_from;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Axis {
    Ladder,
    Corrupt,
    Kill,
}

/// How one case ended; also the index of its tally slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Clean,
    Recovered,
    Salvaged,
    Typed,
    Cancelled,
    Repaired,
    FailedClean,
    Scrubbed,
    Resumed,
    Cold,
    Missed,
    Unexplained,
    Diverged,
}
use Verdict::*;

/// Any case in one of these buckets fails the storm (exit 1).
const FAILING: [Verdict; 3] = [Missed, Unexplained, Diverged];

impl Verdict {
    /// What a summary line (or the exit-1 message) calls this bucket.
    fn words(self) -> &'static str {
        match self {
            Clean => "clean",
            Recovered => "recovered in-cascade",
            Salvaged => "salvaged",
            Typed => "typed errors",
            Cancelled => "cancelled+resumed",
            Repaired => "repaired bitwise",
            FailedClean => "failed fast with clean resume",
            Scrubbed => "scrubber catches",
            Resumed => "resumed from checkpoint",
            Cold => "cold restarts",
            Missed => "missed",
            Unexplained => "salvaged without a recorded RetryAbandoned reason",
            Diverged => "diverged",
        }
    }
}

/// One supported cell of the axis × mode grid.
struct Row {
    axis: Axis,
    plan_mode: bool,
    /// Prefix of error messages, and the canceller thread's name.
    name: &'static str,
    title: &'static str,
    unit: &'static str,
    // Defaults of the options the cells disagree on.
    n: u64,
    plans: u64,
    max_threads: usize,
    chunk_iters: u64,
    watchdog_ms: u64,
    tolerance: &'static str,
    /// XORed into `--seed`: every cell draws from its own stream.
    salt: u64,
    /// The buckets the summary line reports, in order.
    summary: &'static [Verdict],
    passed: &'static str,
}

const LADDER: Row = Row {
    axis: Axis::Ladder,
    plan_mode: false,
    name: "chaos",
    title: "chaos matrix",
    unit: "fault plans",
    n: 16_384,
    plans: 20,
    max_threads: 4,
    chunk_iters: 128,
    watchdog_ms: 25,
    tolerance: "salvage",
    salt: 0x000F_A170_FA17_C0DE,
    summary: &[Clean, Recovered, Salvaged, Typed, Cancelled, Diverged],
    passed: "recovery verdict: no hangs, no silent corruption",
};

/// The other cells, as what they change of [`LADDER`]. Only the cascade
/// runtime's retry ladder leaves an audit trail that tells a recovery
/// from a clean run, so the planned matrix has no `Recovered` bucket.
const TABLE: [Row; 4] = [
    LADDER,
    Row {
        plan_mode: true,
        name: "planned chaos",
        title: "planned chaos matrix",
        n: 4096,
        plans: 12,
        salt: 0x0000_F1A2_0000_C0DE,
        summary: &[Clean, Salvaged, Typed, Cancelled, Diverged],
        ..LADDER
    },
    Row {
        axis: Axis::Corrupt,
        name: "chaos --corrupt",
        title: "corruption storm",
        unit: "flip plans",
        plans: 12,
        watchdog_ms: 200,
        tolerance: "retry",
        salt: 0x00C0_44FF_7ED0_57A7,
        summary: &[Repaired, FailedClean, Scrubbed, Missed, Diverged],
        passed: "corruption verdict: every flip detected online, zero silent divergence",
        ..LADDER
    },
    Row {
        axis: Axis::Kill,
        name: "chaos --kill",
        title: "kill-restart storm",
        unit: "trials",
        n: 4096,
        plans: 6,
        max_threads: 3,
        chunk_iters: 64,
        salt: 0x0000_51C4_11ED_0009, // 9 = SIGKILL
        summary: &[Resumed, Cold, Diverged],
        passed: "kill-restart verdict: every sampled SIGKILL point recovered bitwise",
        ..LADDER
    },
];

/// The options that select a cell of the grid, and for the cells with no
/// driver, why there is none.
const SELECTORS: [&str; 4] = ["--corrupt", "--mode plan", "--cancel", "--mid-mutation"];

fn rejected(axis: Axis, selector: &str) -> Option<&'static str> {
    Some(match (axis, selector) {
        (Axis::Kill, "--corrupt") => "the checkpointing child arms no verify policy",
        (Axis::Kill, "--mode plan") => "the plan executor takes no checkpoints to resume from",
        (Axis::Kill, "--cancel") => "SIGKILL ends the governed run; nothing is left to cancel",
        (Axis::Kill, "--mid-mutation") => "SIGKILL is this axis's only fault",
        (Axis::Corrupt, "--mode plan") => "the plan executor has no verify protocol to storm",
        (Axis::Corrupt, "--cancel") => "a cancelled run returns before its planned flips fire",
        (Axis::Corrupt, "--mid-mutation") => "torn panics are faults of the ladder axis",
        _ => return None,
    })
}

/// The `--tolerance` option group, raw (the kill axis forwards it to its
/// child) and mapped onto the runtime's recovery ladder.
struct Recovery {
    name: String,
    watchdog_ms: u64,
    retry_budget: u64,
    retry_backoff_ms: u64,
    tol: Tolerance,
}

/// One parsed `cascade chaos` invocation.
struct Storm {
    row: &'static Row,
    n: u64,
    seed: u64,
    plans: u64,
    max_threads: usize,
    chunk_iters: u64,
    recovery: Recovery,
    // Ladder axis.
    stall_ms: u64,
    mid_mutation: bool,
    cancel: bool,
    // Corrupt axis (`Off` elsewhere).
    verify: VerifyPolicy,
    // Kill axis.
    throttle_us: u64,
    exe: PathBuf,
    kill_dir: Option<String>,
    base_dir: PathBuf,
}

/// One sampled in-process case, ready to run. A cascade-mode case is a
/// fissioned sequence of one: one kernel, one fault plan, no `plan`.
struct Case {
    prog: SpecProgram,
    plan: Option<TransformPlan>,
    /// Checksum of straight sequential execution over the same arena.
    expected: u64,
    num_chunks: u64,
    nthreads: usize,
    policy: RtPolicy,
    faults: Vec<FaultPlan>,
    label: String,
    // Corrupt axis.
    flips: u64,
    outside: bool,
}

/// A finished case: the sampled plan (left of ` -> `), its bucket, and
/// the verdict text.
type Line = (String, Verdict, String);

/// `cascade chaos`
pub fn run(args: &Args) -> Result<String, ArgError> {
    let s = Storm::parse(args)?;
    let row = s.row;

    // Injected faults are ordinary panics; without this the default hook
    // would spray a backtrace per fault over the report. Restored on drop
    // (including the early-return error paths).
    struct HookGuard;
    impl Drop for HookGuard {
        fn drop(&mut self) {
            let _ = std::panic::take_hook();
        }
    }
    std::panic::set_hook(Box::new(|_| {}));
    let _hook = HookGuard;

    let mut rng = s.seed ^ row.salt;
    let mut tally = [0u64; Diverged as usize + 1];
    let mut out = s.header();
    for case in 0..s.plans {
        let (label, verdict, text) = match row.axis {
            Axis::Kill => s.kill_trial(case, &mut rng)?,
            Axis::Ladder | Axis::Corrupt => s.fault_case(case, &mut rng)?,
        };
        tally[verdict as usize] += 1;
        out.push_str(&match row.axis {
            Axis::Kill => format!("  trial {case:>2}: {label} -> {text}\n"),
            _ => format!("  plan {case:>3}: {label} -> {text}\n"),
        });
    }

    let counted = |buckets: &[Verdict]| -> Vec<String> {
        let count = |v: &Verdict| format!("{} {}", tally[*v as usize], v.words());
        buckets.iter().map(count).collect()
    };
    let shown = row.summary.iter().copied();
    let shown: Vec<Verdict> = shown.filter(|v| *v != Cancelled || s.cancel).collect();
    out.push_str(&format!("summary: {}\n", counted(&shown).join(", ")));
    if row.axis == Axis::Ladder && !row.plan_mode {
        let tol = &s.recovery.tol;
        let retry = if tol.retry.is_some() {
            " -> retry -> quarantine"
        } else {
            ""
        };
        let salvage = if tol.salvage { " -> salvage" } else { "" };
        out.push_str(&format!("recovery ladder: fail-fast{retry}{salvage}\n"));
    }
    let failed: Vec<Verdict> = FAILING
        .into_iter()
        .filter(|v| tally[*v as usize] > 0)
        .collect();
    if !failed.is_empty() {
        return Err(ArgError::verification(format!(
            "{}: of {} {}, {}\n{out}",
            row.name,
            s.plans,
            row.unit,
            counted(&failed).join(", ")
        )));
    }
    if row.axis == Axis::Kill && s.kill_dir.is_none() {
        let _ = std::fs::remove_dir_all(&s.base_dir);
    }
    out.push_str(&format!("{}\n", row.passed));
    Ok(out)
}

impl Storm {
    fn parse(args: &Args) -> Result<Storm, ArgError> {
        let (axis, this) = if args.flag("kill") {
            (Axis::Kill, "--kill")
        } else if args.flag("corrupt") {
            (Axis::Corrupt, "--corrupt")
        } else {
            (Axis::Ladder, "")
        };
        let plan_mode = match args.get("mode", "cascade").as_str() {
            "cascade" => false,
            "plan" => true,
            other => {
                return Err(ArgError::usage(format!(
                    "unknown mode '{other}' (cascade|plan)"
                )))
            }
        };
        for selector in SELECTORS {
            let given = match selector {
                "--mode plan" => plan_mode,
                flag => args.flag(&flag[2..]),
            };
            if let (true, Some(why)) = (given, rejected(axis, selector)) {
                return Err(ArgError::usage(format!(
                    "chaos: {this} cannot be combined with {selector}: {why}"
                )));
            }
        }
        let row = TABLE
            .iter()
            .find(|r| r.axis == axis && r.plan_mode == plan_mode)
            .expect("every cell is in TABLE or rejected");
        let mut s = Storm {
            row,
            n: args.get_num("n", row.n)?,
            seed: args.get_num("seed", 42u64)?,
            plans: args.get_num("plans", row.plans)?,
            max_threads: args.get_num("max-threads", row.max_threads)?,
            chunk_iters: args.get_num("chunk-iters", row.chunk_iters)?,
            recovery: recovery_from(args, row.tolerance, row.watchdog_ms)?,
            stall_ms: 0,
            mid_mutation: args.flag("mid-mutation"),
            cancel: args.flag("cancel"),
            verify: VerifyPolicy::Off,
            throttle_us: 0,
            exe: PathBuf::new(),
            kill_dir: None,
            base_dir: PathBuf::new(),
        };
        match axis {
            Axis::Ladder => s.stall_ms = args.get_num("stall-ms", 80u64)?,
            Axis::Corrupt => s.verify = verify_policy_from(&args.get("verify", "every"))?,
            Axis::Kill => {
                s.throttle_us = args.get_num("throttle-us", 300u64)?;
                s.exe = match args.get_opt("exe") {
                    Some(p) => PathBuf::from(p),
                    None => std::env::current_exe().map_err(|e| {
                        ArgError::internal(format!("chaos --kill: current_exe: {e}"))
                    })?,
                };
                s.kill_dir = args.get_opt("kill-dir");
                s.base_dir = match &s.kill_dir {
                    Some(d) => PathBuf::from(d),
                    None => {
                        // Unique per invocation, not just per process:
                        // storms running in one process (parallel tests)
                        // must not share — and on exit remove — each
                        // other's checkpoints.
                        static STORMS: AtomicU64 = AtomicU64::new(0);
                        let storm = STORMS.fetch_add(1, Ordering::Relaxed);
                        let unique = format!("cascade-kill-{}-{storm}", std::process::id());
                        std::env::temp_dir().join(unique)
                    }
                };
            }
        }
        args.reject_unknown()?;
        if s.plans == 0 {
            return Err(ArgError::usage("--plans must be positive"));
        }
        if s.max_threads == 0 {
            return Err(ArgError::usage("--max-threads must be positive"));
        }
        // Detection of an in-execution flip needs the replay compare; a
        // digest-only policy would re-hash the executor's own (corrupted)
        // bytes and agree with them.
        if axis == Axis::Corrupt && matches!(s.verify, VerifyPolicy::Off | VerifyPolicy::Checksum) {
            return Err(ArgError::usage(
                "--corrupt needs a replaying --verify policy (every or sampled:K)",
            ));
        }
        if axis == Axis::Kill && (s.chunk_iters == 0 || s.chunk_iters >= s.n) {
            return Err(ArgError::usage("--chunk-iters must be in 1..n"));
        }
        Ok(s)
    }

    fn header(&self) -> String {
        let tolerance = &self.recovery.name;
        let detail = match self.row.axis {
            Axis::Ladder => format!(
                "watchdog {} ms, tolerance {tolerance}{}{}",
                self.recovery.watchdog_ms,
                if self.mid_mutation {
                    ", mid-mutation on"
                } else {
                    ""
                },
                if self.cancel { ", cancel storm on" } else { "" }
            ),
            Axis::Corrupt => format!("verify {:?}, tolerance {tolerance}", self.verify),
            Axis::Kill => format!(
                "tolerance {tolerance}, checkpoints under {}",
                self.base_dir.display()
            ),
        };
        format!(
            "{}: {} {}, threads 1..={}, {} iters/chunk, {detail}\n",
            self.row.title, self.plans, self.row.unit, self.max_threads, self.chunk_iters
        )
    }

    fn draw_threads(&self, rng: &mut u64) -> usize {
        1 + (splitmix64(rng) as usize) % self.max_threads
    }

    /// One in-process case: sample it, run it (under the governance storm
    /// with `--cancel`), classify what came back.
    fn fault_case(&self, case: u64, rng: &mut u64) -> Result<Line, ArgError> {
        let mut c = match self.row.axis {
            Axis::Corrupt => self.sample_flips(case, rng)?,
            _ => self.sample_ladder(case, rng)?,
        };
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: c.nthreads,
                iters_per_chunk: self.chunk_iters,
                policy: c.policy,
                poll_batch: 8,
            },
            tolerance: self.recovery.tol.clone(),
            verify: self.verify,
            ..RunConfig::default()
        };
        let faulty: Vec<FaultyKernel<_>> = std::mem::take(&mut c.faults)
            .into_iter()
            .enumerate()
            .map(|(g, fp)| FaultyKernel::new(c.prog.kernel(g), fp))
            .collect();
        let (result, note) = self.stormed(case, rng, cfg, |cfg| match &c.plan {
            Some(plan) => try_run_planned(&faulty, plan, cfg).map(|s| (s.degraded, s.faults)),
            None => try_run_governed(&faulty[0], cfg).map(|s| (s.degraded, s.faults)),
        });
        drop(faulty);
        c.label.push_str(note);
        let (verdict, text) = self.classify(case, &mut c, result)?;
        Ok((c.label, verdict, text))
    }

    /// Run one case under `cfg`. With `--cancel`, every third case arms
    /// the deadline governor and the rest get an external canceller
    /// thread firing at a random point inside (or occasionally after)
    /// the run.
    fn stormed<R>(
        &self,
        case: u64,
        rng: &mut u64,
        mut cfg: RunConfig,
        run: impl FnOnce(&RunConfig) -> R,
    ) -> (R, &'static str) {
        if !self.cancel {
            return (run(&cfg), "");
        }
        if case % 3 == 2 {
            let deadline = Duration::from_micros(200 + splitmix64(rng) % 4_000);
            cfg.deadline = Some(deadline);
            // A watchdog longer than the deadline is a config error (it
            // could never fire); clamp it so deadline cases stay valid —
            // the jumpier watchdog is welcome storm coverage.
            cfg.tolerance.watchdog = cfg.tolerance.watchdog.map(|w| w.min(deadline));
            return (run(&cfg), " +deadline");
        }
        let token = cfg.cancel.clone();
        let delay = Duration::from_micros(splitmix64(rng) % 5_000);
        let who = format!("{} canceller", self.row.name);
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(delay);
            token.cancel(&who);
        });
        let result = run(&cfg);
        let _ = canceller.join();
        (result, " +cancel")
    }

    /// The part of a case every sampler shares: the sequential reference,
    /// the program (fissioned under its transformation plan in plan mode)
    /// and one empty fault plan per kernel.
    fn stage(
        &self,
        w: Workload,
        arena: Arena,
        nthreads: usize,
        policy: RtPolicy,
    ) -> Result<Case, ArgError> {
        let expected = {
            let mut prog = SpecProgram::new(w.clone(), arena.clone()).map_err(synth_rejected)?;
            run_sequential(&prog.kernel(0));
            prog.checksum()
        };
        let num_chunks = w.loops[0].iters.div_ceil(self.chunk_iters).max(1);
        let (w, plan) = if self.row.plan_mode {
            let plan = plan_workload(&w).swap_remove(0);
            let loops = fission_specs(&w.loops[0], &plan);
            (Workload { loops, ..w }, Some(plan))
        } else {
            (w, None)
        };
        let prog = SpecProgram::new(w, arena).map_err(synth_rejected)?;
        Ok(Case {
            faults: vec![FaultPlan::new(self.chunk_iters); prog.num_loops()],
            prog,
            plan,
            expected,
            num_chunks,
            nthreads,
            policy,
            label: String::new(),
            flips: 0,
            outside: false,
        })
    }

    /// Ladder axis: one to three panics, stalls and slowdowns (and, with
    /// `--mid-mutation`, panics that fire after part of a chunk's writes
    /// landed) on random chunks — of the Synth loop in cascade mode, of
    /// random sub-loops of a fissioned multi-writer loop in plan mode.
    /// Each mode keeps its own draw order, so a seed's plans are stable.
    fn sample_ladder(&self, case: u64, rng: &mut u64) -> Result<Case, ArgError> {
        let plan_mode = self.row.plan_mode;
        let (mut c, desc) = if plan_mode {
            let (w, arena, desc) = planned_chaos_workload(self.n, case, rng);
            let nthreads = self.draw_threads(rng);
            (self.stage(w, arena, nthreads, RtPolicy::Restructure)?, desc)
        } else {
            let nthreads = self.draw_threads(rng);
            let policy = match splitmix64(rng) % 3 {
                0 => RtPolicy::None,
                1 => RtPolicy::Prefetch,
                _ => RtPolicy::Restructure,
            };
            let s = Synth::build(self.n, variant_of(case), self.seed);
            (self.stage(s.workload, s.arena, nthreads, policy)?, "")
        };
        let mut injected = Vec::new();
        for _ in 0..=(splitmix64(rng) % if plan_mode { 2 } else { 3 }) {
            let g = if plan_mode {
                (splitmix64(rng) % c.faults.len() as u64) as usize
            } else {
                0
            };
            let chunk = splitmix64(rng) % c.num_chunks;
            let kind = match splitmix64(rng) % if self.mid_mutation { 4 } else { 3 } {
                0 => FaultKind::Panic,
                1 => FaultKind::Stall(Duration::from_millis(self.stall_ms)),
                2 => FaultKind::Slowdown(Duration::from_millis(1 + splitmix64(rng) % 3)),
                // A panic with partial writes already landed: only the
                // undo journal makes this recoverable.
                _ => FaultKind::PanicMidMutation {
                    after_iters: 1 + splitmix64(rng) % (self.chunk_iters - 1).max(1),
                },
            };
            injected.push(if plan_mode {
                format!("{kind:?}@{g}/{chunk}")
            } else {
                format!("{kind:?}@{chunk}")
            });
            c.faults[g] = std::mem::take(&mut c.faults[g]).inject(chunk, kind);
        }
        let injected = injected.join(", ");
        c.label = if plan_mode {
            format!("{desc:<14} {} threads [{injected}]", c.nthreads)
        } else {
            let policy = c.policy.label();
            format!("{} threads, {policy:<11} [{injected}]", c.nthreads)
        };
        Ok(c)
    }

    /// Corrupt axis: chunks execute and commit normally but XOR a byte
    /// inside their write footprint — the checksummed-handoff verifier
    /// must catch it at the very next claim — or, every fourth case,
    /// outside every footprint, where only the arena scrubber can see it.
    fn sample_flips(&self, case: u64, rng: &mut u64) -> Result<Case, ArgError> {
        let nthreads = self.draw_threads(rng);
        let s = Synth::build(self.n, variant_of(case), self.seed);
        let mut c = self.stage(s.workload, s.arena, nthreads, RtPolicy::None)?;
        // Out-of-footprint flips only make sense on workloads that *have*
        // bytes outside their write footprints; probe with a no-op flip.
        c.outside = case % 4 == 3 && {
            let k = c.prog.kernel(0);
            // SAFETY: single-threaded; xor 0 is a no-op on the probed byte.
            unsafe { k.corrupt_byte(0..k.iters(), 0, 0, false) }
        };
        let sample_k = match self.verify {
            VerifyPolicy::Sampled(k) => k,
            _ => 1,
        };
        let mut flips: Vec<u64> = Vec::new();
        for _ in 0..=(splitmix64(rng) % 2) {
            // Land on replay-sampled chunks so Sampled(K) storms still
            // promise detection for every injected flip.
            let chunk = (splitmix64(rng) % c.num_chunks.div_ceil(sample_k)) * sample_k;
            if flips.contains(&chunk) {
                continue;
            }
            flips.push(chunk);
            let flip = FaultKind::SilentBitFlip {
                // Flip after the whole chunk ran, so no later iteration
                // of the same chunk legitimately repairs it.
                after_iters: self.chunk_iters,
                offset: splitmix64(rng),
                xor: 1 << (splitmix64(rng) % 8),
                in_footprint: !c.outside,
            };
            c.faults[0] = std::mem::take(&mut c.faults[0]).inject(chunk, flip);
            if c.outside {
                break; // one scrubber target is enough per case
            }
        }
        c.flips = flips.len() as u64;
        c.label = format!(
            "{nthreads} threads, {} flip(s) {}footprint @{flips:?}",
            c.flips,
            if c.outside { "out-of-" } else { "in-" },
        );
        Ok(c)
    }

    /// The verdict of one in-process case, from what the run returned
    /// (`(degraded, fault trail)` or the typed error) and the arena it
    /// left behind.
    fn classify(
        &self,
        case: u64,
        c: &mut Case,
        result: Result<(bool, Vec<FaultEvent>), RunError>,
    ) -> Result<(Verdict, String), ArgError> {
        macro_rules! count {
            ($faults:expr, $event:ident) => {
                $faults
                    .iter()
                    .filter(|f| matches!(f, FaultEvent::$event { .. }))
                    .count() as u64
            };
        }
        // A governed run that stops early promises a bitwise-clean
        // committed prefix of the (fissioned) sequence.
        let resumes_bitwise = |c: &mut Case, committed_iters: u64| {
            resume_sequentially(&c.prog, committed_iters);
            c.prog.checksum() == c.expected
        };
        let tol = &self.recovery.tol;
        let ladder = !self.row.plan_mode;
        Ok(match result {
            Ok((_, faults)) if self.row.axis == Axis::Corrupt => {
                let (detected, flips) = (count!(faults, CorruptionDetected), c.flips);
                if c.outside || detected < flips {
                    // An out-of-footprint flip must fail the run (there
                    // is no journal to repair from), and an in-footprint
                    // one must be caught — success with a missed flip is
                    // exactly the silent corruption this gate exists for.
                    let text = format!("MISSED FLIP(S): {detected}/{flips} detected");
                    (Missed, text)
                } else if c.prog.checksum() != c.expected {
                    (Diverged, "SILENT DIVERGENCE after repair".to_string())
                } else {
                    let blamed = count!(faults, WorkerBlamed);
                    let text = format!(
                        "detected {detected}/{flips} online, repaired bitwise ({blamed} blamed)"
                    );
                    (Repaired, text)
                }
            }
            Ok((degraded, faults)) => {
                let retried = count!(faults, ChunkRetried);
                // With retry enabled, every fall-through to salvage must
                // leave its reason in the audit trail; an unexplained
                // salvage is a ladder bug.
                let explained =
                    !ladder || tol.retry.is_none() || count!(faults, RetryAbandoned) > 0;
                let events = faults.len();
                if c.prog.checksum() != c.expected {
                    (Diverged, "SILENT DIVERGENCE".to_string())
                } else if degraded && !explained {
                    let text = format!(
                        "salvaged bitwise, but NO fall-through recorded ({events} fault events)"
                    );
                    (Unexplained, text)
                } else if degraded {
                    (
                        Salvaged,
                        format!("salvaged bitwise ({events} fault events)"),
                    )
                } else if ladder && retried > 0 {
                    let quarantined = count!(faults, WorkerQuarantined);
                    let text = format!(
                        "recovered in-cascade ({retried} retried, {quarantined} quarantined)"
                    );
                    (Recovered, text)
                } else {
                    (Clean, "clean bitwise".to_string())
                }
            }
            Err(
                ref e @ (RunError::Cancelled {
                    committed_iters, ..
                }
                | RunError::DeadlineExceeded {
                    committed_iters, ..
                }),
            ) => {
                if resumes_bitwise(c, committed_iters) {
                    let text =
                        format!("cancelled at iter {committed_iters}, resumed bitwise ({e})");
                    (Cancelled, text)
                } else {
                    let text = format!("CANCELLED RESUME DIVERGED from iter {committed_iters}");
                    (Diverged, text)
                }
            }
            // Scrubber verdict: unassignable blame, fully committed
            // prefix — the drift is outside every chunk.
            Err(RunError::Corrupted {
                thread: None,
                chunk: None,
                committed_iters,
            }) if c.outside => {
                let text =
                    format!("scrubber caught out-of-footprint drift ({committed_iters} clean)");
                (Scrubbed, text)
            }
            Err(RunError::Corrupted { thread, chunk, .. }) if c.outside => {
                let text = format!("out-of-footprint flip misattributed to {thread:?}/{chunk:?}");
                (Missed, text)
            }
            // A repairing tolerance should not have failed.
            Err(RunError::Corrupted { chunk, .. }) if tol.retry.is_some() || tol.salvage => {
                let text = format!("failed despite a recovery path (chunk {chunk:?})");
                (Missed, text)
            }
            // Fail-fast: the typed error's prefix must resume bitwise.
            Err(RunError::Corrupted {
                thread,
                chunk,
                committed_iters,
            }) => {
                if resumes_bitwise(c, committed_iters) {
                    let text = format!(
                        "detected online, failed fast at chunk {chunk:?} \
                         (blamed {thread:?}), resumed bitwise"
                    );
                    (FailedClean, text)
                } else {
                    let text = format!("CORRUPT PREFIX: resume from {committed_iters} diverged");
                    (Diverged, text)
                }
            }
            Err(e @ (RunError::WorkerPanicked { .. } | RunError::Stalled { .. }))
                if self.row.axis == Axis::Ladder =>
            {
                (Typed, format!("typed error: {e}"))
            }
            Err(e) => {
                let name = self.row.name;
                return Err(ArgError::verification(format!("{name}: plan {case}: {e}")));
            }
        })
    }

    /// Kill axis: fork this executable as a checkpointing child run
    /// (`ckpt-run`), SIGKILL it at a random point, resume from whatever
    /// checkpoint survived and compare against an uninterrupted
    /// sequential run — full arena bytes, not just a checksum.
    fn kill_trial(&self, t: u64, rng: &mut u64) -> Result<Line, ArgError> {
        let child_seed = self.seed.wrapping_add(t);
        let nthreads = self.draw_threads(rng);
        let every = 1 + splitmix64(rng) % 2;
        let dir = self.base_dir.join(format!("trial-{t:02}"));
        let want = {
            let s = Synth::build(self.n, variant_of(t), child_seed);
            let mut prog = SpecProgram::new(s.workload, s.arena).map_err(synth_rejected)?;
            run_sequential(&prog.kernel(0));
            prog.arena_mut().bytes().to_vec()
        };

        let exe = &self.exe;
        let r = &self.recovery;
        let mut child = std::process::Command::new(exe)
            .arg("ckpt-run")
            .args(["--dir", &dir.display().to_string()])
            .args(["--n", &self.n.to_string()])
            .args(["--seed", &child_seed.to_string()])
            .args(["--variant", variant_of(t).label()])
            .args(["--threads", &nthreads.to_string()])
            .args(["--chunk-iters", &self.chunk_iters.to_string()])
            .args(["--every", &every.to_string()])
            .args(["--throttle-us", &self.throttle_us.to_string()])
            .args(["--tolerance", &r.name])
            .args(["--watchdog-ms", &r.watchdog_ms.to_string()])
            .args(["--retry-budget", &r.retry_budget.to_string()])
            .args(["--retry-backoff-ms", &r.retry_backoff_ms.to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| ArgError::internal(format!("chaos --kill: spawn {exe:?}: {e}")))?;
        // Kill anywhere from before the manifest exists to after the run
        // finished: every point must recover.
        let horizon_us = 2_000 + self.n.div_ceil(self.chunk_iters) * self.throttle_us * 2;
        std::thread::sleep(Duration::from_micros(splitmix64(rng) % horizon_us));
        let _ = child.kill();
        let _ = child.wait();

        let threads = format!("{nthreads} threads, every {every} chunks");
        if !dir.join("MANIFEST").exists() {
            // Killed before the writer published anything: the contract
            // degrades to a cold restart, which is the sequential run.
            let label = format!("{threads}, no checkpoint published; restarted from scratch");
            let _ = std::fs::remove_dir_all(&dir);
            return Ok((label, Cold, "bitwise identical".to_string()));
        }
        // A published manifest must load, restore, and finish — any
        // failure past this point is a durability bug, not bad luck.
        let rejected = |what: &str, e: &dyn std::fmt::Display| {
            let kept = dir.display();
            ArgError::verification(format!(
                "chaos --kill: trial {t}: {what}: {e} (dir kept at {kept})"
            ))
        };
        let ck = ckpt::load(&dir).map_err(|e| rejected("published checkpoint rejected", &e))?;
        let label = format!("{threads}, resumed from iter {}", ck.committed_iters());
        let (mut prog, at) = ck
            .into_program()
            .map_err(|e| rejected("restore failed", &e))?;
        resume_sequentially(&prog, at);
        if prog.arena_mut().bytes() != want {
            return Ok((label, Diverged, "DIVERGED".to_string()));
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok((label, Resumed, "bitwise identical".to_string()))
    }
}

/// Hidden subcommand: the child half of `cascade chaos --kill`. Runs one
/// governed synthetic loop with checkpointing enabled, persisting
/// checkpoints into `--dir` until the parent SIGKILLs the process (or
/// the run finishes first). `--throttle-us` plans a slowdown on every
/// chunk: the kill needs to land *mid-run* with useful probability, and
/// the synthetic loops are otherwise too fast for the kill window to
/// sample interesting commit boundaries. Not part of the public surface —
/// the parent invokes it through its own executable.
pub fn ckpt_run(args: &Args) -> Result<String, ArgError> {
    let dir = args
        .get_opt("dir")
        .ok_or_else(|| ArgError::usage("ckpt-run: --dir is required"))?;
    let n = args.get_num("n", 4096u64)?;
    let seed = args.get_num("seed", 42u64)?;
    let threads = args.get_num("threads", 2usize)?;
    let chunk_iters = args.get_num("chunk-iters", 64u64)?;
    let every = args.get_num("every", 1u64)?;
    let throttle_us = args.get_num("throttle-us", 0u64)?;
    let recovery = recovery_from(args, "salvage", 25)?;
    let variant = match args.get("variant", "dense").as_str() {
        "dense" => Variant::Dense,
        "sparse" => Variant::Sparse,
        other => {
            return Err(ArgError::usage(format!(
                "ckpt-run: unknown variant '{other}' (dense|sparse)"
            )))
        }
    };
    args.reject_unknown()?;
    if chunk_iters == 0 {
        return Err(ArgError::usage("ckpt-run: --chunk-iters must be positive"));
    }

    let s = Synth::build(n, variant, seed);
    let text = to_text(&s.workload);
    let base = s.arena.bytes().to_vec();
    let meta = CkptMeta {
        loop_index: 0,
        iters: s.workload.loops[0].iters,
        iters_per_chunk: chunk_iters,
    };
    let prog = SpecProgram::new(s.workload, s.arena).map_err(synth_rejected)?;
    let writer = CkptWriter::create(Path::new(&dir), &text, meta, &base)
        .map_err(|e| ArgError::usage(format!("ckpt-run: --dir {dir}: {e}")))?;
    let slow = FaultKind::Slowdown(Duration::from_micros(throttle_us));
    let throttle = (0..meta.iters.div_ceil(chunk_iters))
        .fold(FaultPlan::new(chunk_iters), |p, chunk| {
            p.inject(chunk, slow)
        });
    let kernel = FaultyKernel::new(prog.kernel(0), throttle);
    let cfg = RunConfig {
        runner: RunnerConfig {
            nthreads: threads,
            iters_per_chunk: chunk_iters,
            policy: RtPolicy::Restructure,
            poll_batch: 8,
        },
        tolerance: recovery.tol,
        ckpt: CkptPolicy::EveryChunks(every),
        ckpt_sink: Some(CkptSink::new(writer)),
        ..RunConfig::default()
    };
    let stats = try_run_governed(&kernel, &cfg)
        .map_err(|e| ArgError::verification(format!("ckpt-run: {e}")))?;
    Ok(format!("ckpt-run complete: {} chunks\n", stats.chunks))
}

/// Finish `prog`'s loops in order from a *global* committed-iteration
/// count (the whole loops it covers are skipped, the loop it lands in
/// runs from that point, the rest run whole) — the documented sequential
/// resume of a governed sequence. A single loop is a sequence of one.
fn resume_sequentially(prog: &SpecProgram, committed_iters: u64) {
    let mut rem = committed_iters;
    for g in 0..prog.num_loops() {
        let k = prog.kernel(g);
        let done = rem.min(k.iters());
        rem -= done;
        if done < k.iters() {
            // SAFETY: the run that reported `committed_iters` has drained
            // (or its process is dead); this thread is the only one
            // touching the arena.
            unsafe { k.execute(done..k.iters()) };
        }
    }
}

fn variant_of(case: u64) -> Variant {
    if case.is_multiple_of(2) {
        Variant::Dense
    } else {
        Variant::Sparse
    }
}

/// The synthetic chaos workloads are generated by this tool, so an
/// analyzer rejection is a bug in cascade, not in the invocation.
fn synth_rejected(e: impl std::fmt::Display) -> ArgError {
    ArgError::internal(format!("synthetic workload rejected by the analyzer: {e}"))
}

/// Parse the `--tolerance` option group.
fn recovery_from(args: &Args, name: &str, watchdog_ms: u64) -> Result<Recovery, ArgError> {
    let name = args.get("tolerance", name);
    let watchdog_ms = args.get_num("watchdog-ms", watchdog_ms)?;
    let retry_budget = args.get_num("retry-budget", 4u64)?;
    let retry_backoff_ms = args.get_num("retry-backoff-ms", 10u64)?;
    let watchdog = Some(Duration::from_millis(watchdog_ms));
    let (retry, salvage) = match name.as_str() {
        "salvage" => (None, true),
        "retry" => {
            let policy = RetryPolicy {
                budget: retry_budget,
                backoff: Duration::from_millis(retry_backoff_ms),
                ..RetryPolicy::default()
            };
            (Some(policy), true)
        }
        "fail-fast" => (None, false),
        other => {
            return Err(ArgError::usage(format!(
                "--tolerance: unknown policy '{other}' (retry|salvage|fail-fast)"
            )))
        }
    };
    Ok(Recovery {
        name,
        watchdog_ms,
        retry_budget,
        retry_backoff_ms,
        tol: Tolerance {
            watchdog,
            retry,
            salvage,
        },
    })
}

/// Deterministic splitmix64 step — the CLI avoids external RNG crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One randomized planned-chaos workload: a single loop whose
/// transformation plan exercises the named schedule mix. Shapes rotate
/// per case so every chaos run covers DOALL fan-out, a DOACROSS
/// post/wait pipeline, and a sequential residue. All writers are
/// stride-1, so every sub-loop is range-exact journalable and
/// mid-mutation panics must be recoverable.
fn planned_chaos_workload(n: u64, shape: u64, rng: &mut u64) -> (Workload, Arena, &'static str) {
    let mut space = AddressSpace::new();
    let a = space.alloc("a", 8, n + 2);
    let x = space.alloc("x", 8, n);
    let y = space.alloc("y", 8, n);
    let sref = |name: &'static str, array, base, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base, stride: 1 },
        mode,
        bytes: 8,
        hoistable: false,
    };
    // Every shape reads a(i) and writes x(i); it may carry a recurrence
    // on `a` and may have a second independent consumer y(i).
    let (carried, with_y, desc) = match shape % 3 {
        // Lag-1 recurrence: [Sequential, Parallel, Parallel].
        0 => (Some(sref("a(i+1)", a, 1, Mode::Write)), true, "seq+doall"),
        // Lag-2 recurrence: [DoAcross(2), Parallel].
        1 => (
            Some(sref("a(i+2)", a, 2, Mode::Write)),
            false,
            "doacross+doall",
        ),
        // Two independent writers over a shared read set:
        // [Parallel, Parallel].
        _ => (None, true, "doall x2"),
    };
    let mut refs = vec![sref("a(i)", a, 0, Mode::Read)];
    refs.extend(carried);
    refs.push(sref("x(i)", x, 0, Mode::Write));
    if with_y {
        refs.push(sref("y(i)", y, 0, Mode::Modify));
    }
    let spec = LoopSpec {
        name: "planned-chaos".into(),
        iters: n,
        refs,
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
    let salt = splitmix64(rng);
    for i in 0..n + 2 {
        arena.set_f64(&w.space, a, i, ((i ^ salt) % 23) as f64 * 0.1875 + 0.25);
    }
    for i in 0..n {
        arena.set_f64(&w.space, y, i, ((i.wrapping_add(salt)) % 7) as f64 - 2.5);
    }
    (w, arena, desc)
}
