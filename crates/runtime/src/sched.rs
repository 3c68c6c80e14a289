//! Plan-driven execution: run a [`TransformPlan`]'s partition on real
//! threads — DOALL sub-loops as a static range split across the worker
//! pool, DOACROSS sub-loops as a pipelined post/wait stage, and
//! `Sequential` residues cascaded with the existing token runtime.
//!
//! ## The DOACROSS post/wait protocol
//!
//! Chunks are assigned round-robin (chunk `c` belongs to worker
//! `c % nthreads`); each worker executes its own chunks in ascending
//! order, iteration by iteration. Every worker publishes a *committed
//! frontier* in a cache-line-padded `AtomicU64`: `posts[w] = f` means
//! every iteration owned by `w` below `f` is committed (workers commit
//! in order, so one counter suffices). The store is `Release`, issued
//! after each iteration's writes.
//!
//! Iteration `j` of a sub-loop with carried lag `L` may only start once
//! **every** iteration `≤ j − L` is committed (all carried dependences
//! span at least `L` iterations, so the furthest-back read of `j` is
//! satisfied). The gate spins with `Acquire` loads until, for every
//! worker `w`, `posts[w]` covers the last `w`-owned iteration at or
//! below `j − L` — checking only the single counter owning `j − L`
//! would admit `j` while an *older* chunk's tail is still uncommitted
//! (the classic DOACROSS off-by-a-chunk bug; the model in
//! [`crate::check`] catches exactly this family). The Release store /
//! Acquire load pair makes every committed iteration's writes visible
//! before the gated iteration reads them.
//!
//! Governance (cancel/deadline/budget) is polled inside gate spins and
//! at iteration boundaries; a watchdog window declares a stall when a
//! gate sees no frontier movement for the whole window. Faults roll
//! back the interrupted iteration via its undo journal and drain the
//! stage; the supervisor then salvages the uncommitted remainder
//! sequentially (ascending order satisfies every lag trivially).
//!
//! Sub-loop order is the plan's topological order, enforced with the
//! poisonable [`FtBarrier`]: the supervisor and all workers rendezvous
//! before and after every sub-loop, and a terminal error poisons the
//! barrier so the pool drains instead of hanging.
//!
//! ## Journaling in plan mode
//!
//! Cascaded chunks are journaled per chunk while exactly one thread
//! runs; planned stages execute concurrently, so a chunk-granular
//! capture could read bytes another worker is writing. Stages journal
//! only when the kernel's write footprints are *range-exact*
//! ([`RealKernel::journal_range_exact`]): each footprint covers exactly
//! the bytes the range writes, so disjoint ranges have disjoint
//! journals. DOALL stages then capture per chunk (independent
//! iterations ⇒ disjoint chunk footprints); DOACROSS stages capture per
//! iteration (concurrent iterations sit closer than `L`, aliasing
//! write sets at least `L` apart, so a capture never races a writer).
//! Journals are retained for the whole stage: a cancelled stage is
//! rolled back entry-by-entry in descending order, restoring the exact
//! stage-entry state so `committed_iters` stays a clean prefix of the
//! fissioned sequence. Unjournalable stages fall back to *completing*
//! on cancellation (mirroring the cascade's unjournalable chunk rule).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cascade_analyze::plan::{Schedule, TransformPlan};
use cascade_core::CascadeMetrics;
use cascade_trace::LoopSpec;

use crate::barrier::{BarrierOutcome, FtBarrier};
use crate::ckpt::CkptPolicy;
use crate::govern::{CancelKind, Governor, RunConfig};
use crate::kernel::RealKernel;
use crate::metrics::NsStats;
use crate::runner::{
    cancel_error, try_run_governed, validate, FaultEvent, RunError, RunStats, ThreadStats,
};
use crate::token::lock_recover;

/// A committed-iteration frontier on its own cache line, so DOACROSS
/// post stores never false-share with a neighbour's gate spins.
// Atomics justification (scripts/lint_atomics.sh): the post/wait
// protocol publishes each worker's committed frontier with `Release`
// stores and reads it with `Acquire` loads — the pair is the
// happens-before edge that makes committed writes visible to gated
// readers. No Relaxed orderings are used in this module.
#[repr(align(128))]
#[derive(Debug, Default)]
struct PadCounter(AtomicU64);

/// Materialize a plan's partition as one standalone [`LoopSpec`] per
/// sub-loop: every pure read is kept by every sub-loop (the interpreter
/// folds the shared read set into the accumulator for each statement),
/// while each write-mode anchor lands only in its own sub-loop, all in
/// original `refs` order so the accumulator fold is unchanged. Hoisting
/// is cleared — a fissioned residue runs as a plain loop.
pub fn fission_specs(spec: &LoopSpec, plan: &TransformPlan) -> Vec<LoopSpec> {
    plan.partition
        .iter()
        .enumerate()
        .map(|(g, sub)| {
            let anchors: Vec<usize> = sub
                .statements
                .iter()
                .filter_map(|&s| plan.statements[s].anchor)
                .collect();
            let mut refs = Vec::new();
            for (k, r) in spec.refs.iter().enumerate() {
                if r.mode.is_read_only() || anchors.contains(&k) {
                    let mut r = r.clone();
                    r.hoistable = false;
                    refs.push(r);
                }
            }
            LoopSpec {
                name: format!("{} [fission {g}]", spec.name),
                iters: spec.iters,
                refs,
                compute: spec.compute,
                hoistable_compute: 0.0,
                hoist_result_bytes: 0,
            }
        })
        .collect()
}

/// The deterministic *most-adversarial* DOACROSS replay order: simulate
/// the post/wait protocol (round-robin chunks of `iters_per_chunk`,
/// in-order execution within each worker) and, at every step, execute
/// the **largest** admissible next iteration across all workers.
///
/// The gate admits iteration `j` once every iteration `≤ j − window`
/// is committed. `window` equal to the sub-loop's carried lag is the
/// legal protocol: the returned order is then provably
/// dependence-respecting, and replaying it must be bitwise-identical
/// to ascending order. `window = lag + 1` demands one predecessor
/// commit *fewer* — the "wait for `lag − 1`" off-by-one — and the
/// greedy-max scheduler immediately exploits it, yielding an order
/// that runs a reader before its writer. The lag-violation regression
/// test replays both through the real interpreter.
pub fn doacross_order(iters: u64, iters_per_chunk: u64, workers: usize, window: u64) -> Vec<u64> {
    assert!(workers >= 1 && iters_per_chunk >= 1);
    let n = workers as u64;
    // Each worker's next owned iteration; `u64::MAX` = exhausted.
    let next_chunk = |w: u64, from: u64| -> u64 {
        // Smallest chunk index >= from owned by w.
        let mut c = from;
        while c % n != w {
            c += 1;
        }
        c
    };
    let mut next: Vec<u64> = (0..n)
        .map(|w| {
            let c = next_chunk(w, 0);
            if c * iters_per_chunk < iters {
                c * iters_per_chunk
            } else {
                u64::MAX
            }
        })
        .collect();
    let mut committed = vec![false; iters as usize];
    // Frontier: all iterations < frontier committed.
    let mut frontier = 0u64;
    let mut order = Vec::with_capacity(iters as usize);
    while order.len() < iters as usize {
        // Largest admissible next iteration wins — the schedule a
        // too-lax gate allows and an adversarial machine would pick.
        let mut pick: Option<(u64, usize)> = None;
        for (w, &j) in next.iter().enumerate() {
            if j == u64::MAX {
                continue;
            }
            let admissible = j < window || frontier > j - window;
            if admissible && pick.is_none_or(|(pj, _)| j > pj) {
                pick = Some((j, w));
            }
        }
        let (j, w) = pick.expect("the smallest uncommitted iteration is always admissible");
        order.push(j);
        committed[j as usize] = true;
        while frontier < iters && committed[frontier as usize] {
            frontier += 1;
        }
        // Advance worker w to its next owned iteration.
        let cur_chunk = j / iters_per_chunk;
        let nj = j + 1;
        next[w] = if nj < iters && nj / iters_per_chunk == cur_chunk {
            nj
        } else {
            let c = next_chunk(w as u64, cur_chunk + 1);
            if c * iters_per_chunk < iters {
                c * iters_per_chunk
            } else {
                u64::MAX
            }
        };
    }
    order
}

/// Per-worker statistics of one planned (DOALL or DOACROSS) stage.
#[derive(Debug, Default, Clone)]
pub struct PlannedThread {
    /// Chunks this worker fully committed.
    pub chunks: u64,
    /// Nanoseconds inside kernel execution.
    pub exec_ns: u128,
    /// Nanoseconds blocked in post/wait gate spins (0 for DOALL).
    pub stall_ns: u128,
    /// Whole wall time of this worker's stage share.
    pub wall_ns: u128,
    /// Gate evaluations whose dependence iteration lay in a *different*
    /// chunk — the structural post/wait count, independent of timing.
    pub post_waits: u64,
    /// Bytes captured into retained undo journals.
    pub journal_bytes: u64,
    /// Nanoseconds capturing (and, on fault, rolling back) journals.
    pub journal_ns: u128,
    /// Journal entries rolled back after a mid-body fault.
    pub rollbacks: u64,
    /// Per-chunk execution durations (count == `chunks`).
    pub chunk_exec: NsStats,
}

/// Statistics of one executed sub-loop of the plan.
#[derive(Debug, Clone)]
pub struct SubLoopStats {
    /// Index in the plan's partition (= execution order).
    pub index: usize,
    /// The schedule the sub-loop ran under.
    pub schedule: Schedule,
    /// Iterations executed (the full loop trip count).
    pub iters: u64,
    /// Chunks committed by the worker pool (or the token runtime for a
    /// `Sequential` sub-loop). Salvaged iterations are not chunked.
    pub chunks: u64,
    /// Structural post/wait gate count (DOACROSS stages only).
    pub post_waits: u64,
    /// Nanoseconds all workers spent blocked in gate spins.
    pub post_wait_stall_ns: u128,
    /// Whether a fault degraded this sub-loop to sequential salvage.
    pub degraded: bool,
    /// Per-worker stage statistics (empty for `Sequential` sub-loops).
    pub threads: Vec<PlannedThread>,
    /// The token runtime's stats for a `Sequential` sub-loop.
    pub run: Option<RunStats>,
}

/// Whole-run statistics of a plan-driven execution.
#[derive(Debug, Clone)]
pub struct PlannedStats {
    /// Wall-clock duration across all sub-loops.
    pub elapsed: Duration,
    /// Total iterations executed (sub-loop count × trip count).
    pub iters: u64,
    /// Total chunks committed across all sub-loops.
    pub chunks: u64,
    /// Per-sub-loop breakdown, in execution order.
    pub sub_loops: Vec<SubLoopStats>,
    /// Abnormal events observed, in order.
    pub faults: Vec<FaultEvent>,
    /// Whether any sub-loop fell back to sequential salvage.
    pub degraded: bool,
    /// Cancel latency in nanoseconds (0 when never cancelled).
    pub cancel_latency_ns: u64,
    /// Peak bytes reserved from the run's memory budget.
    pub budget_high_water: u64,
}

fn merge_ns(into: &mut NsStats, from: &NsStats) {
    if from.count == 0 {
        return;
    }
    if into.count == 0 {
        *into = *from;
        return;
    }
    into.count += from.count;
    into.sum_ns += from.sum_ns;
    into.min_ns = into.min_ns.min(from.min_ns);
    into.max_ns = into.max_ns.max(from.max_ns);
}

impl PlannedStats {
    /// Total structural post/wait gate count across all sub-loops.
    pub fn post_waits(&self) -> u64 {
        self.sub_loops.iter().map(|s| s.post_waits).sum()
    }

    /// Total nanoseconds blocked in post/wait gate spins.
    pub fn post_wait_stall_ns(&self) -> u128 {
        self.sub_loops.iter().map(|s| s.post_wait_stall_ns).sum()
    }

    /// The observability report, in the same [`CascadeMetrics`] schema
    /// as cascaded and simulated runs: planned stages map execution to
    /// the Execute phase and gate spins to the Spin phase (everything
    /// else is Other, keeping the exact phase partition), `Sequential`
    /// sub-loops merge the token runtime's per-thread stats, and the
    /// planned side counters (`sub_loops`, `post_waits`,
    /// `post_wait_stall`) ride alongside.
    pub fn metrics(&self) -> CascadeMetrics {
        let nthreads = self
            .sub_loops
            .iter()
            .map(|s| {
                s.threads
                    .len()
                    .max(s.run.as_ref().map_or(0, |r| r.threads.len()))
            })
            .max()
            .unwrap_or(0);
        let mut threads = vec![ThreadStats::default(); nthreads];
        for sub in &self.sub_loops {
            for (t, pt) in sub.threads.iter().enumerate() {
                let ts = &mut threads[t];
                ts.chunks += pt.chunks;
                ts.exec_ns += pt.exec_ns;
                ts.spin_ns += pt.stall_ns;
                // Carve the remainder as Other so the exact partition
                // helper+spin+exec+retry+other == wall holds by
                // construction.
                let other = pt.wall_ns.saturating_sub(pt.exec_ns + pt.stall_ns);
                ts.other_ns += other;
                ts.wall_ns += pt.exec_ns + pt.stall_ns + other;
                ts.journal_bytes += pt.journal_bytes;
                ts.journal_ns += pt.journal_ns;
                ts.rollbacks += pt.rollbacks;
                merge_ns(&mut ts.chunk_exec, &pt.chunk_exec);
            }
            if let Some(run) = &sub.run {
                for (t, s) in run.threads.iter().enumerate() {
                    let ts = &mut threads[t];
                    ts.chunks += s.chunks;
                    ts.helper_iters += s.helper_iters;
                    ts.helper_complete += s.helper_complete;
                    ts.exec_ns += s.exec_ns;
                    ts.helper_ns += s.helper_ns;
                    ts.spin_ns += s.spin_ns;
                    ts.retry_ns += s.retry_ns;
                    ts.other_ns += s.other_ns;
                    ts.wall_ns += s.wall_ns;
                    ts.jump_outs += s.jump_outs;
                    ts.horizon_stalls += s.horizon_stalls;
                    ts.packed_bytes += s.packed_bytes;
                    ts.prefetched_bytes += s.prefetched_bytes;
                    ts.handoffs += s.handoffs;
                    ts.rollbacks += s.rollbacks;
                    ts.journal_bytes += s.journal_bytes;
                    ts.journal_ns += s.journal_ns;
                    ts.ckpt_count += s.ckpt_count;
                    ts.ckpt_bytes += s.ckpt_bytes;
                    ts.ckpt_ns += s.ckpt_ns;
                    ts.verified_chunks += s.verified_chunks;
                    ts.verify_ns += s.verify_ns;
                    ts.events_dropped += s.events_dropped;
                    ts.events.extend_from_slice(&s.events);
                    merge_ns(&mut ts.takeover, &s.takeover);
                    merge_ns(&mut ts.chunk_exec, &s.chunk_exec);
                }
            }
        }
        let rs = RunStats {
            elapsed: self.elapsed,
            chunks: self.chunks,
            iters: self.iters,
            threads,
            degraded: self.degraded,
            faults: self.faults.clone(),
            retries: 0,
            quarantined: 0,
            cancel_latency_ns: self.cancel_latency_ns,
            budget_high_water: self.budget_high_water,
            scrubs: self
                .sub_loops
                .iter()
                .filter_map(|s| s.run.as_ref())
                .map(|r| r.scrubs)
                .sum(),
        };
        let mut m = rs.metrics();
        m.sub_loops = self.sub_loops.len() as u64;
        m.post_waits = self.post_waits();
        m.post_wait_stall = self.post_wait_stall_ns() as f64;
        m
    }
}

/// A retained undo-journal entry of a planned stage.
struct JournalEntry {
    range: Range<u64>,
    buf: Vec<u8>,
    reserved: u64,
}

/// First fault observed in a stage (first cause wins).
struct StageFault {
    thread: u64,
    chunk: u64,
    message: String,
    /// The interrupted range could not be rolled back and the kernel
    /// makes no fail-stop promise: partial writes may remain.
    torn: bool,
    /// `Some(waited)` for a watchdog-declared gate stall.
    stall: Option<Duration>,
}

/// What one worker hands the supervisor at a stage's end barrier.
#[derive(Default)]
struct WorkerStage {
    committed: Vec<Range<u64>>,
    journals: Vec<JournalEntry>,
    events: Vec<FaultEvent>,
    stats: PlannedThread,
}

/// Shared per-stage coordination state, reset by the supervisor between
/// sub-loops (the barrier provides the happens-before edge).
struct StageShared {
    halt: AtomicBool,
    /// A journaling-enabled stage hit an uncapturable range: the
    /// stage-wide rollback guarantee is void, cancel must complete
    /// instead.
    unjournaled: AtomicBool,
    posts: Vec<PadCounter>,
    fault: Mutex<Option<StageFault>>,
    slots: Vec<Mutex<Option<WorkerStage>>>,
}

impl StageShared {
    fn new(n: usize) -> Self {
        StageShared {
            halt: AtomicBool::new(false),
            unjournaled: AtomicBool::new(false),
            posts: (0..n).map(|_| PadCounter::default()).collect(),
            fault: Mutex::new(None),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn record_fault(&self, f: StageFault) {
        let mut slot = lock_recover(&self.fault);
        if slot.is_none() {
            *slot = Some(f);
        }
        self.halt.store(true, Ordering::Release);
    }
}

fn chunk_range(c_idx: u64, c: u64, iters: u64) -> Range<u64> {
    (c_idx * c)..((c_idx + 1) * c).min(iters)
}

/// The frontier `posts[w]` must reach before every `w`-owned iteration
/// `≤ d` is known committed, under round-robin chunk ownership.
fn gate_target(w: u64, d: u64, c: u64, n: u64, iters: u64) -> u64 {
    let e = d / c; // chunk containing the dependence iteration
    if e % n == w {
        return d + 1;
    }
    // Largest chunk below e owned by w; a full chunk must be committed.
    let delta = (e % n + n - w) % n; // 1..n
    if e < delta {
        0
    } else {
        ((e - delta + 1) * c).min(iters)
    }
}

/// Worker context for one planned stage.
struct StageCtx<'a> {
    me: usize,
    nthreads: usize,
    shared: &'a StageShared,
    cfg: &'a RunConfig,
    journaling: bool,
}

impl StageCtx<'_> {
    /// Poll governance at a boundary: returns `true` when the stage
    /// must halt (cancelled externally or by a peer's fault).
    fn should_halt(&self) -> bool {
        if self.shared.halt.load(Ordering::Acquire) {
            return true;
        }
        if self.cfg.cancel.is_cancelled() {
            self.cfg.cancel.note_observed();
            self.shared.halt.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// Capture the undo journal for `range`, metering the buffer
    /// against the run's memory budget. `None` means the stage must
    /// halt (the reservation was refused and the run is now cancelled).
    ///
    /// # Safety
    ///
    /// `range` must be owned by this worker under the stage's schedule
    /// (DOALL chunk or DOACROSS iteration), so no concurrent writer
    /// overlaps the range-exact footprint being read.
    unsafe fn capture<K: RealKernel>(
        &self,
        kernel: &K,
        range: Range<u64>,
        ws: &mut WorkerStage,
    ) -> Option<bool> {
        if !self.journaling {
            return Some(false);
        }
        let t0 = Instant::now();
        let mut buf = Vec::new();
        // SAFETY: forwarded under the caller's ownership guarantee.
        let ok = unsafe { kernel.journal_capture(range.clone(), &mut buf) };
        ws.stats.journal_ns += t0.elapsed().as_nanos();
        if !ok {
            // The stage can no longer promise a full rollback.
            self.shared.unjournaled.store(true, Ordering::Release);
            return Some(false);
        }
        let bytes = buf.len() as u64;
        if !self.cfg.budget.try_reserve(bytes) {
            self.cfg.cancel.cancel_with(
                CancelKind::Budget {
                    needed: bytes,
                    limit: self.cfg.budget.limit().unwrap_or(0),
                },
                "journal reservation refused by the memory budget",
            );
            self.cfg.cancel.note_observed();
            self.shared.halt.store(true, Ordering::Release);
            return None;
        }
        ws.stats.journal_bytes += bytes;
        ws.journals.push(JournalEntry {
            range,
            buf,
            reserved: bytes,
        });
        Some(true)
    }

    /// Roll back the most recent journal entry (the interrupted range)
    /// and drop it from the retained set. Returns the restored byte
    /// count when a rollback happened.
    ///
    /// # Safety
    ///
    /// Caller still "holds" the interrupted range: no other worker
    /// executes or journals it, and its range-exact footprint is
    /// disjoint from every concurrently active range.
    unsafe fn rollback_last<K: RealKernel>(
        &self,
        kernel: &K,
        ws: &mut WorkerStage,
        range: &Range<u64>,
    ) -> Option<u64> {
        let last = ws.journals.last()?;
        if last.range != *range {
            return None;
        }
        let entry = ws.journals.pop().expect("just observed");
        let bytes = entry.buf.len() as u64;
        let t0 = Instant::now();
        // SAFETY: forwarded under the caller's ownership guarantee.
        unsafe { kernel.journal_rollback(entry.range.clone(), &entry.buf) };
        ws.stats.journal_ns += t0.elapsed().as_nanos();
        ws.stats.rollbacks += 1;
        self.cfg.budget.release(entry.reserved);
        Some(bytes)
    }
}

/// One worker's share of a DOALL stage: a contiguous slice of the
/// global chunk list, executed with no synchronization beyond the
/// stage barriers.
fn run_doall<K: RealKernel>(ctx: &StageCtx<'_>, kernel: &K) -> WorkerStage {
    let mut ws = WorkerStage::default();
    let t_stage = Instant::now();
    let iters = kernel.iters();
    let c = ctx.cfg.runner.iters_per_chunk;
    let m = iters.div_ceil(c);
    let n = ctx.nthreads as u64;
    let t = ctx.me as u64;
    let lo = t * m / n;
    let hi = (t + 1) * m / n;
    for c_idx in lo..hi {
        if ctx.should_halt() {
            break;
        }
        let range = chunk_range(c_idx, c, iters);
        // SAFETY: chunk ranges are disjoint across workers; the
        // journaling gate guarantees range-exact footprints.
        let journaled = match unsafe { ctx.capture(kernel, range.clone(), &mut ws) } {
            Some(j) => j,
            None => break, // budget refusal cancelled the run
        };
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: no other worker executes this range (static
            // split); previous stages' writes are visible through the
            // stage-start barrier.
            unsafe { kernel.execute(range.clone()) }
        }));
        let exec = t0.elapsed().as_nanos();
        match r {
            Ok(()) => {
                ws.stats.exec_ns += exec;
                ws.stats.chunks += 1;
                ws.stats.chunk_exec.record(exec as u64);
                ws.committed.push(range);
            }
            Err(payload) => {
                ws.stats.exec_ns += exec;
                let rolled = if journaled {
                    // SAFETY: the interrupted chunk is still exclusively
                    // ours; its footprint is disjoint from live chunks.
                    unsafe { ctx.rollback_last(kernel, &mut ws, &range) }
                } else {
                    None
                };
                if let Some(bytes) = rolled {
                    ws.events.push(FaultEvent::ChunkRolledBack {
                        thread: t,
                        chunk: c_idx,
                        bytes,
                    });
                }
                let torn = rolled.is_none() && !kernel.panics_before_mutation();
                ctx.shared.record_fault(StageFault {
                    thread: t,
                    chunk: c_idx,
                    message: crate::runner::panic_message(payload.as_ref()),
                    torn,
                    stall: None,
                });
                break;
            }
        }
    }
    ws.stats.wall_ns = t_stage.elapsed().as_nanos();
    ws
}

/// One worker's share of a DOACROSS stage: its round-robin chunks,
/// iteration-at-a-time, gated on the committed frontiers of every
/// worker and posting its own frontier with `Release` after each
/// iteration.
fn run_doacross<K: RealKernel>(ctx: &StageCtx<'_>, kernel: &K, lag: u64) -> WorkerStage {
    let mut ws = WorkerStage::default();
    let t_stage = Instant::now();
    let iters = kernel.iters();
    let c = ctx.cfg.runner.iters_per_chunk;
    let m = iters.div_ceil(c);
    let n = ctx.nthreads as u64;
    let me = ctx.me as u64;
    let watchdog = ctx.cfg.tolerance.watchdog;
    'chunks: for c_idx in (me..m).step_by(ctx.nthreads.max(1)) {
        let range = chunk_range(c_idx, c, iters);
        let mut chunk_exec = 0u128;
        let mut committed_to = range.start;
        for j in range.clone() {
            if ctx.should_halt() {
                break;
            }
            // Gate: every iteration <= j - lag must be committed.
            if j >= lag {
                let d = j - lag;
                if d / c != c_idx {
                    ws.stats.post_waits += 1;
                }
                let mut waited: Option<Instant> = None;
                let mut window_start = Instant::now();
                let mut last_snapshot: Option<u64> = None;
                let mut spins = 0u32;
                'gate: loop {
                    let mut satisfied = true;
                    let mut snapshot = 0u64;
                    for w in 0..n {
                        let target = gate_target(w, d, c, n, iters);
                        let have = ctx.shared.posts[w as usize].0.load(Ordering::Acquire);
                        snapshot = snapshot.wrapping_add(have);
                        if have < target {
                            satisfied = false;
                        }
                    }
                    if satisfied {
                        break 'gate;
                    }
                    // Any frontier movement resets the watchdog window;
                    // a whole window with frozen frontiers is a stall.
                    if last_snapshot != Some(snapshot) {
                        last_snapshot = Some(snapshot);
                        window_start = Instant::now();
                    }
                    if waited.is_none() {
                        waited = Some(Instant::now());
                    }
                    spins = spins.wrapping_add(1);
                    if spins.is_multiple_of(64) {
                        if ctx.should_halt() {
                            break 'gate;
                        }
                        std::thread::yield_now();
                        if let Some(w) = watchdog {
                            if window_start.elapsed() >= w {
                                ctx.shared.record_fault(StageFault {
                                    thread: me,
                                    chunk: c_idx,
                                    message: format!(
                                        "post/wait gate for iteration {j} saw no frontier \
                                         movement for {w:?}"
                                    ),
                                    torn: false,
                                    stall: Some(w),
                                });
                                break 'gate;
                            }
                        }
                    }
                    std::hint::spin_loop();
                }
                if let Some(t0) = waited {
                    ws.stats.stall_ns += t0.elapsed().as_nanos();
                }
                if ctx.shared.halt.load(Ordering::Acquire) {
                    break;
                }
            }
            let it = j..j + 1;
            // SAFETY: the gate proves every aliasing predecessor
            // committed (visible via Acquire); successors within `lag`
            // have disjoint single-iteration footprints.
            let journaled = match unsafe { ctx.capture(kernel, it.clone(), &mut ws) } {
                Some(jn) => jn,
                None => break,
            };
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: iteration j is exclusively ours; the gate's
                // Acquire loads give happens-before from every
                // committed dependence.
                unsafe { kernel.execute(it.clone()) }
            }));
            let exec = t0.elapsed().as_nanos();
            ws.stats.exec_ns += exec;
            chunk_exec += exec;
            match r {
                Ok(()) => {
                    // Publish the committed frontier: everything below
                    // j + 1 that we own is now visible.
                    ctx.shared.posts[ctx.me].0.store(j + 1, Ordering::Release);
                    committed_to = j + 1;
                }
                Err(payload) => {
                    let rolled = if journaled {
                        // SAFETY: iteration j is still exclusively ours.
                        unsafe { ctx.rollback_last(kernel, &mut ws, &it) }
                    } else {
                        None
                    };
                    if let Some(bytes) = rolled {
                        ws.events.push(FaultEvent::ChunkRolledBack {
                            thread: me,
                            chunk: c_idx,
                            bytes,
                        });
                    }
                    let torn = rolled.is_none() && !kernel.panics_before_mutation();
                    ctx.shared.record_fault(StageFault {
                        thread: me,
                        chunk: c_idx,
                        message: crate::runner::panic_message(payload.as_ref()),
                        torn,
                        stall: None,
                    });
                    break;
                }
            }
        }
        if committed_to > range.start {
            ws.committed.push(range.start..committed_to);
        }
        if committed_to == range.end {
            ws.stats.chunks += 1;
            ws.stats.chunk_exec.record(chunk_exec as u64);
        } else {
            break 'chunks;
        }
    }
    ws.stats.wall_ns = t_stage.elapsed().as_nanos();
    ws
}

/// Execute `gaps` (ascending) on the supervisor thread with per-gap
/// undo capture and a single retry, so a second pending injected fault
/// degrades to a typed error instead of unwinding through the scope.
/// Ascending order satisfies every carried lag trivially: all of a
/// gap's dependences are committed or salvaged before it runs.
fn salvage_ranges<K: RealKernel>(
    kernel: &K,
    gaps: &[Range<u64>],
    supervisor: u64,
    iters_per_chunk: u64,
    faults: &mut Vec<FaultEvent>,
) -> Result<(), RunError> {
    for gap in gaps {
        let mut attempts = 0u32;
        loop {
            let mut buf = Vec::new();
            // SAFETY: every worker joined the end barrier — the
            // supervisor is the only executor, so a transient capture
            // of the gap's footprint cannot race anything.
            let captured = unsafe { kernel.journal_capture(gap.clone(), &mut buf) };
            let r = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: exclusive access (see above).
                unsafe { kernel.execute(gap.clone()) }
            }));
            match r {
                Ok(()) => break,
                Err(payload) => {
                    let chunk = gap.start / iters_per_chunk;
                    faults.push(FaultEvent::WorkerPanicked {
                        thread: supervisor,
                        chunk,
                        message: crate::runner::panic_message(payload.as_ref()),
                    });
                    if captured {
                        // SAFETY: exclusive access (see above).
                        unsafe { kernel.journal_rollback(gap.clone(), &buf) };
                        faults.push(FaultEvent::ChunkRolledBack {
                            thread: supervisor,
                            chunk,
                            bytes: buf.len() as u64,
                        });
                    } else if !kernel.panics_before_mutation() {
                        return Err(RunError::WorkerPanicked {
                            thread: supervisor,
                            chunk,
                        });
                    }
                    attempts += 1;
                    if attempts > 1 {
                        return Err(RunError::WorkerPanicked {
                            thread: supervisor,
                            chunk,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Ascending complement of `committed` within `0..iters`.
fn uncommitted_gaps(committed: &mut [Range<u64>], iters: u64) -> Vec<Range<u64>> {
    committed.sort_by_key(|r| r.start);
    let mut gaps = Vec::new();
    let mut cur = 0u64;
    for r in committed.iter() {
        if r.start > cur {
            gaps.push(cur..r.start);
        }
        cur = cur.max(r.end);
    }
    if cur < iters {
        gaps.push(cur..iters);
    }
    gaps
}

/// Execute a [`TransformPlan`]'s partition on real threads: one kernel
/// per sub-loop (in partition order, e.g. from [`fission_specs`]
/// materialized through [`crate::SpecProgram`]), with `Parallel`
/// sub-loops run as DOALL, `DoAcross` sub-loops as pipelined post/wait
/// stages, and `Sequential` sub-loops cascaded via
/// [`try_run_governed`]. The result is bitwise-identical to running
/// the sub-loops sequentially in plan order — which the plan's replay
/// oracle has already proved bitwise-identical to the original loop.
///
/// Governance composes: the shared
/// [`CancelToken`](crate::govern::CancelToken) and deadline drain
/// the pool at post/wait and chunk boundaries with journaled rollback
/// of the in-flight sub-loop, so governance errors carry a clean
/// `committed_iters` prefix **of the fissioned sequence** (completed
/// sub-loops count their full trip; the cancelled sub-loop is rolled
/// back to its start, or completed when unjournalable). Faults inside
/// a stage roll back the interrupted range and degrade the sub-loop to
/// sequential salvage under a salvaging/retrying
/// [`Tolerance`](crate::runner::Tolerance), or
/// surface as typed errors under fail-fast.
///
/// Durable checkpoints are not supported in plan mode
/// (`InvalidConfig`); helper policies are inapplicable (planned stages
/// have no token waits) and ignored.
pub fn try_run_planned<K: RealKernel>(
    kernels: &[K],
    plan: &TransformPlan,
    cfg: &RunConfig,
) -> Result<PlannedStats, RunError> {
    cfg.try_validate()?;
    validate(&cfg.runner)?;
    if !matches!(cfg.ckpt, CkptPolicy::Off) {
        return Err(RunError::InvalidConfig(
            "durable checkpoints are not supported in plan mode; use --mode cascade".into(),
        ));
    }
    if kernels.is_empty() {
        return Err(RunError::InvalidConfig("no sub-loop kernels".into()));
    }
    if kernels.len() != plan.partition.len() {
        return Err(RunError::InvalidConfig(format!(
            "{} kernels for a partition of {} sub-loops",
            kernels.len(),
            plan.partition.len()
        )));
    }
    for (g, sub) in plan.partition.iter().enumerate() {
        if let Schedule::DoAcross { lag } = sub.schedule {
            if lag < 2 {
                return Err(RunError::InvalidConfig(format!(
                    "sub-loop {g}: DoAcross lag {lag} < 2 (lag 1 is Sequential)"
                )));
            }
        }
    }

    let _governor = cfg.deadline.map(|d| Governor::arm(&cfg.cancel, d));
    let n = cfg.runner.nthreads;
    let shared = StageShared::new(n);
    let barrier = FtBarrier::new(n + 1);
    let schedules: Vec<Schedule> = plan.partition.iter().map(|s| s.schedule).collect();
    let journaling: Vec<bool> = kernels.iter().map(|k| k.journal_range_exact()).collect();
    let start = Instant::now();

    std::thread::scope(|scope| {
        for me in 0..n {
            let shared = &shared;
            let barrier = &barrier;
            let schedules = &schedules;
            let journaling = &journaling;
            scope.spawn(move || {
                for (g, sched) in schedules.iter().enumerate() {
                    if barrier.wait() == BarrierOutcome::Poisoned {
                        return;
                    }
                    let ctx = StageCtx {
                        me,
                        nthreads: n,
                        shared,
                        cfg,
                        journaling: journaling[g],
                    };
                    let ws = match sched {
                        Schedule::Sequential => WorkerStage::default(),
                        Schedule::Parallel => {
                            let r = catch_unwind(AssertUnwindSafe(|| run_doall(&ctx, &kernels[g])));
                            r.unwrap_or_else(|payload| {
                                shared.record_fault(StageFault {
                                    thread: me as u64,
                                    chunk: 0,
                                    message: crate::runner::panic_message(payload.as_ref()),
                                    torn: true,
                                    stall: None,
                                });
                                WorkerStage::default()
                            })
                        }
                        Schedule::DoAcross { lag } => {
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                run_doacross(&ctx, &kernels[g], *lag)
                            }));
                            r.unwrap_or_else(|payload| {
                                shared.record_fault(StageFault {
                                    thread: me as u64,
                                    chunk: 0,
                                    message: crate::runner::panic_message(payload.as_ref()),
                                    torn: true,
                                    stall: None,
                                });
                                WorkerStage::default()
                            })
                        }
                    };
                    *lock_recover(&shared.slots[me]) = Some(ws);
                    if barrier.wait() == BarrierOutcome::Poisoned {
                        return;
                    }
                }
            });
        }

        // ------------------------- supervisor -------------------------
        let mut sub_stats: Vec<SubLoopStats> = Vec::with_capacity(kernels.len());
        let mut faults: Vec<FaultEvent> = Vec::new();
        let mut degraded = false;
        let mut prior_iters = 0u64;

        let fail = |e: RunError| -> Result<PlannedStats, RunError> {
            barrier.poison();
            Err(e)
        };

        for (g, sched) in schedules.iter().enumerate() {
            let kernel = &kernels[g];
            let iters = kernel.iters();
            // Governance check between sub-loops.
            if cfg.cancel.is_cancelled() {
                cfg.cancel.note_observed();
                return fail(cancel_error(&cfg.cancel, prior_iters));
            }
            // Reset stage state; the start barrier publishes it.
            for p in &shared.posts {
                p.0.store(0, Ordering::Release);
            }
            shared.halt.store(false, Ordering::Release);
            shared.unjournaled.store(false, Ordering::Release);
            *lock_recover(&shared.fault) = None;
            if barrier.wait() == BarrierOutcome::Poisoned {
                return Err(RunError::InvalidConfig("barrier poisoned".into()));
            }

            if matches!(sched, Schedule::Sequential) {
                // Cascade the residue with the token runtime, under this
                // run's whole configuration but for the deadline, which
                // the planned-level governor owns (checkpoints are off,
                // validated above). Verification rides the token cascade:
                // the residue's handoffs are verified; DOALL/DOACROSS
                // stages have no sequential handoff to checksum.
                let sub_cfg = RunConfig {
                    deadline: None,
                    ..cfg.clone()
                };
                let sub_start_ns = start.elapsed().as_nanos() as u64;
                let res = try_run_governed(kernel, &sub_cfg);
                if barrier.wait() == BarrierOutcome::Poisoned {
                    return Err(RunError::InvalidConfig("barrier poisoned".into()));
                }
                // Drain worker slots (they are empty for Sequential).
                for s in &shared.slots {
                    lock_recover(s).take();
                }
                match res {
                    Ok(mut stats) => {
                        // The residue stamps its events from its own start:
                        // move them onto the planned run's clock.
                        for e in stats.threads.iter_mut().flat_map(|t| &mut t.events) {
                            e.start_ns += sub_start_ns;
                            e.end_ns += sub_start_ns;
                        }
                        degraded |= stats.degraded;
                        faults.extend(stats.faults.iter().cloned());
                        sub_stats.push(SubLoopStats {
                            index: g,
                            schedule: *sched,
                            iters,
                            chunks: stats.chunks,
                            post_waits: 0,
                            post_wait_stall_ns: 0,
                            degraded: stats.degraded,
                            threads: Vec::new(),
                            run: Some(stats),
                        });
                        prior_iters += iters;
                        continue;
                    }
                    Err(e) => return fail(e.rebased(prior_iters)),
                }
            }

            // Parallel / DoAcross: the pool executed while we waited.
            if barrier.wait() == BarrierOutcome::Poisoned {
                return Err(RunError::InvalidConfig("barrier poisoned".into()));
            }
            let mut stages: Vec<WorkerStage> = shared
                .slots
                .iter()
                .map(|s| lock_recover(s).take().unwrap_or_default())
                .collect();
            let fault = lock_recover(&shared.fault).take();
            let mut committed: Vec<Range<u64>> =
                stages.iter().flat_map(|ws| ws.committed.clone()).collect();
            // Worker-local events (rollbacks) precede the outcome ones.
            for ws in &mut stages {
                faults.append(&mut ws.events);
            }
            let release_stage_journals = |stages: &mut Vec<WorkerStage>| {
                for ws in stages.iter_mut() {
                    for e in ws.journals.drain(..) {
                        cfg.budget.release(e.reserved);
                    }
                }
            };

            let mut stage_degraded = false;
            if let Some(f) = fault {
                let typed = match f.stall {
                    Some(waited) => {
                        faults.push(FaultEvent::StallDeclared {
                            chunk: f.chunk,
                            waited,
                        });
                        RunError::Stalled {
                            chunk: f.chunk,
                            waited,
                        }
                    }
                    None => {
                        faults.push(FaultEvent::WorkerPanicked {
                            thread: f.thread,
                            chunk: f.chunk,
                            message: f.message.clone(),
                        });
                        RunError::WorkerPanicked {
                            thread: f.thread,
                            chunk: f.chunk,
                        }
                    }
                };
                if f.torn {
                    release_stage_journals(&mut stages);
                    return fail(typed);
                }
                let tol = &cfg.tolerance;
                if !(tol.salvage || tol.retry.is_some()) {
                    release_stage_journals(&mut stages);
                    return fail(typed);
                }
                // Sequential salvage of the uncommitted remainder, in
                // ascending order: every remaining iteration's
                // dependences are committed or salvaged before it.
                let gaps = uncommitted_gaps(&mut committed, iters);
                let salvaged: u64 = gaps.iter().map(|r| r.end - r.start).sum();
                if salvaged > 0 {
                    let from_chunk = gaps[0].start / cfg.runner.iters_per_chunk;
                    if let Err(e) = salvage_ranges(
                        kernel,
                        &gaps,
                        n as u64,
                        cfg.runner.iters_per_chunk,
                        &mut faults,
                    ) {
                        release_stage_journals(&mut stages);
                        return fail(e);
                    }
                    faults.push(FaultEvent::Salvaged {
                        from_chunk,
                        iters: salvaged,
                    });
                }
                stage_degraded = true;
                degraded = true;
            } else if cfg.cancel.is_cancelled() {
                cfg.cancel.note_observed();
                if journaling[g] && !shared.unjournaled.load(Ordering::Acquire) {
                    // Roll the whole stage back, newest range first:
                    // the arena returns to the exact sub-loop entry
                    // state, and committed_iters stays the prefix of
                    // completed sub-loops.
                    let mut entries: Vec<JournalEntry> = stages
                        .iter_mut()
                        .flat_map(|ws| ws.journals.drain(..))
                        .collect();
                    entries.sort_by_key(|e| e.range.start);
                    for e in entries.iter().rev() {
                        // SAFETY: all workers joined via the barrier;
                        // exclusive access, descending restore order.
                        unsafe { kernel.journal_rollback(e.range.clone(), &e.buf) };
                    }
                    for e in entries {
                        cfg.budget.release(e.reserved);
                    }
                    return fail(cancel_error(&cfg.cancel, prior_iters));
                }
                // Unjournalable stage: complete it instead (the
                // cascade's unjournalable-chunk rule, lifted to a
                // stage), then report the cancel with the stage
                // counted as committed.
                let gaps = uncommitted_gaps(&mut committed, iters);
                if let Err(e) = salvage_ranges(
                    kernel,
                    &gaps,
                    n as u64,
                    cfg.runner.iters_per_chunk,
                    &mut faults,
                ) {
                    release_stage_journals(&mut stages);
                    return fail(e);
                }
                release_stage_journals(&mut stages);
                return fail(cancel_error(&cfg.cancel, prior_iters + iters));
            }

            release_stage_journals(&mut stages);
            let threads: Vec<PlannedThread> = stages.iter().map(|ws| ws.stats.clone()).collect();
            sub_stats.push(SubLoopStats {
                index: g,
                schedule: *sched,
                iters,
                chunks: threads.iter().map(|t| t.chunks).sum(),
                post_waits: threads.iter().map(|t| t.post_waits).sum(),
                post_wait_stall_ns: threads.iter().map(|t| t.stall_ns).sum(),
                degraded: stage_degraded,
                threads,
                run: None,
            });
            prior_iters += iters;
        }

        let chunks = sub_stats.iter().map(|s| s.chunks).sum();
        Ok(PlannedStats {
            elapsed: start.elapsed(),
            iters: prior_iters,
            chunks,
            sub_loops: sub_stats,
            faults,
            degraded,
            cancel_latency_ns: cfg.cancel.latency().map_or(0, |d| d.as_nanos() as u64),
            budget_high_water: cfg.budget.high_water(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doall_split_covers_every_chunk_exactly_once() {
        for n in 1..=5usize {
            for m in [0u64, 1, 3, 7, 16] {
                let mut seen = vec![0u32; m as usize];
                for t in 0..n as u64 {
                    let lo = t * m / n as u64;
                    let hi = (t + 1) * m / n as u64;
                    for c in lo..hi {
                        seen[c as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&s| s == 1), "n={n} m={m}: {seen:?}");
            }
        }
    }

    #[test]
    fn gate_target_covers_every_owned_iteration_at_or_below_d() {
        let (c, n, iters) = (4u64, 3u64, 40u64);
        for d in 0..iters {
            for w in 0..n {
                let target = gate_target(w, d, c, n, iters);
                // target is the smallest frontier proving every w-owned
                // iteration <= d committed: check by brute force.
                let owned_at_or_below: Vec<u64> = (0..=d).filter(|i| (i / c) % n == w).collect();
                let needed = owned_at_or_below.last().map_or(0, |&i| i + 1);
                assert!(
                    target >= needed,
                    "w={w} d={d}: target {target} < needed {needed}"
                );
                // And target never demands an iteration above iters or
                // beyond what in-order execution can satisfy.
                assert!(target <= iters.max(d + 1), "w={w} d={d}: target {target}");
            }
        }
    }

    #[test]
    fn doacross_order_with_the_legal_window_is_a_permutation_respecting_lag() {
        for (iters, c, n, lag) in [(24u64, 4u64, 3usize, 2u64), (17, 3, 2, 3), (12, 6, 4, 2)] {
            let order = doacross_order(iters, c, n, lag);
            assert_eq!(order.len(), iters as usize);
            let mut pos = vec![usize::MAX; iters as usize];
            for (at, &j) in order.iter().enumerate() {
                assert_eq!(pos[j as usize], usize::MAX, "iteration {j} twice");
                pos[j as usize] = at;
            }
            // Every dependence at distance >= lag is respected.
            for j in lag..iters {
                for d in lag..=j {
                    assert!(
                        pos[(j - d) as usize] < pos[j as usize],
                        "iters={iters} c={c} n={n} lag={lag}: {} after {j}",
                        j - d
                    );
                }
            }
        }
    }

    #[test]
    fn doacross_order_with_one_fewer_commit_demanded_breaks_the_lag() {
        // window = lag + 1 demands one predecessor commit fewer; the
        // greedy-max schedule then runs iteration `lag` before 0.
        let (iters, c, n, lag) = (16u64, 3u64, 2usize, 3u64);
        let order = doacross_order(iters, c, n, lag + 1);
        let mut pos = vec![usize::MAX; iters as usize];
        for (at, &j) in order.iter().enumerate() {
            pos[j as usize] = at;
        }
        let violated = (lag..iters).any(|j| pos[(j - lag) as usize] > pos[j as usize]);
        assert!(
            violated,
            "the lax window must admit a lag violation: {order:?}"
        );
    }
}
