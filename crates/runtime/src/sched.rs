//! Plan-driven execution: run a [`TransformPlan`]'s partition on real
//! threads. Every sub-loop is one stage of the cascade engine
//! ([`crate::runner`]), on the same workers and between the same
//! barriers as the loops of a sequence: DOALL sub-loops as chunks the
//! pool claims in ascending order, DOACROSS sub-loops as a pipelined
//! post/wait stage (`run_stage` runs both), and `Sequential` residues
//! cascaded with the token runtime exactly as a sequence's loops are —
//! except where a serial stage feeds a DOALL one, and the two run as a
//! pipelined pair with no barrier between them.
//!
//! ## DOALL: chunks claimed in order
//!
//! A DOALL worker claims its next chunk with one `fetch_add` on the
//! stage's padded claim cursor, so whichever worker is free takes the
//! lowest unclaimed chunk (a descheduled worker holds up one chunk, not
//! a static share), and posts nothing. It finishes every chunk it
//! claims, unless it *abandons* one (a budget refusal, or a panic in its
//! capture or body), which it records in its padded slot: the stage's
//! uncommitted chunks are the abandoned ones plus those from the cursor
//! on (`uncommitted`).
//!
//! ## The DOACROSS post/wait protocol
//!
//! Chunks are assigned round-robin (chunk `c` belongs to worker
//! `c % nthreads`); each worker executes its own chunks in ascending
//! order, each chunk as one `execute` call. Every worker publishes a
//! *committed frontier* in a cache-line-padded `AtomicU64`: `slots[w] =
//! f` means every iteration owned by `w` below `f` is committed (workers
//! commit in order, so one counter suffices). The store is `Release`,
//! issued once per chunk, after the chunk's writes.
//!
//! Iteration `j` of a sub-loop with carried lag `L` may only start once
//! **every** iteration `≤ j − L` is committed (all carried dependences
//! span at least `L` iterations). A chunk `[s, e)` passes **one gate**,
//! before its first iteration: every iteration `≤ min(e − 1 − L, s − 1)`
//! must be committed (`chunk_gate_dep`). That is the furthest-back
//! read of the chunk's last iteration, and the part of any iteration's
//! window that lies inside the chunk runs earlier in the same call. The
//! gate spins with `Acquire` loads until, for every worker `w`,
//! `slots[w]` covers the last `w`-owned iteration at or below that
//! dependence (`gate_open`) — checking only the single counter owning
//! it would admit the chunk while an *older* chunk's tail is still
//! uncommitted (the classic DOACROSS off-by-a-chunk bug; the model in
//! the test-only `check` module calls the same two functions and
//! catches exactly this family). The Release store / Acquire load pair makes every
//! committed chunk's writes visible before the gated chunk reads them.
//!
//! When `L` is at most the chunk length the gate asks for the whole
//! prefix, so chunks run one after another with one handoff each. A
//! gate per iteration would overlap only `L` iterations per chunk, and
//! pay for them with a cross-core frontier load and store, two clock
//! reads and an unwind guard on every iteration. When `L` exceeds the
//! chunk length, chunks overlap as far as the lag allows.
//! Either way, iterations that run concurrently are fewer than `L`
//! apart, so no dependence of any kind connects them.
//!
//! Governance (cancel/deadline/budget) is polled inside gate spins and
//! at chunk boundaries, never inside a chunk: a worker finishes every
//! chunk it starts. A watchdog window declares a stall when a gate sees
//! no frontier movement for the whole window.
//!
//! ## Pipelined pairs
//!
//! Plan order puts a stage after every stage it depends on, so a
//! barrier between two stages is always safe, but it idles the pool
//! while a serial stage runs: a lag-1 residue whose helper has nothing
//! to do runs no faster cascaded than on one worker. So
//! `try_run_planned` decides once at entry (`pipelined`) to run a
//! *serial* stage and the `Parallel` stage right after it as a pair,
//! when the run arms neither retry nor verification (neither has a
//! protocol for a stage that shares its time with another), and hands the
//! decision to the engine (`run_stages`). A stage is serial when one worker can run it
//! at the pool's speed: a `Sequential` stage whose helper has nothing to
//! do (policy `None`, or a helper horizon of at most one chunk, which no
//! helper can look past), or a `DoAcross` stage whose lag is at most one
//! chunk, whose every gate already asks for the whole prefix.
//!
//! Worker 0 runs the producer plain, through the same chunk transaction,
//! as a DOACROSS stage with one owner: it posts its frontier (`Release`)
//! after every chunk, and no token passes. Every other worker goes
//! straight on to the consumer and claims its chunks from the DOALL
//! cursor; worker 0 joins when the producer is done, and the pair ends at
//! one barrier. A consumer chunk `[s, e)` waits in the gate for the
//! producer's frontier to reach `e` (`consumer_gate_dep` = `e − 1`,
//! through `gate_open` with one owner). The gate distance is 0 because
//! every cross-partition edge runs forward: consumer iteration `i`
//! depends only on producer iterations `≤ i` (a dependence from a
//! consumer iteration to a later producer one would be a backward edge
//! the plan's topological order excludes). For the same reason a
//! producer chunk and the consumer chunks running beside it — all below
//! its start — touch no common byte, and both journal per chunk as split
//! stages do. The gate spins, polls governance, yields and runs the
//! watchdog as a DOACROSS gate does, and also halts when the producer is
//! poisoned.
//!
//! A fault in the producer drains both stages; one in the consumer
//! drains the consumer and lets the producer run to its end, and a cancel
//! reaches both. The degraded path salvages in ascending order: the
//! producer's uncommitted chunks, then the consumer's, then every later
//! stage. A cancel keeps the single `committed_iters` contract: a
//! consumer may read-modify-write, so once it has committed a chunk
//! (`prefix_in_consumer`), the calling thread runs the producer's
//! uncommitted chunks and then the consumer's holes, and the prefix lies
//! at the consumer's first uncommitted suffix chunk; otherwise it lies in
//! the producer. The model in the test-only `check` module explores the
//! pair through `gate_open`, `consumer_gate_dep`, `uncommitted` and
//! `prefix_in_consumer`.
//!
//! ## One chunk transaction
//!
//! A split chunk runs the cascade's chunk transaction, through the same
//! functions of [`crate::runner`]: under the cascade's capture rule
//! (`captures`), a guarded, budget-metered journal capture into the
//! worker's run-long buffer, the body, and on a panic a guarded restore
//! and the one panic record, which names the chunk and poisons the
//! stage's token as a cascaded fault does. The pool drains and the engine's one degraded path
//! salvages the uncommitted chunks, then every later stage, sequentially
//! (ascending order satisfies every lag trivially), or returns the typed
//! error. The phase clock is a cascaded worker's too: capture and body
//! are Execute, a gate wait is Spin, fault handling is Retry and the rest
//! Other, and `Observe` events cover split stages.
//!
//! Planned stages execute concurrently, so a chunk-granular capture could
//! read bytes another worker is writing. Split chunks capture only when
//! the kernel's write footprints are *range-exact*
//! ([`RealKernel::journal_range_exact`]): each footprint covers exactly
//! the bytes the range writes, so disjoint ranges have disjoint
//! journals. Both stage kinds capture per chunk: DOALL iterations are
//! independent, and concurrent DOACROSS iterations sit closer than `L`
//! while aliasing write sets lie at least `L` apart, so a capture never
//! races a writer. The journal serves only the chunk's own rollback.
//!
//! A cancelled split stage keeps what it committed. Its uncommitted
//! chunks below its highest committed one are *holes* (`Pending`): the
//! degraded path runs them in ascending order on the calling thread, and
//! the error's prefix ends at the first chunk above them. A DOALL stage
//! leaves a hole only where a worker abandoned a chunk, a DOACROSS stage
//! only when `L` exceeds the chunk length, and then every hole lies above
//! each committed chunk's gate dependence: no dependence links the two.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cascade_analyze::plan::{Schedule, TransformPlan};
use cascade_core::{CascadeMetrics, ChunkPlan, PhaseKind};
use cascade_trace::LoopSpec;

use crate::govern::RunConfig;
use crate::kernel::RealKernel;
use crate::metrics::PhaseRecorder;
use crate::runner::{
    captures, chunk_panicked, governed_wait, halted, journal_chunk, roll_back_chunk, run_stages,
    FaultEvent, FtRun, RtPolicy, RunError, RunStats, ThreadStats, Waiter,
};

/// A counter on its own cache line, so one worker's stores never
/// false-share with a neighbour's loads.
// Atomics justification (scripts/lint_atomics.sh): slots are stored
// with `Release` and loaded with `Acquire`, the happens-before edge that
// makes a DOACROSS chunk's writes (and a pipelined producer's) visible
// to gated readers. The DOALL claim cursor's `fetch_add` is `Relaxed`: it
// only hands out indices, and the stage's end barrier or the join orders
// the chunks' writes.
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
/// in-order execution within each worker, one gate per chunk, frontiers
/// posted at chunk ends) and, at every step, execute the **largest**
/// admissible next iteration across all workers.
///
/// A chunk's gate opens once every iteration `≤ min(end − 1 − window,
/// start − 1)` is committed (the runtime's `chunk_gate_dep`). `window` equal to the
/// sub-loop's carried lag is the legal protocol: the returned order is
/// then provably dependence-respecting, and replaying it must be
/// bitwise-identical to ascending order. `window = lag + 1` demands one
/// predecessor commit *fewer* — the "wait for `lag − 1`" off-by-one —
/// and wherever a chunk is shorter than the lag the greedy-max
/// scheduler exploits it, yielding an order that runs a reader before
/// its writer. (Where chunks are at least as long as the lag, either
/// window demands the whole prefix.) The lag-violation regression test
/// replays both through the real interpreter.
pub fn doacross_order(iters: u64, iters_per_chunk: u64, workers: usize, window: u64) -> Vec<u64> {
    assert!(workers >= 1 && iters_per_chunk >= 1);
    let (c, n) = (iters_per_chunk, workers as u64);
    let m = iters.div_ceil(c);
    // Per worker: its current chunk (exhausted once `>= m`), the next
    // iteration in it, whether its gate has opened, and its frontier.
    let mut chunk: Vec<u64> = (0..n).collect();
    let mut next: Vec<u64> = (0..n).map(|w| w * c).collect();
    let mut admitted = vec![false; workers];
    let mut posts = vec![0u64; workers];
    let mut order = Vec::with_capacity(iters as usize);
    while order.len() < iters as usize {
        // Largest admissible next iteration wins — the schedule a
        // too-lax gate allows and an adversarial machine would pick.
        let mut pick: Option<usize> = None;
        for w in 0..workers {
            if chunk[w] >= m {
                continue;
            }
            let range = chunk_range(chunk[w], c, iters);
            let open = admitted[w]
                || chunk_gate_dep(&range, window)
                    .is_none_or(|d| gate_open(d, c, iters, n, |v| posts[v as usize]));
            if open && pick.is_none_or(|p| next[w] > next[p]) {
                pick = Some(w);
            }
        }
        let w = pick.expect("the oldest uncommitted chunk's gate is always open");
        let j = next[w];
        order.push(j);
        admitted[w] = true;
        let end = chunk_range(chunk[w], c, iters).end;
        if j + 1 < end {
            next[w] = j + 1;
        } else {
            posts[w] = end;
            chunk[w] += n;
            next[w] = chunk[w] * c;
            admitted[w] = false;
        }
    }
    order
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
    /// Chunks committed by the worker pool (through the token runtime
    /// for a `Sequential` sub-loop). Salvaged iterations are not chunked.
    pub chunks: u64,
    /// Structural post/wait count of a DOACROSS sub-loop: the iterations
    /// whose lag dependence lies in an earlier chunk, which the chunks'
    /// gates stand for (0 for the other schedules).
    pub post_waits: u64,
    /// Whether a fault degraded this sub-loop to sequential salvage.
    pub degraded: bool,
    /// Per-worker statistics of a sub-loop that ran split — `Parallel`,
    /// `DoAcross`, or a `Sequential` one run plain as a pipelined
    /// producer — on the same phase clock as a cascaded stage's workers:
    /// journal capture and chunk body are Execute, gate spins are Spin,
    /// fault handling is Retry, the rest is Other, and `wall_ns` is the
    /// worker's whole stage share. A pipelined producer's chunks are all
    /// worker 0's. Empty for a cascaded sub-loop, whose workers report in
    /// `run`.
    pub threads: Vec<ThreadStats>,
    /// The token runtime's stats for a cascaded `Sequential` sub-loop
    /// (`None` for one run plain as a pipelined producer).
    pub run: Option<RunStats>,
    /// The producer sub-loop this one ran beside as a pipelined consumer
    /// (`None` when it ran between barriers).
    pub pipelined_after: Option<usize>,
    /// A pipelined consumer's Execute time before its producer finished,
    /// over its workers, at chunk granularity: a chunk that committed
    /// while the producer was still running counts whole, one that
    /// straddles its end not at all. Its gate waits are its workers' Spin
    /// ([`PlannedStats::post_wait_stall_ns`]). Zero outside a pair.
    pub overlap: Duration,
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

impl PlannedStats {
    /// Total structural post/wait gate count across all sub-loops.
    pub fn post_waits(&self) -> u64 {
        self.sub_loops.iter().map(|s| s.post_waits).sum()
    }

    /// Total nanoseconds blocked in gate spins: DOACROSS post/wait gates
    /// and pipelined consumers' gates on their producers.
    pub fn post_wait_stall_ns(&self) -> u128 {
        self.sub_loops
            .iter()
            .flat_map(|s| &s.threads)
            .map(|t| t.spin_ns)
            .sum()
    }

    /// The observability report, in the same [`CascadeMetrics`] schema
    /// as cascaded and simulated runs: each worker's stats summed over
    /// every sub-loop (so the exact phase partition
    /// `helper + spin + exec + retry + other == wall` carries over), with
    /// the planned side counters (`sub_loops`, `post_waits`,
    /// `post_wait_stall`) alongside.
    pub fn metrics(&self) -> CascadeMetrics {
        let mut threads: Vec<ThreadStats> = Vec::new();
        for sub in &self.sub_loops {
            let lanes = sub.run.as_ref().map_or(&sub.threads, |r| &r.threads);
            if threads.len() < lanes.len() {
                threads.resize_with(lanes.len(), ThreadStats::default);
            }
            for (ts, s) in threads.iter_mut().zip(lanes) {
                merge(ts, s);
            }
        }
        let rs = RunStats {
            elapsed: self.elapsed,
            chunks: self.chunks,
            iters: self.iters,
            threads,
            degraded: self.degraded,
            faults: Vec::new(),
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

/// Add one worker's stats for a sub-loop into its run-wide total.
fn merge(into: &mut ThreadStats, s: &ThreadStats) {
    into.chunks += s.chunks;
    into.helper_iters += s.helper_iters;
    into.helper_complete += s.helper_complete;
    into.exec_ns += s.exec_ns;
    into.helper_ns += s.helper_ns;
    into.spin_ns += s.spin_ns;
    into.retry_ns += s.retry_ns;
    into.other_ns += s.other_ns;
    into.wall_ns += s.wall_ns;
    into.jump_outs += s.jump_outs;
    into.horizon_stalls += s.horizon_stalls;
    into.packed_bytes += s.packed_bytes;
    into.prefetched_bytes += s.prefetched_bytes;
    into.handoffs += s.handoffs;
    into.rollbacks += s.rollbacks;
    into.journal_bytes += s.journal_bytes;
    into.journal_ns += s.journal_ns;
    into.ckpt_count += s.ckpt_count;
    into.ckpt_bytes += s.ckpt_bytes;
    into.ckpt_ns += s.ckpt_ns;
    into.verified_chunks += s.verified_chunks;
    into.helper_audits += s.helper_audits;
    into.verify_ns += s.verify_ns;
    into.overlap_ns += s.overlap_ns;
    into.events_dropped += s.events_dropped;
    into.events.extend_from_slice(&s.events);
    into.takeover.merge(&s.takeover);
    into.chunk_exec.merge(&s.chunk_exec);
}

/// What the workers of a split stage share.
pub(crate) struct SplitState {
    /// Per owner: under DOACROSS its committed frontier (`slots[w] = f`:
    /// every chunk `w` owns below iteration `f` is committed); under DOALL
    /// one past the chunk it claimed and abandoned (0: none). A DOACROSS
    /// stage has one owner per worker, a pipelined producer one in all.
    slots: Vec<PadCounter>,
    /// DOALL: the next chunk to claim.
    cursor: PadCounter,
}

impl SplitState {
    pub(crate) fn new(owners: usize) -> Self {
        SplitState {
            slots: (0..owners).map(|_| PadCounter::default()).collect(),
            cursor: PadCounter::default(),
        }
    }

    /// The chunks of `plan` no worker committed under the stage's
    /// `schedule` ([`uncommitted`]; a `Sequential` stage here is a
    /// pipelined producer, DOACROSS with one owner). Exact once every
    /// worker has left the stage.
    pub(crate) fn uncommitted(&self, plan: &ChunkPlan, schedule: Schedule) -> Pending {
        let doacross = schedule != Schedule::Parallel;
        let n = self.slots.len() as u64;
        let cursor = self.cursor.0.load(Ordering::Acquire);
        uncommitted(plan, doacross, n, cursor, |w| self.slot(w))
    }

    /// Worker `w`'s slot.
    fn slot(&self, w: u64) -> u64 {
        self.slots[w as usize].0.load(Ordering::Acquire)
    }
}

/// A stage's uncommitted chunks, ascending, split at its highest
/// committed chunk: the first `holes` lie below it, the rest are the
/// suffix that runs to the stage's last chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pending {
    /// The uncommitted chunks, ascending.
    pub(crate) chunks: Vec<u64>,
    /// How many of `chunks` lie below a committed chunk.
    pub(crate) holes: usize,
}

impl Pending {
    /// Split `chunks`, the ascending uncommitted chunks of a stage of `m`.
    pub(crate) fn new(chunks: Vec<u64>, m: u64) -> Self {
        let top = chunks.iter().rev().zip((0..m).rev());
        let suffix = top.take_while(|&(&c, k)| c == k).count();
        let holes = chunks.len() - suffix;
        Pending { chunks, holes }
    }
}

/// The chunks of a split stage over `plan` that none of its `n` workers
/// committed, from what they left behind: under DOACROSS (`doacross`)
/// the chunks past their owners' frontiers (`slot(w)`); under DOALL the
/// chunks at or past the claim `cursor`, plus each worker's abandoned one
/// (`slot(w) = chunk + 1`).
pub(crate) fn uncommitted(
    plan: &ChunkPlan,
    doacross: bool,
    n: u64,
    cursor: u64,
    slot: impl Fn(u64) -> u64,
) -> Pending {
    let m = plan.num_chunks();
    let mut chunks: Vec<u64> = if doacross {
        (0..m)
            .filter(|&k| plan.range(k).end > slot(k % n))
            .collect()
    } else {
        let abandoned = (0..n).filter_map(|w| slot(w).checked_sub(1));
        abandoned.chain(cursor.min(m)..m).collect()
    };
    chunks.sort_unstable();
    Pending::new(chunks, m)
}

pub(crate) fn chunk_range(c_idx: u64, c: u64, iters: u64) -> Range<u64> {
    (c_idx * c)..((c_idx + 1) * c).min(iters)
}

/// The one dependence iteration the gate of chunk `range` waits for:
/// every iteration at or below it must be committed before the chunk
/// starts. The chunk's last iteration reads furthest back (`end − 1 −
/// lag`), and whatever of a window lies inside the chunk runs earlier
/// in the same call, so the gate never asks past `start − 1`. `None`
/// when no iteration of the chunk reads outside it.
pub(crate) fn chunk_gate_dep(range: &Range<u64>, lag: u64) -> Option<u64> {
    if range.start == 0 || range.end <= lag {
        return None;
    }
    Some((range.end - 1 - lag).min(range.start - 1))
}

/// The dependence iteration the gate of a pipelined consumer's chunk
/// `range` waits for in its producer: the chunk's last iteration. The
/// plan's cross-partition edges run forward, so consumer iteration `i`
/// needs exactly the producer iterations `≤ i`.
pub(crate) fn consumer_gate_dep(range: &Range<u64>) -> u64 {
    range.end - 1
}

/// Whether a cancelled pipelined pair reports its prefix in the consumer,
/// from the consumer's uncommitted chunks `consumer` out of `m`: it does
/// once the consumer has committed any chunk. A consumer may
/// read-modify-write, so a prefix inside the producer would have a resume
/// apply the consumer's committed chunks a second time; the degraded path
/// runs the producer to its end first instead.
pub(crate) fn prefix_in_consumer(consumer: &Pending, m: u64) -> bool {
    (consumer.chunks.len() as u64) < m
}

/// The pipelined pairs of a run, decided once at its start: `out[l]` is
/// whether stage `l` produces for stage `l + 1`. A pair is a *serial*
/// stage directly before a `Parallel` one of the same trip count, in a run
/// that arms neither retry nor verification. A stage is serial when one
/// worker could run it as fast as the pool: a `Sequential` stage whose
/// helper has nothing to do (policy `None`, or a helper horizon no longer
/// than a chunk, which no helper can look past), or a `DoAcross` stage
/// whose lag is at most a chunk, so every gate asks for the whole prefix.
pub(crate) fn pipelined<K: RealKernel>(
    kernels: &[K],
    schedules: &[Schedule],
    cfg: &RunConfig,
) -> Vec<bool> {
    let c = cfg.runner.iters_per_chunk;
    let armed = cfg.tolerance.retry.is_some() || cfg.verify.armed();
    let serial = |l: usize| match schedules[l] {
        Schedule::Sequential => {
            cfg.runner.policy == RtPolicy::None
                || kernels[l].helper_horizon().is_some_and(|lag| lag <= c)
        }
        Schedule::DoAcross { lag } => lag <= c,
        Schedule::Parallel => false,
    };
    (0..kernels.len())
        .map(|l| {
            !armed
                && schedules.get(l + 1) == Some(&Schedule::Parallel)
                && kernels[l].iters() == kernels[l + 1].iters()
                && serial(l)
        })
        .collect()
}

/// Whether a stage under `schedule` cascades through the token runtime:
/// a `Sequential` one that is not a pipelined `producer`. Every other
/// stage runs split ([`run_stage`]) and reports per-worker stats.
pub(crate) fn cascades(schedule: Schedule, producer: bool) -> bool {
    schedule == Schedule::Sequential && !producer
}

/// Iterations of chunk `range` whose lag-`lag` dependence lies in an
/// earlier chunk: the structural post/wait count its gate stands for.
fn crossing_deps(range: &Range<u64>, lag: u64) -> u64 {
    range
        .end
        .min(range.start + lag)
        .saturating_sub(range.start.max(lag))
}

/// Whether the committed frontiers (`frontier(w)` for each of `n`
/// workers owning round-robin chunks of `c`) prove every iteration
/// `≤ d` committed. Every worker's counter is checked: the owner of `d`
/// alone would miss an older chunk's uncommitted tail.
pub(crate) fn gate_open(d: u64, c: u64, iters: u64, n: u64, frontier: impl Fn(u64) -> u64) -> bool {
    (0..n).all(|w| frontier(w) >= gate_target(w, d, c, n, iters))
}

/// The frontier `slots[w]` must reach before every `w`-owned iteration
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

/// A chunk's gate: wait, in the [`governed_wait`], until the frontiers of
/// `source` (the stage's own, or a consumer's producer's) prove every
/// iteration `≤ d` committed. Any frontier movement re-arms the watchdog
/// window. Returns `false` when the stage must halt instead (cancel, a
/// fault in it or in its `producer`, or a watchdog-declared stall, which
/// poisons the token).
fn wait_committed(
    run: &FtRun,
    producer: Option<&FtRun>,
    source: &SplitState,
    cfg: &RunConfig,
    d: u64,
    chunk: u64,
    iters: u64,
) -> bool {
    let frontier = |w: u64| source.slot(w);
    let (c, n) = (cfg.runner.iters_per_chunk, source.slots.len() as u64);
    let open = || gate_open(d, c, iters, n, frontier).then_some(());
    let progress = || (0..n).map(frontier).fold(0, u64::wrapping_add);
    let waiter = Waiter::Gate { chunk };
    governed_wait(run, producer, cfg, waiter, open, progress).is_some()
        && !run.token.is_poisoned()
        && !producer.is_some_and(|p| p.token.is_poisoned())
}

/// Worker `t`'s share of a split stage of the engine, in ascending chunk
/// order: DOALL chunks claimed from the stage's cursor, DOACROSS chunks
/// round-robin over the stage's owners (a pipelined producer, `Sequential`
/// or `DoAcross`, has worker 0 as its one owner), each behind one gate
/// ([`chunk_gate_dep`]; a pipelined consumer's is [`consumer_gate_dep`]
/// on the frontier of its `producer` stage). Each chunk runs the
/// cascade's chunk transaction ([`journal_chunk`] into `jbuf`, the
/// worker's run-long journal buffer; the body; [`roll_back_chunk`] and
/// [`chunk_panicked`] on a panic). A DOACROSS chunk ends with one `Release` post of the
/// owner's frontier; a DOALL chunk the worker claimed but dropped is
/// recorded in its slot.
pub(crate) fn run_stage<K: RealKernel>(
    kernel: &K,
    cfg: &RunConfig,
    run: &FtRun,
    t: u64,
    schedule: Schedule,
    producer: Option<&FtRun>,
    jbuf: &mut Vec<u8>,
) -> ThreadStats {
    let lag = match schedule {
        Schedule::DoAcross { lag } => Some(lag),
        Schedule::Sequential => Some(1),
        Schedule::Parallel => None,
    };
    let iters = kernel.iters();
    let c = cfg.runner.iters_per_chunk;
    let n = run.split.slots.len() as u64;
    let m = iters.div_ceil(c);
    let journaling = captures(cfg) && kernel.journal_range_exact();
    let post = |v: u64| run.split.slots[t as usize].0.store(v, Ordering::Release);
    let mut owned = (if t < n { t } else { m }..m).step_by(n as usize);
    let mut phases = PhaseRecorder::new(run.origin, &cfg.observe);
    let mut stats = ThreadStats::default();
    // The chunk in flight until it commits: a DOALL chunk the worker drops
    // past its claim is named in its slot for the degraded path (a
    // DOACROSS one lies past its owner's frontier).
    let mut dropped = None;
    loop {
        if halted(run, producer, &cfg.cancel) {
            break;
        }
        let next = match lag {
            Some(_) => owned.next(),
            None => Some(run.split.cursor.0.fetch_add(1, Ordering::Relaxed)).filter(|&k| k < m),
        };
        let Some(c_idx) = next else { break };
        dropped = Some(c_idx);
        let range = chunk_range(c_idx, c, iters);
        let gate = match producer {
            Some(p) => Some((consumer_gate_dep(&range), &p.split)),
            None => lag.and_then(|lag| chunk_gate_dep(&range, lag).map(|d| (d, &run.split))),
        };
        if let Some((d, source)) =
            gate.filter(|&(d, s)| !gate_open(d, c, iters, s.slots.len() as u64, |w| s.slot(w)))
        {
            phases.transition(PhaseKind::Spin, Some(c_idx));
            let open = wait_committed(run, producer, source, cfg, d, c_idx, iters);
            phases.transition(PhaseKind::Other, Some(c_idx));
            if !open {
                break;
            }
        }
        phases.transition(PhaseKind::Execute, Some(c_idx));
        let journal = if journaling {
            // SAFETY: chunk ranges are disjoint across workers; any
            // iteration running concurrently with a DOACROSS chunk is
            // fewer than `lag` from all of it; and a pipelined consumer
            // runs only below its producer's frontier, where only a
            // backward edge, which plan order excludes, could link its
            // iterations to the producer's chunk in flight. So no write
            // aliases the chunk's range-exact footprint.
            unsafe { journal_chunk(kernel, cfg, run, range.clone(), jbuf, &mut stats) }
        } else {
            Ok(false)
        };
        let journaled = match journal {
            Ok(journaled) => journaled,
            Err(None) => break, // budget refusal cancelled the run
            Err(Some(payload)) => {
                // Capture only reads: the chunk is pristine.
                phases.transition(PhaseKind::Retry, Some(c_idx));
                run.token
                    .poison_with(chunk_panicked(run, t, c_idx, true, payload));
                break;
            }
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: no other worker executes this range. Previous
            // stages' writes are visible through the stage-start barrier;
            // the gate's Acquire loads give happens-before from every
            // committed dependence outside the chunk.
            unsafe { kernel.execute(range.clone()) }
        }));
        if let Err(payload) = r {
            phases.transition(PhaseKind::Retry, Some(c_idx));
            let pristine = if journaled {
                // SAFETY: the interrupted chunk is still exclusively ours;
                // its footprint is disjoint from live chunks, and `jbuf`
                // is the unmodified capture of this same range.
                unsafe { roll_back_chunk(kernel, run, t, c_idx, range, jbuf, &mut stats) }
            } else {
                kernel.panics_before_mutation()
            };
            run.token
                .poison_with(chunk_panicked(run, t, c_idx, pristine, payload));
            break;
        }
        let (_, exec) = phases.transition(PhaseKind::Other, Some(c_idx));
        dropped = None;
        if lag.is_some() {
            // Publish the committed frontier: every iteration we own
            // below the chunk's end is now visible.
            post(range.end);
        }
        if producer.is_some_and(|p| p.split.slot(0) < iters) {
            // Execute time the pair overlapped: the chunk committed while
            // its producer was still running.
            stats.overlap_ns += u128::from(exec);
        }
        stats.chunks += 1;
        stats.chunk_exec.record(exec);
    }
    if let (None, Some(k)) = (lag, dropped) {
        post(k + 1);
    }
    phases.finish(stats)
}

/// Execute a [`TransformPlan`]'s partition on real threads: one kernel
/// per sub-loop (in partition order, e.g. from [`fission_specs`]
/// materialized through [`crate::SpecProgram`]), each a stage of the
/// cascade engine, with `Parallel` sub-loops run as DOALL, `DoAcross`
/// sub-loops as pipelined post/wait stages, and `Sequential` sub-loops
/// cascaded as in [`crate::try_run_governed_sequence`]. A serial
/// sub-loop directly before a `Parallel` one of the same trip count —
/// `Sequential` with nothing for its helper to do, or `DoAcross` with a
/// lag of at most a chunk — instead runs plain on worker 0 while the
/// rest of the pool runs the `Parallel` one behind its committed
/// frontier, unless the run arms retry or verification (see the module
/// docs, "Pipelined pairs"); [`SubLoopStats::pipelined_after`] and
/// [`SubLoopStats::overlap`] report it. The result is bitwise-identical
/// to running the sub-loops sequentially in plan order — which the
/// plan's replay oracle has already proved bitwise-identical to the
/// original loop.
///
/// Governance composes: the shared
/// [`CancelToken`](crate::govern::CancelToken) and deadline drain
/// the pool at post/wait and chunk boundaries, and governance errors
/// carry a clean `committed_iters` prefix **of the fissioned sequence**.
/// Completed sub-loops count their full trip. A cancelled split sub-loop
/// keeps the chunks it committed: its holes, the uncommitted chunks below
/// its highest committed one, run on the calling thread, and the prefix
/// ends at its first chunk still uncommitted. In a pipelined pair whose
/// consumer has committed a chunk, the producer is first run to its end,
/// and the prefix lies in the consumer. A fault inside a
/// stage ends the run as a fault ends a sequence: under a salvaging
/// [`Tolerance`](crate::runner::Tolerance) the uncommitted remainder and
/// every later sub-loop run sequentially, otherwise it surfaces as a
/// typed error.
///
/// Durable checkpoints are not supported in plan mode
/// (`InvalidConfig`); helper policies apply to cascaded `Sequential`
/// sub-loops only (split stages have no token waits).
pub fn try_run_planned<K: RealKernel>(
    kernels: &[K],
    plan: &TransformPlan,
    cfg: &RunConfig,
) -> Result<PlannedStats, RunError> {
    if cfg.ckpt_sink.is_some() {
        return Err(RunError::InvalidConfig(
            "durable checkpoints are not supported in plan mode; use --mode cascade".into(),
        ));
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

    let schedules: Vec<Schedule> = plan.partition.iter().map(|s| s.schedule).collect();
    let producer = pipelined(kernels, &schedules, cfg);
    let start = Instant::now();
    let runs = run_stages(kernels, &schedules, &producer, cfg)?;
    let elapsed = start.elapsed();
    let ipc = cfg.runner.iters_per_chunk;
    let faults: Vec<FaultEvent> = runs.iter().flat_map(|r| r.faults.clone()).collect();
    let sub_loops: Vec<SubLoopStats> = runs
        .into_iter()
        .zip(schedules)
        .enumerate()
        .map(|(index, (mut run, schedule))| {
            let iters = run.iters;
            let post_waits = match schedule {
                Schedule::DoAcross { lag } => (0..iters.div_ceil(ipc))
                    .map(|c| crossing_deps(&chunk_range(c, ipc, iters), lag))
                    .sum(),
                _ => 0,
            };
            let chunks = run.threads.iter().map(|t| t.chunks).sum();
            let degraded = run.degraded;
            let overlap = run.threads.iter().map(|t| t.overlap_ns).sum::<u128>();
            let pipelined_after = index.checked_sub(1).filter(|&p| producer[p]);
            let (threads, run) = if cascades(schedule, producer[index]) {
                (Vec::new(), Some(run))
            } else {
                (std::mem::take(&mut run.threads), None)
            };
            SubLoopStats {
                index,
                schedule,
                iters,
                chunks,
                post_waits,
                degraded,
                threads,
                run,
                pipelined_after,
                overlap: Duration::from_nanos(overlap as u64),
            }
        })
        .collect();
    Ok(PlannedStats {
        elapsed,
        iters: sub_loops.iter().map(|s| s.iters).sum(),
        chunks: sub_loops.iter().map(|s| s.chunks).sum(),
        faults,
        degraded: sub_loops.iter().any(|s| s.degraded),
        cancel_latency_ns: cfg.cancel.latency().map_or(0, |d| d.as_nanos() as u64),
        budget_high_water: cfg.budget.high_water(),
        sub_loops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p` lists exactly the chunks `committed` leaves uncommitted, and
    /// its holes are exactly those below the highest committed chunk.
    fn assert_matches_bitmap(p: &Pending, committed: &[bool], label: &str) {
        let want: Vec<u64> = (0..committed.len() as u64)
            .filter(|&k| !committed[k as usize])
            .collect();
        assert_eq!(p.chunks, want, "{label}");
        let top = committed.iter().rposition(|&b| b);
        let holes = want.iter().filter(|&&k| top.is_some_and(|t| k < t as u64));
        assert_eq!(p.holes, holes.count(), "{label}");
    }

    #[test]
    fn doall_uncommitted_is_the_abandoned_chunks_and_the_unclaimed_tail() {
        for c in 1u64..=6 {
            for n in 1u64..=4 {
                for iters in 0u64..=10 {
                    let plan = ChunkPlan::by_iterations(iters, c);
                    let m = plan.num_chunks();
                    for cursor in 0..m + n {
                        let claimed = cursor.min(m);
                        // Every set of at most `n` abandoned chunks, one
                        // per worker, among the claimed ones.
                        for set in 0u64..1 << claimed {
                            if set.count_ones() as u64 > n {
                                continue;
                            }
                            let abandoned: Vec<u64> =
                                (0..claimed).filter(|k| set >> k & 1 == 1).collect();
                            let slot = |w: u64| abandoned.get(w as usize).map_or(0, |&k| k + 1);
                            let committed: Vec<bool> =
                                (0..m).map(|k| k < cursor && set >> k & 1 == 0).collect();
                            let p = uncommitted(&plan, false, n, cursor, slot);
                            let label = format!(
                                "c={c} n={n} iters={iters} cursor={cursor} abandoned={abandoned:?}"
                            );
                            assert_matches_bitmap(&p, &committed, &label);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn doacross_uncommitted_follows_the_frontiers_and_holes_stay_above_every_gate() {
        for c in 1u64..=6 {
            for lag in 2u64..=8 {
                for n in 1u64..=4 {
                    let iters = 7 * c - c / 2;
                    let plan = ChunkPlan::by_iterations(iters, c);
                    let m = plan.num_chunks();
                    let owned = |w: u64| (w..m).step_by(n as usize).count() as u64;
                    // Every combination of per-worker committed counts:
                    // each worker commits its owned chunks in order.
                    let combos: u64 = (0..n).map(|w| owned(w) + 1).product();
                    for mut code in 0..combos {
                        let mut done = vec![0u64; n as usize];
                        for w in 0..n {
                            done[w as usize] = code % (owned(w) + 1);
                            code /= owned(w) + 1;
                        }
                        let slot = |w: u64| match done[w as usize] {
                            0 => 0,
                            k => plan.range(w + (k - 1) * n).end,
                        };
                        let committed: Vec<bool> =
                            (0..m).map(|k| k / n < done[(k % n) as usize]).collect();
                        let p = uncommitted(&plan, true, n, 0, slot);
                        let label = format!("c={c} lag={lag} n={n} done={done:?}");
                        assert_matches_bitmap(&p, &committed, &label);
                        // Reachable states only: every committed chunk's
                        // gate holds against what is committed now.
                        let deps: Vec<u64> = (0..m)
                            .filter(|&k| committed[k as usize])
                            .filter_map(|k| chunk_gate_dep(&plan.range(k), lag))
                            .collect();
                        if !deps.iter().all(|&d| gate_open(d, c, iters, n, slot)) {
                            continue;
                        }
                        if lag <= c {
                            assert_eq!(p.holes, 0, "serialised chunks left a hole: {label}");
                        }
                        for &h in &p.chunks[..p.holes] {
                            let start = plan.range(h).start;
                            assert!(
                                deps.iter().all(|&d| start > d),
                                "hole {h} under a gate: {label}"
                            );
                        }
                    }
                }
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
    fn one_chunk_gate_covers_exactly_the_reads_that_leave_the_chunk() {
        for c in 1u64..=6 {
            for lag in 2u64..=8 {
                for iters in 0u64..=30 {
                    for c_idx in 0..iters.div_ceil(c) {
                        let range = chunk_range(c_idx, c, iters);
                        // Brute force: the reads of every iteration in
                        // the chunk that land before the chunk.
                        let outside: Vec<u64> = range
                            .clone()
                            .filter(|&j| j >= lag && j - lag < range.start)
                            .map(|j| j - lag)
                            .collect();
                        let label = format!("c={c} lag={lag} iters={iters} chunk {range:?}");
                        assert_eq!(
                            chunk_gate_dep(&range, lag),
                            outside.iter().copied().max(),
                            "{label}"
                        );
                        assert_eq!(crossing_deps(&range, lag), outside.len() as u64, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn doacross_order_with_the_legal_window_is_a_permutation_respecting_lag() {
        // Chunks at least as long as the lag (the gate asks for the
        // whole prefix) and shorter than it (chunks overlap).
        for (iters, c, n, lag) in [
            (24u64, 4u64, 3usize, 2u64),
            (17, 3, 2, 3),
            (12, 6, 4, 2),
            (20, 1, 3, 2),
            (30, 2, 3, 5),
            (25, 3, 2, 7),
        ] {
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
        // window = lag + 1 demands one predecessor commit fewer. With
        // chunks shorter than the lag, chunk [2, 4) then needs no gate at
        // all and the greedy-max schedule runs iteration `lag` before 0.
        let (iters, c, n, lag) = (16u64, 2u64, 2usize, 3u64);
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
