//! Online verification of committed chunks under an armed
//! [`VerifyPolicy`](crate::VerifyPolicy): one [`Auditor`] per stage, held
//! by the stage's `FtRun`, and the run's pool of pre-image buffers
//! ([`PreImages`]) that its stages share. An unverified run builds
//! neither, so each point where the runner calls the auditor is one
//! `None` test.
//!
//! The verify window holds the packets of committed chunks whose audit
//! is pending or running. Its invariants, which the test-only
//! `VerifyModel` (`src/check.rs`) checks:
//!
//! * every journaled commit publishes one packet before its token
//!   advance, so the next claimant's Acquire through its claim sees it;
//! * the claimant of chunk `j` audits, before `j`'s body runs, every
//!   packet [`audit_due`] names, so no chunk that depends on a packet's
//!   chunk runs, and no checkpoint covers it, before its audit
//!   completes; the window never holds more than `nthreads + 1` packets;
//! * a packet left pending past a claim is deferred, for a helper phase
//!   of any worker but its executor; the end barrier's leader, or the
//!   supervisor after a fault, drains the rest;
//! * every audit retires its packet and counts in `audits` with Release,
//!   the progress word a claimant waiting for another worker's audit
//!   reads with Acquire.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cascade_core::{fnv64_words, ChunkPlan, FNV64_BASIS};

use crate::govern::RunConfig;
use crate::health::HealthRegistry;
use crate::kernel::RealKernel;
use crate::runner::{
    governed_wait, reserve_growth, restore, FaultEvent, FtRun, RemoveOutcome, RunError,
    ThreadStats, Waiter,
};
use crate::token::{lock_recover, PoisonCause, Token, POISONED};

/// The verify window's rule: whether the claimant of a chunk must audit a
/// pending packet before its body runs. It must when a checkpoint is due
/// at the claim (`ckpt`: a checkpoint covers only audited chunks), when
/// the packet's audit cannot repair in place (`repairs`; see [`defers`]),
/// when the window is over its bound and no audit of the packet is
/// running (`over`, `taken`), and when the chunk is not `independent` of
/// the packet's ([`RealKernel::independent`]), which is asked last. The
/// model checker's `VerifyModel` settles through this function too.
pub(crate) fn audit_due(
    ckpt: bool,
    repairs: bool,
    over: bool,
    taken: bool,
    independent: impl FnOnce() -> bool,
) -> bool {
    ckpt || !repairs || (over && !taken) || !independent()
}

/// Whether `cfg`'s audits may stay pending while later chunks execute:
/// only when a confirmed corruption is repaired in place, so no later
/// chunk has to be undone. That takes a replay, whose bytes the repair
/// installs, and retry or salvage armed. A digest-only audit
/// (`VerifyPolicy::Checksum`, the unsampled chunks of `Sampled`) can only
/// roll back and poison, and a fail-fast run must: both audit the chunk
/// before the next one executes, so the typed error keeps an exact
/// committed prefix. Chunk 0 replays under every policy that replays any
/// chunk, so this says whether the run defers at all, and a packet's own
/// audit repairs when, besides, its chunk replays.
fn defers(cfg: &RunConfig) -> bool {
    cfg.verify.replays(0) && (cfg.tolerance.retry.is_some() || cfg.tolerance.salvage)
}

/// The run's pool of verification pre-image buffers, shared by its
/// stages' auditors. A packet copies its chunk's undo journal into one,
/// and the audit that retires the packet hands it back, so a run
/// allocates at most one buffer per window slot. The slots' bytes are
/// reserved from the run's [`MemBudget`] before any is filled, as the
/// journal buffers' growth is.
///
/// [`MemBudget`]: crate::govern::MemBudget
pub(crate) struct PreImages {
    spare: Vec<Vec<u8>>,
    /// Resident pre-images at most: the deferral bound plus the packet
    /// the claimant publishes past it ([`defers`]), or one.
    slots: u64,
    /// Bytes reserved per slot: the longest journal seen.
    reserved: u64,
}

impl PreImages {
    /// An empty pool for a run under `cfg`.
    pub(crate) fn new(cfg: &RunConfig) -> Self {
        let slots = if defers(cfg) {
            cfg.runner.nthreads as u64 + 1
        } else {
            1
        };
        PreImages {
            spare: Vec::new(),
            slots,
            reserved: 0,
        }
    }

    /// Reserve the slots for a journal of `len` bytes. A refusal cancels
    /// the run and poisons `run` ([`reserve_growth`]): `false`.
    fn reserve(&mut self, cfg: &RunConfig, run: &FtRun, len: u64) -> bool {
        if len <= self.reserved {
            return true;
        }
        let grown = (len - self.reserved) * self.slots;
        if !reserve_growth(cfg, run, grown, "verification pre-images") {
            return false;
        }
        self.reserved = len;
        true
    }

    /// A copy of `journal` in a recycled buffer.
    fn copy(&mut self, journal: &[u8]) -> Vec<u8> {
        let mut buf = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.reserved as usize));
        buf.clear();
        buf.extend_from_slice(journal);
        buf
    }
}

/// One stage's arena scrub, shared by the workers that hash it.
#[derive(Default)]
struct Scrub {
    /// The baseline's digest of every scrub block; `None` until it is
    /// taken, and for a kernel that cannot bound its footprint.
    base: Option<Vec<u64>>,
    /// The workers sharing the baseline (`[0]`) and the compare (`[1]`):
    /// the health registry's live set, read once by the first of them to
    /// start, so every worker cuts the same shares.
    crews: [Option<Vec<u64>>; 2],
    /// The compare's lowest drifted block: its index, its bytes, and its
    /// baseline and current digests.
    drift: Option<(usize, Range<u64>, u64, u64)>,
    /// Scrubs performed (baseline + compare).
    count: u64,
}

/// Everything a verifier needs to re-check one committed chunk.
struct VerifyPacket {
    /// The committed chunk and its iteration range.
    chunk: u64,
    range: Range<u64>,
    /// The worker that executed and committed it (blame target).
    executor: u64,
    /// [`footprint_digest`] of the committed write-footprint bytes,
    /// hashed in place by the executor while it still held the claim.
    digest: u64,
    /// Its write footprint ([`RealKernel::write_spans`]), walked once by
    /// its claimant, for later claims' independence tests; `None` when
    /// the kernel names no spans.
    spans: Option<Vec<Range<u64>>>,
    /// The undo journal captured *before* the chunk ran, in a recycled
    /// buffer ([`PreImages`]): seeds the replay's private overlay
    /// ([`RealKernel::replay_footprint`]), and doubles as the rollback
    /// image when a confirmed corruption has no recovery path.
    pre_image: Vec<u8>,
}

/// A packet in the verify window.
struct Unaudited {
    p: Arc<VerifyPacket>,
    /// A claimant executed a later chunk past it, so any worker but its
    /// executor may audit it in a helper phase.
    deferred: bool,
    /// Its audit is running.
    taken: bool,
}

/// Outcome of verifying one committed chunk against its handoff packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyVerdict {
    /// The committed bytes check out — or a lone replay mismatch failed
    /// its own tiebreak, which indicts the verifier, not the executor.
    Verified,
    /// Corruption confirmed and repaired in place with the verified
    /// replay bytes; the run continues cascaded.
    Repaired,
    /// Corruption confirmed with no recovery path: the chunk was rolled
    /// back to its pre-image and the token poisoned. The caller drains.
    Failed,
}

/// What a window walk does next, chosen under the window's lock.
enum Pick {
    /// Audit this packet, marked taken.
    Audit(Arc<VerifyPacket>),
    /// Wait for another worker's audit to retire, gating this chunk's
    /// claim.
    Wait(u64),
    /// Stop.
    Done,
}

/// What a claim's settle hands on to the chunk's commit.
pub(crate) struct Settled {
    /// The chunk's write footprint, for its packet.
    spans: Option<Vec<Range<u64>>>,
    /// Every chunk before the claimed one is audited, so a checkpoint may
    /// cover them.
    pub(crate) verified: bool,
}

/// One stage's verification: its verify window, the window's audit
/// counter and its arena scrub, and what they run against.
pub(crate) struct Auditor<'a> {
    kernel: &'a dyn RealKernel,
    plan: &'a ChunkPlan,
    cfg: &'a RunConfig,
    /// The run's health registry: blame strikes, quarantine, and the
    /// scrub crews' live set.
    health: &'a HealthRegistry,
    pre_images: &'a Mutex<PreImages>,
    /// [`defers`], decided once. A replaying audit repairs in place
    /// exactly when it holds.
    defers: bool,
    /// Published by each executor before its `try_advance`; retired by a
    /// claimant, a helper phase, or the end barrier's leader.
    window: Mutex<VecDeque<Unaudited>>,
    /// Audits retired from `window`.
    audits: AtomicU64,
    /// A baseline over the bytes *outside* the kernel's whole write
    /// footprint, taken before the stage starts, and the compare after it
    /// ends ([`Auditor::scrub_share`]): drift between the two brackets an
    /// out-of-footprint corruption no chunk-level audit can attribute.
    scrub: Mutex<Scrub>,
}

impl<'a> Auditor<'a> {
    /// The auditor of a stage running `kernel` under `plan`, in a run
    /// under `cfg` with its health registry and pre-image pool.
    pub(crate) fn new(
        kernel: &'a dyn RealKernel,
        plan: &'a ChunkPlan,
        cfg: &'a RunConfig,
        health: &'a HealthRegistry,
        pre_images: &'a Mutex<PreImages>,
    ) -> Self {
        Auditor {
            kernel,
            plan,
            cfg,
            health,
            pre_images,
            defers: defers(cfg),
            window: Mutex::default(),
            audits: AtomicU64::new(0),
            scrub: Mutex::default(),
        }
    }

    /// Scrubs performed on the stage: [`RunStats::scrubs`](crate::RunStats::scrubs).
    pub(crate) fn scrubs(&self) -> u64 {
        lock_recover(&self.scrub).count
    }

    /// Worker `t`'s audits in its helper phase for chunk `j` of `run`,
    /// before it packs or prefetches, when the run defers: the deferred
    /// packets another worker executed, oldest first, until none is left
    /// or the token reaches `j`. Each runs beside the executions the
    /// window let past it. `false` when an audit failed.
    pub(crate) fn helper_audits(
        &self,
        run: &FtRun,
        t: u64,
        j: u64,
        stats: &mut ThreadStats,
    ) -> bool {
        if !self.defers {
            return true;
        }
        let t0 = Instant::now();
        let audited = self.walk(run, Some(t), |w| {
            let raw = run.token.raw();
            if raw == POISONED || Token::chunk_index(raw) >= j || self.cfg.cancel.is_cancelled() {
                return Pick::Done;
            }
            let Some(e) = w
                .iter_mut()
                .find(|e| e.deferred && !e.taken && e.p.executor != t)
            else {
                return Pick::Done;
            };
            e.taken = true;
            stats.verified_chunks += 1;
            stats.helper_audits += 1;
            Pick::Audit(e.p.clone())
        });
        stats.verify_ns += t0.elapsed().as_nanos();
        audited.is_ok()
    }

    /// The claimant `t` of chunk `j` of `run` settles the window before
    /// the body runs. A run that defers first walks the chunk's write
    /// footprint once, for this settle and for later ones through its
    /// packet. Past chunk 0, every packet [`audit_due`] names is then
    /// audited, by us, or, when another worker's audit of it is running,
    /// by that worker while we wait; every packet left pending is marked
    /// deferred. `None` when an audit failed or the wait halted: drain.
    pub(crate) fn settle(
        &self,
        run: &FtRun,
        t: u64,
        j: u64,
        stats: &mut ThreadStats,
    ) -> Option<Settled> {
        let spans = self
            .defers
            .then(|| self.kernel.write_spans(self.plan.range(j)))
            .flatten();
        if j == 0 {
            return Some(Settled {
                spans,
                verified: false,
            });
        }
        let t0 = Instant::now();
        let ckpt = self.cfg.ckpt_sink.as_ref().is_some_and(|s| s.due(j));
        let mut low = j;
        let settled = self.walk(run, Some(t), |w| {
            let over = w.len() > self.cfg.runner.nthreads;
            let due = w.iter().position(|e| {
                let repairs = self.defers && self.cfg.verify.replays(e.p.chunk);
                audit_due(ckpt, repairs, over, e.taken, || {
                    let both = spans.as_deref().zip(e.p.spans.as_deref());
                    both.is_some_and(|(n, c)| self.kernel.independent(c, n))
                })
            });
            match due {
                None => {
                    for e in w.iter_mut() {
                        e.deferred = true;
                    }
                    low = w.front().map_or(j, |e| e.p.chunk);
                    Pick::Done
                }
                // We hold the claim, so only a halt, or a whole watchdog
                // window without an audit retiring, ends the wait early.
                Some(i) if w[i].taken => Pick::Wait(j),
                Some(i) => {
                    w[i].taken = true;
                    stats.verified_chunks += 1;
                    Pick::Audit(w[i].p.clone())
                }
            }
        });
        stats.verify_ns += t0.elapsed().as_nanos();
        settled.ok()?;
        Some(Settled {
            spans,
            verified: low == j,
        })
    }

    /// Reserve the pool's slots for a journal of `len` bytes, before the
    /// body runs: `false` when the budget refused ([`PreImages::reserve`]).
    pub(crate) fn reserve(&self, run: &FtRun, len: u64) -> bool {
        lock_recover(self.pre_images).reserve(self.cfg, run, len)
    }

    /// Executor `t` publishes committed chunk `j`'s packet into the window,
    /// claim still held, before its token advance: the digest of the
    /// chunk's committed footprint, read where it lies, and a copy of
    /// `journal`, its pre-image, in a pool buffer.
    pub(crate) fn publish(
        &self,
        t: u64,
        j: u64,
        settled: Settled,
        journal: &[u8],
        stats: &mut ThreadStats,
    ) {
        let t0 = Instant::now();
        let range = self.plan.range(j);
        // SAFETY: the caller holds the claim — the same exclusivity
        // contract as `execute` — and the digest only reads.
        if let Some(digest) = unsafe { footprint_digest(self.kernel, range.clone(), None) } {
            let p = VerifyPacket {
                chunk: j,
                range,
                executor: t,
                digest,
                spans: settled.spans,
                pre_image: lock_recover(self.pre_images).copy(journal),
            };
            lock_recover(&self.window).push_back(Unaudited {
                p: Arc::new(p),
                deferred: false,
                taken: false,
            });
        }
        stats.verify_ns += t0.elapsed().as_nanos();
    }

    /// Drain the window of `run`: audit every packet still in it, oldest
    /// first, each as its own executor's (a repair then records no
    /// retry). Run by the end barrier's leader, and after the join on a
    /// faulted stage; both are quiescent, so no audit is running. Every
    /// audit but the final chunk's, which no claimant could have run,
    /// counts in `stats`. `Err` names the chunk whose audit failed.
    pub(crate) fn drain(&self, run: &FtRun, stats: &mut ThreadStats) -> Result<(), u64> {
        let m = self.plan.num_chunks();
        self.walk(run, None, |w| {
            let Some(e) = w.front_mut() else {
                return Pick::Done;
            };
            e.taken = true;
            stats.verified_chunks += u64::from(e.p.chunk + 1 < m);
            Pick::Audit(e.p.clone())
        })
    }

    /// Drain the window of a faulted stage, `run`, before its prefix is
    /// reported or salvaged from, whatever the fault: a deferring run may
    /// have committed chunks past one whose audit never ran. `err` is the
    /// stage's error, `before` the iterations of the stages ahead of it.
    /// When an audit fails, the error to report: the one with the shorter
    /// clean prefix, so a reported prefix never holds a detected chunk.
    pub(crate) fn drain_faulted(
        &self,
        run: &FtRun,
        before: u64,
        err: &RunError,
    ) -> Option<RunError> {
        let c = self.drain(run, &mut ThreadStats::default()).err()?;
        // As `fail_rollback`'s resume point: the chunk's start when it was
        // rolled back.
        let r = self.plan.range(c);
        let unsound = run.salvage_unsound.load(Ordering::Acquire);
        let committed_iters = before + if unsound { r.end } else { r.start };
        Some(match err {
            RunError::Corrupted {
                committed_iters: e, ..
            } if *e <= committed_iters => err.clone(),
            _ => RunError::Corrupted {
                thread: None,
                chunk: Some(c),
                committed_iters,
                bytes: 0..0,
            },
        })
    }

    /// The one audit-and-retire loop of the window's three walks (the
    /// settle, a helper phase's, the drain): `pick`, under the window's
    /// lock, takes the next packet to audit, or says to wait for another
    /// worker's audit to retire, or to stop. `verifier` audits every
    /// packet taken; `None`, its own executor. `Err` names the chunk the
    /// walk stopped at: one whose audit failed, or the gated chunk whose
    /// wait halted.
    fn walk(
        &self,
        run: &FtRun,
        verifier: Option<u64>,
        mut pick: impl FnMut(&mut VecDeque<Unaudited>) -> Pick,
    ) -> Result<(), u64> {
        loop {
            let seen = self.audits.load(Ordering::Acquire);
            let next = pick(&mut lock_recover(&self.window));
            match next {
                Pick::Done => return Ok(()),
                Pick::Audit(p) => {
                    let (c, by) = (p.chunk, verifier.unwrap_or(p.executor));
                    if self.audit(run, by, p) == VerifyVerdict::Failed {
                        return Err(c);
                    }
                }
                Pick::Wait(gate) => {
                    let retired = || (self.audits.load(Ordering::Acquire) != seen).then_some(());
                    let progress = || self.audits.load(Ordering::Acquire);
                    let waiter = Waiter::Gate { chunk: gate };
                    governed_wait(run, None, self.cfg, waiter, retired, progress).ok_or(gate)?;
                }
            }
        }
    }

    /// Audit packet `p`, taken from the window, as `verifier`, and retire
    /// it: out of the window, its pre-image back to the run's pool.
    fn audit(&self, run: &FtRun, verifier: u64, p: Arc<VerifyPacket>) -> VerifyVerdict {
        let verdict = self.verify_committed(run, verifier, &p);
        lock_recover(&self.window).retain(|e| e.p.chunk != p.chunk);
        self.audits.fetch_add(1, Ordering::Release);
        if let Ok(p) = Arc::try_unwrap(p) {
            lock_recover(self.pre_images).spare.push(p.pre_image);
        }
        verdict
    }

    /// Verify committed chunk `p.chunk` against its packet: under a
    /// replaying policy, re-execute the chunk against a journaled private
    /// view ([`RealKernel::replay_footprint`]) and compare the result with
    /// the committed bytes; otherwise digest the committed bytes and
    /// compare with the published digest. The committed footprint is read
    /// where it lies, never copied, and hashed only where the digest
    /// decides something, so a matching replay costs the replay and one
    /// comparison pass. On a replay mismatch a *second* replay is the
    /// sequential tiebreak: only when both agree against the committed
    /// bytes is the corruption confirmed ([`Auditor::convict`]); a lone
    /// mismatch could equally be the verifier's own fault.
    ///
    /// A committed footprint that cannot be read ([`visit_live`]), at
    /// whichever read, leaves nothing to check against: the chunk is
    /// [`VerifyVerdict::Verified`], unblamed and unrecorded. The executor
    /// could not have published a packet for it unless the loss is
    /// transient, and a reader's panic says nothing about the executor.
    ///
    /// Nothing that executes while the audit runs may read or write
    /// `p.chunk`'s footprint: the caller holds the claim of the chunk
    /// `p.chunk` precedes, or the window let every chunk executing beside
    /// the audit run past it, or it has the end-of-loop quiescence.
    fn verify_committed(&self, run: &FtRun, verifier: u64, p: &VerifyPacket) -> VerifyVerdict {
        let kernel = self.kernel;
        // SAFETY (every replay and read below): no execute overlaps
        // `p.range`'s footprint (the caller's guarantee); a replay routes
        // every footprint access through a private overlay and never writes
        // shared memory, and a read only reads.
        let range = || p.range.clone();
        if self.cfg.verify.replays(p.chunk) {
            let pre = &p.pre_image;
            let replay = || -> Option<Vec<u8>> {
                catch_unwind(AssertUnwindSafe(|| unsafe {
                    kernel.replay_footprint(range(), pre)
                }))
                .ok()
                .flatten()
            };
            if let Some(r1) = replay() {
                if unsafe { matches_committed(kernel, range(), &r1) } != Some(false) {
                    return VerifyVerdict::Verified;
                }
                // Tiebreak unavailable, or the verifier's own replays
                // disagree: a lone mismatch never blames, the committed
                // bytes stand.
                if replay().is_none_or(|r2| r2 != r1) {
                    return VerifyVerdict::Verified;
                }
                let found = unsafe { footprint_digest(kernel, range(), None) };
                let expected = unsafe { footprint_digest(kernel, range(), Some(&r1)) };
                let (Some(found), Some(expected)) = (found, expected) else {
                    return VerifyVerdict::Verified;
                };
                return self.convict(run, verifier, p, Some(&r1), expected, found);
            }
        }
        // Digest-only comparison (Checksum policy, unsampled chunks, or no
        // replay path): catches corruption that landed *after* the
        // executor's own digest. No replay means no tiebreak, so no blame,
        // and no verified bytes to install, so detection fails the run.
        let Some(found) = (unsafe { footprint_digest(kernel, range(), None) }) else {
            return VerifyVerdict::Verified;
        };
        if found == p.digest {
            return VerifyVerdict::Verified;
        }
        self.convict(run, verifier, p, None, p.digest, found)
    }

    /// A confirmed corruption of `p.chunk`: assign blame, quarantine a
    /// repeat offender, and recover. `expected` and `found` are the
    /// [`footprint_digest`]s of the verified bytes (the published one,
    /// for a digest-only detection) and of the committed ones.
    ///
    /// Blame hangs on the published digest: if it matches the committed
    /// bytes, the executor *computed* them — guilty. If not, the
    /// corruption landed after the executor's own digest (a post-commit
    /// flip), and blaming the executor would convict an innocent worker —
    /// the single-fault attribution the model checker proves. A
    /// conviction is a corruption strike: the first is forgiven, the
    /// second quarantines the executor through the roster remap.
    ///
    /// A run that repairs installs the `verified` replay bytes in place;
    /// otherwise, or with nothing verified to install, the chunk is rolled
    /// back to its pre-image and the token poisoned
    /// ([`Auditor::fail_rollback`]).
    fn convict(
        &self,
        run: &FtRun,
        verifier: u64,
        p: &VerifyPacket,
        verified: Option<&[u8]>,
        expected: u64,
        found: u64,
    ) -> VerifyVerdict {
        let blamed = (found == p.digest).then_some(p.executor);
        if let Some(guilty) = blamed {
            let quarantine_now = self.health.corruption_strike(guilty);
            run.record(FaultEvent::WorkerBlamed {
                thread: guilty,
                chunk: p.chunk,
                strikes: self.health.corruption_strikes(guilty),
            });
            if quarantine_now {
                // Repeat offender: remove from the roster (remapping its
                // remaining chunks across survivors, anchored at the token's
                // position so nothing is orphaned) — unless it is the last
                // live worker, in which case refusing strands nobody.
                let anchor = run.token.position().unwrap_or(p.chunk + 1);
                if matches!(run.roster.remove(guilty, anchor), RemoveOutcome::Removed)
                    && self.health.quarantine(guilty)
                {
                    run.record(FaultEvent::WorkerQuarantined {
                        thread: guilty,
                        chunk: p.chunk,
                    });
                }
            }
        }
        // Install the verified replay bytes: rollback and re-execution in
        // one restore — bitwise what a clean execution left behind.
        // Nothing executing touches the footprint (the audit's guarantee),
        // and no later chunk read the bad bytes.
        // SAFETY: the caller's exclusivity over the footprint; `verified`
        // is in journal layout over `p.range`.
        let repaired = verified
            .filter(|_| self.defers)
            .is_some_and(|bytes| unsafe { restore(self.kernel, p.range.clone(), bytes) }.is_ok());
        run.record(FaultEvent::CorruptionDetected {
            chunk: p.chunk,
            expected,
            found,
            repaired,
            bytes: 0..0,
        });
        if !repaired {
            return self.fail_rollback(run, p, blamed);
        }
        if verifier != p.executor {
            run.record(FaultEvent::ChunkRetried {
                chunk: p.chunk,
                from_thread: p.executor,
                by_thread: verifier,
            });
        }
        VerifyVerdict::Repaired
    }

    /// Roll the corrupted chunk back to its pre-image and poison the
    /// token: the committed prefix carried by the typed error must never
    /// contain a corrupted chunk. A panicking rollback, or one that cannot
    /// give a prefix because a later chunk already committed past the
    /// pending packet (a repair whose install panicked), additionally
    /// marks the run salvage-unsound (the state cannot be trusted at all).
    fn fail_rollback(&self, run: &FtRun, p: &VerifyPacket, blamed: Option<u64>) -> VerifyVerdict {
        let later = run.token.handoff().completed.load(Ordering::Acquire) > p.chunk + 1;
        // SAFETY: caller's exclusivity; the pre-image is the unmodified
        // capture of this same range taken before the chunk executed.
        let rolled_back =
            !later && unsafe { restore(self.kernel, p.range.clone(), &p.pre_image) }.is_ok();
        if !rolled_back {
            run.salvage_unsound.store(true, Ordering::Release);
        }
        let resume_at = if rolled_back {
            p.range.start
        } else {
            p.range.end
        };
        run.token.poison_with(PoisonCause::Corrupted {
            thread: blamed,
            chunk: Some(p.chunk),
            resume_at,
            bytes: 0..0,
        });
        VerifyVerdict::Failed
    }

    /// Worker `t`'s share of the stage's arena scrub: the baseline, or
    /// with `compare` the compare against it. The crew (the workers the
    /// health registry had live when the first of them started) hashes
    /// alternate scrub blocks by rank, so a quarantined worker takes no
    /// share; the first of the crew counts the scrub. A compare keeps the
    /// lowest drifted block, which the scrub barrier's leader reports
    /// ([`Auditor::scrub_clean`]).
    ///
    /// # Safety
    ///
    /// As [`RealKernel::scrub_block`]: nothing may write outside the
    /// kernel's write footprint until every worker has passed the barrier
    /// that follows the call.
    pub(crate) unsafe fn scrub_share(&self, t: u64, compare: bool) {
        let Some(blocks) = self.kernel.scrub_blocks() else {
            return;
        };
        let (rank, crew) = {
            let mut s = lock_recover(&self.scrub);
            if compare && s.base.is_none() {
                return;
            }
            let crew = s.crews[usize::from(compare)].get_or_insert_with(|| self.health.live());
            let Some(rank) = crew.iter().position(|&w| w == t) else {
                return;
            };
            (rank, crew.len())
        };
        let mine: Vec<_> = (rank..blocks)
            .step_by(crew)
            .map(|b| {
                // SAFETY: forwarded under the caller's guarantee.
                let (bytes, d) = unsafe { self.kernel.scrub_block(b) };
                (b, bytes, d)
            })
            .collect();
        let s = &mut *lock_recover(&self.scrub);
        s.count += u64::from(rank == 0);
        if !compare {
            let base = s.base.get_or_insert_with(|| vec![0; blocks]);
            for (b, _, d) in mine {
                base[b] = d;
            }
            return;
        }
        let base = s.base.as_deref().unwrap_or_default();
        let drift = mine.into_iter().find(|&(b, _, d)| base[b] != d);
        if let Some((b, bytes, d)) = drift {
            if s.drift.as_ref().is_none_or(|&(first, ..)| b < first) {
                s.drift = Some((b, bytes, base[b], d));
            }
        }
    }

    /// The scrub barrier's leader on the stage of `run`: whether its scrub
    /// compare found no drift. Drift is recorded as a scrubber
    /// [`FaultEvent::CorruptionDetected`] naming the lowest drifted block,
    /// and poisons the stage with a corruption past its last iteration.
    pub(crate) fn scrub_clean(&self, run: &FtRun) -> bool {
        let Some((_, bytes, expected, found)) = lock_recover(&self.scrub).drift.take() else {
            return true;
        };
        run.record(FaultEvent::CorruptionDetected {
            chunk: u64::MAX,
            expected,
            found,
            repaired: false,
            bytes: bytes.clone(),
        });
        run.token.poison_with(PoisonCause::Corrupted {
            thread: None,
            chunk: None,
            resume_at: self.kernel.iters(),
            bytes,
        });
        false
    }
}

/// The one call of [`RealKernel::visit_footprint`], under its contract.
/// `false` when the write-set is unbounded or the visit panicked: every
/// in-place read of a committed footprint goes through here, so an
/// unreadable footprint has one outcome wherever it is read.
unsafe fn visit_live(k: &dyn RealKernel, r: Range<u64>, mut visit: impl FnMut(&[u8])) -> bool {
    // SAFETY: forwarded under the caller's guarantee.
    catch_unwind(AssertUnwindSafe(|| unsafe {
        k.visit_footprint(r, &mut visit)
    }))
    .unwrap_or(false)
}

/// The checksummed handoff's digest of chunk `range`'s committed
/// write-set, and its one definition: [`fnv64_words`] chained over the
/// kernel's footprint slices ([`RealKernel::visit_footprint`]) in journal
/// order, read where they lie. With `copy`, a journal-layout copy of the
/// write-set (the verified replay bytes), the same-length pieces of
/// `copy` are hashed in place of the live slices. So the executor's
/// digest, the verifier's `found` and the conviction's `expected` cut
/// their bytes at the same boundaries, and equal bytes give equal
/// digests. An in-memory comparison within one run, hence the word-wise
/// [`fnv64_words`], which sees every single-byte change for certain.
/// `None` when the footprint cannot be read ([`visit_live`]) or `copy`
/// is not its length.
///
/// # Safety
///
/// As [`RealKernel::visit_footprint`].
unsafe fn footprint_digest(
    k: &dyn RealKernel,
    range: Range<u64>,
    copy: Option<&[u8]>,
) -> Option<u64> {
    let (mut h, mut cur, mut fits) = (FNV64_BASIS, 0usize, true);
    // SAFETY: forwarded under the caller's guarantee.
    let read = unsafe {
        visit_live(k, range, |live| {
            match copy.map_or(Some(live), |c| c.get(cur..cur + live.len())) {
                Some(piece) => h = fnv64_words(h, piece),
                None => fits = false,
            }
            cur += live.len();
        })
    };
    (read && fits && copy.is_none_or(|c| c.len() == cur)).then_some(h)
}

/// Whether `bytes`, a journal-layout write-set, equals chunk `range`'s
/// committed one, compared where it lies. `None` when the footprint
/// cannot be read ([`visit_live`]).
///
/// # Safety
///
/// As [`RealKernel::visit_footprint`].
unsafe fn matches_committed(k: &dyn RealKernel, range: Range<u64>, bytes: &[u8]) -> Option<bool> {
    let (mut same, mut cur) = (true, 0usize);
    // SAFETY: forwarded under the caller's guarantee.
    let read = unsafe {
        visit_live(k, range, |live| {
            same = same && bytes.get(cur..cur + live.len()) == Some(live);
            cur += live.len();
        })
    };
    read.then_some(same && cur == bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyKernel};
    use crate::runner::{RetryPolicy, RtPolicy, RunnerConfig, Tolerance};
    use crate::try_run_governed;
    use std::time::Duration;

    /// `c(i)` read, `a(i)` modified and `b(i)` written, all f64: a chunk
    /// of `r` iterations has a footprint of two `8 r`-byte slices.
    fn two_write_program(n: u64) -> crate::SpecProgram {
        use cascade_trace::{
            AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
        };
        let mut space = AddressSpace::new();
        let ids = ["c", "a", "b"].map(|name| {
            let id = space.alloc(name, 8, n);
            space.alloc("pad", 1, 64);
            id
        });
        let stream = |name, array, mode| StreamRef {
            name,
            array,
            pattern: Pattern::Affine { base: 0, stride: 1 },
            mode,
            bytes: 8,
            hoistable: false,
        };
        let refs = vec![
            stream("c(i)", ids[0], Mode::Read),
            stream("a(i)", ids[1], Mode::Modify),
            stream("b(i)", ids[2], Mode::Write),
        ];
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![LoopSpec {
                name: "two writes".into(),
                iters: n,
                refs,
                compute: 1.0,
                hoistable_compute: 0.0,
                hoist_result_bytes: 0,
            }],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..n {
            arena.set_f64(&w.space, ids[0], i, (i % 7) as f64 * 0.5 + 0.25);
            arena.set_f64(&w.space, ids[1], i, (i % 5) as f64 * 0.75);
        }
        crate::SpecProgram::new(w, arena).unwrap()
    }

    #[test]
    fn one_digest_definition_for_commit_found_and_convict() {
        // Five iterations: two 40-byte slices, not multiples of the
        // digest's 32-byte blocks, so their boundaries change the digest.
        let prog = two_write_program(60);
        let range = 20..25;
        {
            let k = prog.kernel(0);
            // SAFETY (all calls in this block): single-threaded, so each
            // is exclusive and `range` is committed once executed.
            let mut pre = Vec::new();
            unsafe {
                k.execute(0..20);
                assert!(k.journal_capture(range.clone(), &mut pre));
                k.execute(range.clone());
            }
            let commit = unsafe { footprint_digest(&k, range.clone(), None) }.unwrap();
            let found = unsafe { footprint_digest(&k, range.clone(), None) }.unwrap();
            let replayed = unsafe { k.replay_footprint(range.clone(), &pre) }.unwrap();
            let expected = unsafe { footprint_digest(&k, range.clone(), Some(&replayed)) };
            assert_eq!(replayed.len(), 80);
            assert_eq!((found, expected), (commit, Some(commit)));
            assert_ne!(
                fnv64_words(FNV64_BASIS, &replayed),
                commit,
                "chained and concatenated digests differ here"
            );
            // One flipped byte of the second slice: the in-place digests
            // see it, and so does convict's over a copy of the bytes.
            unsafe { assert!(k.corrupt_byte(range.clone(), 45, 0x08, true)) };
            let mut now = Vec::new();
            unsafe { assert!(k.journal_capture(range.clone(), &mut now)) };
            let found = unsafe { footprint_digest(&k, range.clone(), None) }.unwrap();
            assert_ne!(found, commit, "the verifier's digest sees the flip");
            let copied = unsafe { footprint_digest(&k, range.clone(), Some(&now)) };
            assert_eq!(copied, Some(found), "convict's digest sees it too");
            let short = unsafe { footprint_digest(&k, range.clone(), Some(&now[..79])) };
            assert_eq!(short, None, "a copy of another length has no digest");
        }

        // The same kernel under the runner: a flip before chunk 4's commit
        // digest is blamed on its executor (so the verifier's `found` is
        // the executor's digest), and the conviction's `expected` is the
        // in-place digest of the repaired bytes.
        let mut prog = two_write_program(60);
        let flip = FaultKind::SilentBitFlip {
            after_iters: 5,
            offset: 45,
            xor: 0x08,
            in_footprint: true,
        };
        let k = FaultyKernel::new(prog.kernel(0), FaultPlan::new(5).inject(4, flip));
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 5,
                policy: RtPolicy::None,
                poll_batch: 4,
            },
            tolerance: Tolerance::retrying(Duration::from_secs(30)),
            verify: crate::VerifyPolicy::EveryChunk,
            ..RunConfig::default()
        };
        let stats = try_run_governed(&k, &cfg).expect("a repairable flip");
        drop(k);
        let blamed = stats
            .faults
            .iter()
            .any(|f| matches!(f, FaultEvent::WorkerBlamed { chunk: 4, .. }));
        assert!(blamed, "{:?}", stats.faults);
        let digests = stats.faults.iter().find_map(|f| match f {
            FaultEvent::CorruptionDetected {
                chunk: 4,
                expected,
                found,
                repaired: true,
                bytes,
            } if bytes.is_empty() => Some((*expected, *found)),
            _ => None,
        });
        let (expected, found) = digests.expect("chunk 4 repaired");
        // SAFETY: the run has returned; nothing runs concurrently.
        let repaired = unsafe { footprint_digest(&prog.kernel(0), 20..25, None) };
        assert_eq!(repaired, Some(expected));
        assert_ne!(found, expected);
        let mut seq = two_write_program(60);
        // SAFETY: single-threaded.
        unsafe { seq.kernel(0).execute(0..60) };
        assert_eq!(prog.checksum(), seq.checksum(), "repaired run is bitwise");
    }

    /// A scrub compare that finds drift names the lowest drifted block's
    /// bytes, and its digests, on a scrubber `CorruptionDetected`; the
    /// crew's first member counts each scrub once.
    #[test]
    fn a_scrub_drift_names_its_first_drifted_block() {
        let s = cascade_synth::Synth::build(1 << 17, cascade_synth::Variant::Dense, 5);
        let prog = crate::SpecProgram::new(s.workload, s.arena).unwrap();
        let k = prog.kernel(0);
        let spans: Vec<Range<u64>> = (0..k.scrub_blocks().unwrap())
            // SAFETY: single-threaded throughout.
            .map(|b| unsafe { k.scrub_block(b) }.0)
            .collect();
        assert_eq!(spans.len(), 3, "{spans:?}");
        let cfg = RunConfig::from(RunnerConfig {
            nthreads: 2,
            ..RunnerConfig::default()
        });
        let health = HealthRegistry::new(2, RetryPolicy::default());
        let pre_images = Mutex::new(PreImages::new(&cfg));
        let plan = ChunkPlan::by_iterations(k.iters(), 4_096);
        let auditor = Auditor::new(&k, &plan, &cfg, &health, &pre_images);
        let run = FtRun::new(2, 2, Instant::now(), None);
        let share = |compare| {
            for t in [1, 0] {
                // SAFETY: single-threaded.
                unsafe { auditor.scrub_share(t, compare) };
            }
        };
        share(false);
        // One flip in each of the last two blocks: the second is named.
        let flips = [spans[2].start + 5, spans[1].end - 1];
        for &addr in &flips {
            // SAFETY: single-threaded.
            assert!(unsafe { k.corrupt_byte(0..1, addr, 0x04, false) });
        }
        share(true);
        assert!(!auditor.scrub_clean(&run));
        assert_eq!(auditor.scrubs(), 2);
        match &run.take_faults()[..] {
            [FaultEvent::CorruptionDetected {
                chunk: u64::MAX,
                expected,
                found,
                repaired: false,
                bytes,
            }] => {
                assert_eq!(*bytes, spans[1]);
                assert!(bytes.contains(&flips[1]) && !bytes.contains(&flips[0]));
                assert_ne!(expected, found);
            }
            other => panic!("expected one scrubber detection, got {other:?}"),
        }
        match run.token.poison_cause() {
            Some(PoisonCause::Corrupted {
                thread: None,
                chunk: None,
                resume_at,
                bytes,
            }) => {
                assert_eq!(resume_at, k.iters());
                assert_eq!(bytes, spans[1]);
            }
            other => panic!("expected a scrubber verdict, got {other:?}"),
        }
    }
}
