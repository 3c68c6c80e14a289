//! Deterministic model checking of the token/poison/retry protocol.
//!
//! The runner's recovery ladder (see [`crate::runner`]) rests on a small
//! set of CAS transitions over one atomic word: grant → claim → advance,
//! claim → unclaim (retry hand-back), anything → poison. Races between
//! waiters, detectors, recovering workers, and late finishers are exactly
//! where hand-written reasoning fails, so this module writes the protocol
//! down as an explicit state machine ([`Protocol`]) and lets the
//! `interleave` shim enumerate **every** thread interleaving, checking
//! eight invariants in every reachable state:
//!
//! 1. **Exactly-one executor** — no two threads inside a chunk body at
//!    once;
//! 2. **No lost or resurrected token** — the token position never moves
//!    backward, a poisoned token stays poisoned, and a run never
//!    deadlocks with the token still live (a lost hand-off is a terminal
//!    non-accepting state, which the explorer reports as a deadlock);
//! 3. **First-cause-wins poisoning** — concurrent poisoners never
//!    overwrite the first recorded cause;
//! 4. **No chunk executed twice after mutation** — a retry may re-run a
//!    chunk only if its body never started writing (fail-stop faults)
//!    or its partial writes were restored from the undo journal;
//! 5. **No torn state observable after rollback** — a chunk whose
//!    partial writes have not been rolled back is never re-claimed: the
//!    rollback happens-before any re-execution claim, and a clean run
//!    never accepts with a torn chunk;
//! 6. **Cancellation never observable as torn state** — whenever the
//!    run's terminal cause is *cancelled*, every chunk is bitwise clean
//!    (the in-flight chunk either rolled back under its claim or
//!    committed whole) and the committed chunks form a contiguous
//!    prefix a sequential resume can pick up from;
//! 7. **Exactly one terminal outcome per run** — a run either completes
//!    cleanly or poisons, never both: a cancel that arrives after the
//!    last chunk changes nothing, and a cancelled run never reads as
//!    completed;
//! 8. **Checkpoint capture happens-before token handoff** — the leader
//!    captures the durable checkpoint of chunk *k* while still holding
//!    the claim, so no capture ever observes a chunk beyond *k* mutated
//!    or any chunk torn: a checkpoint can never persist an uncommitted
//!    write.
//!
//! The model follows the runner's code paths step for step: `Seek`
//! calls the roster's own ownership rule (`owned_from`), `Claim`/`Advance`
//! mirror `Token::try_claim`/`try_advance`, `Recover`/`HandBack` mirror
//! `recover_from_panic` (remap under the roster lock, then the unclaim
//! CAS as a separate step — the dangerous window in between is explored),
//! and `DetectStall` mirrors `declare_stall` with the strike ladder
//! compressed to its final verdict. Cancellation is modeled too:
//! `CancelAt` fires the run's cancel flag at an arbitrary point
//! (exploring it at every schedule position covers every cancel
//! timing), `ObserveCancel` mirrors the `wait_to_claim` cancel check,
//! and `CancelAbort`/`CancelCommit` mirror the post-body abort — roll
//! the journaled chunk back under the claim, or commit the
//! unjournalable chunk whole. Checkpointing is modeled as the runner
//! implements it: with `with_checkpointing` the committing executor's
//! `CkptCapture` step reads the arena *between* the commit and the
//! advance CAS, still under the claim — and the capture check flags any
//! schedule where the read could observe an uncommitted write.
//! Abstractions: backoff timing is
//! dropped (any detector may fire whenever the real watchdog *could*
//! have), and strikes escalate immediately — both over-approximate the
//! real scheduler, so the verified state space is a superset of what the
//! runtime can reach.
//!
//! [`Bug`] deliberately re-introduces protocol mistakes (skipping the
//! claim CAS, plain-store release, last-cause-wins poisoning, unclaiming
//! before the journal rollback — on the retry path or the cancel-abort
//! path) so the tests can prove the checker actually *catches*
//! violations instead of vacuously passing.
//!
//! A second state machine ([`DoAcrossModel`]) covers the plan-driven
//! runtime's DOACROSS post/wait protocol ([`crate::sched`]), one gate
//! per chunk, and gates through the runtime's own gate functions: post
//! happens-before wait-satisfied, no worker
//! reads an iteration before its lag window is committed, exactly-once
//! execution. With a cancel step it also completes a cancelled stage as
//! the runtime does, through `sched::uncommitted`, and checks that the
//! executed iterations are then exactly the reported prefix. Its seeded
//! bugs ([`DaBug`]) invert the execute/publish order, shorten the gate
//! window by one and fill a cancelled stage's holes walking downward —
//! all caught by exploration.
//!
//! A third state machine ([`VerifyModel`]) covers the verified-execution
//! protocol (checksummed handoffs into a verify window + blame,
//! `docs/ROBUSTNESS.md` §"Silent data corruption") with three
//! invariants: **no chunk that depends on chunk `c` executes, and no
//! checkpoint covers `c`, before `c`'s audit completes** when a
//! `VerifyPolicy` is armed (the claimant of chunk `j` settles the window
//! before its own execute phase, and a packet `j` is independent of may
//! stay pending for a helper phase to audit when the run repairs in
//! place), **a corrupted chunk is never part of the committed prefix** a
//! typed error reports (the fail path rolls the chunk back to its
//! pre-image before poisoning), and **blame never convicts an innocent
//! worker** under a single-fault assumption (conviction requires the
//! sequential tiebreak — two agreeing replays — *and* the published
//! digest matching the committed bytes, which proves the executor
//! computed them). Its seeded bugs ([`VBug`]) settle the window after
//! the downstream execute instead of before
//! ([`VBug::VerifyAfterHandoff`]), execute past a pending packet the
//! chunk depends on ([`VBug::DeferDependent`]) and blame on a lone
//! mismatch without the tiebreak ([`VBug::BlameWithoutTiebreak`]) — all
//! caught by exploration.

use interleave::{explore, Exploration, Model};

use crate::runner::owned_from;

/// Modeled token word: the three decoded states of [`crate::TokenView`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tok {
    /// Chunk granted, unclaimed (`Granted` in the runtime).
    Granted(u8),
    /// Chunk claimed by an executor (`EXEC_BIT` set).
    Claimed(u8),
    /// Poisoned (`u64::MAX`).
    Poisoned,
}

impl Tok {
    /// The chunk the cascade is at, `None` when poisoned.
    fn position(self) -> Option<u8> {
        match self {
            Tok::Granted(c) | Tok::Claimed(c) => Some(c),
            Tok::Poisoned => None,
        }
    }
}

/// A fault a modeled thread is scripted to inject, once.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelFault {
    /// Panic inside the chunk body before any write lands (fail-stop):
    /// the chunk is legally retryable.
    PanicFailStop,
    /// Panic after partial writes (kernel not fail-stop, no journal):
    /// the chunk must never be re-run.
    PanicMidBody,
    /// Panic after partial writes on a kernel whose write-set the
    /// analyzer bounded: the worker restores the chunk's undo journal
    /// while still holding the claim, then retries as if the fault were
    /// fail-stop.
    PanicMidBodyJournaled,
    /// Panic in the helper phase: no claim held, body untouched.
    PanicHelper,
    /// Go quiet mid-body while holding the claim (a finite stall: the
    /// thread wakes and finishes eventually).
    Stall,
}

/// A deliberately seeded protocol bug, for negative tests: the checker
/// must catch each of these.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Bug {
    /// The faithful protocol.
    #[default]
    None,
    /// Execute without winning the claim CAS (the token stays granted):
    /// breaks exactly-one-executor / at-most-once execution.
    SkipClaim,
    /// Release with a plain store instead of a CAS: a late finisher
    /// resurrects a poisoned token.
    ResurrectToken,
    /// Poison with a store instead of a CAS: a later fault overwrites the
    /// first recorded cause.
    LastCauseWins,
    /// Hand the claim back (the unclaim CAS) *before* applying the undo
    /// journal: a survivor can re-claim the chunk while it is still
    /// torn, breaking rollback-happens-before-re-execution.
    UnclaimBeforeRollback,
    /// On the cancellation abort path, hand the claim back *before*
    /// rolling the in-flight chunk back: the unclaim re-publishes the
    /// chunk to the survivors while its memory is still torn, so a
    /// remap race lets another worker re-claim mid-rollback.
    UnclaimBeforeCancelRollback,
    /// Capture the checkpoint *after* the token handoff instead of
    /// before: a schedule lets the next chunk's executor claim and
    /// mutate memory before the late capture reads it, so the
    /// checkpoint persists an uncommitted write.
    CaptureAfterHandoff,
}

/// What one modeled thread is doing (mirrors the runner's worker loop).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Th {
    /// Between chunks: about to compute its next owned chunk.
    Idle { cursor: u8 },
    /// Helper done, polling the token for `chunk`. Keeps the cursor it
    /// seeked from: a remap may hand this thread an *earlier* chunk, and
    /// the re-seek must restart from the cursor, not from `chunk` (the
    /// runner's `wait_to_claim` re-seeks on every roster-epoch change).
    Waiting { chunk: u8, cursor: u8 },
    /// Won the claim: inside the chunk body.
    Executing { chunk: u8 },
    /// Gone quiet mid-body, claim held (will wake).
    Stalled { chunk: u8 },
    /// Body done, about to CAS the token forward.
    Releasing { chunk: u8 },
    /// Panicked; about to climb the recovery ladder.
    Recovering {
        chunk: u8,
        claimed: bool,
        fail_stop: bool,
    },
    /// Panicked mid-body with a captured journal; about to restore the
    /// chunk's write-set bitwise. `recovered` marks the seeded-bug path
    /// ([`Bug::UnclaimBeforeRollback`]) where the ladder already ran and
    /// the rollback is landing late, after the unclaim.
    RollingBack { chunk: u8, recovered: bool },
    /// Self-quarantined and remapped; about to hand the claim back.
    /// `rollback_after` is only ever true under
    /// [`Bug::UnclaimBeforeRollback`]: the undo journal is still
    /// unapplied and will run after the unclaim.
    HandingBack { chunk: u8, rollback_after: bool },
    /// Cancellation abort of a journaled chunk: the body completed but
    /// the run is cancelled, so the worker restores the chunk's undo
    /// journal. `unclaimed` marks the seeded-bug path
    /// ([`Bug::UnclaimBeforeCancelRollback`]) where the claim was
    /// handed back first and the rollback is landing late.
    CancelRollingBack { chunk: u8, unclaimed: bool },
    /// Checkpoint capture pending *after* the token handoff: only ever
    /// reached under [`Bug::CaptureAfterHandoff`] (the faithful order
    /// captures from `Releasing`, claim still held).
    Capturing { chunk: u8 },
    /// Fell through the ladder; about to poison the token. `cancelled`
    /// marks a poison whose cause is run cancellation rather than a
    /// fault — the terminal-outcome invariant keys off which cause wins.
    Poisoning { chunk: u8, cancelled: bool },
    /// Drained.
    Done,
}

/// One atomic protocol step some thread takes.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// Compute the next owned chunk from the roster (or drain).
    Seek(usize),
    /// Notice supersession / poisoning / remap / quarantine while waiting.
    Observe(usize),
    /// The claim CAS: granted(j) → claimed(j).
    Claim(usize),
    /// Run the chunk body to completion.
    Execute(usize),
    /// Inject this thread's scripted fault instead of executing.
    Fault(usize),
    /// The advance CAS: claimed(j) → granted(j+1), refused when poisoned.
    Advance(usize),
    /// Recovery ladder: budget, roster remove + re-anchor, quarantine.
    Recover(usize),
    /// Restore the chunk's write-set from the undo journal (bitwise).
    Rollback(usize),
    /// The unclaim CAS: hand a retryable chunk back to the survivors.
    HandBack(usize),
    /// The poison CAS (first cause wins).
    Poison(usize),
    /// A waiter's watchdog verdict against a suspect (strike ladder
    /// compressed to its final outcome).
    DetectStall {
        /// The waiting thread whose watchdog fired. Only counterexample
        /// traces read it, through `Debug`.
        #[allow(dead_code)]
        detector: usize,
        /// The thread it blames.
        suspect: usize,
    },
    /// A stalled executor wakes and finishes its body.
    Wake(usize),
    /// The governor (deadline thread, budget refusal, or user) fires the
    /// run's cancel flag. Exploring this at every schedule position
    /// covers every possible cancel timing.
    CancelAt,
    /// A waiter notices the cancel flag and poisons with the
    /// `Cancelled` cause (mirrors the `wait_to_claim` cancel check).
    ObserveCancel(usize),
    /// Post-body cancel abort of a *journaled* chunk: roll the completed
    /// body back under the claim, then poison.
    CancelAbort(usize),
    /// Post-body cancel abort of an *unjournalable* chunk: commit the
    /// completed body whole, then poison without advancing.
    CancelCommit(usize),
    /// The committing executor captures the durable checkpoint: reads
    /// the arena covering chunks `..=k`. Faithful order: from
    /// `Releasing`, claim still held, before the advance CAS. The
    /// capture check records a violation if the read could observe a
    /// chunk beyond `k` mutated or any chunk torn.
    CkptCapture(usize),
}

/// Explicit state of the modeled protocol: token word, per-thread
/// control state, roster, health, retry budget, and the bookkeeping the
/// invariants need. Build one with [`Protocol::new`] and the `with_*`
/// methods, then hand it to [`verify`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Protocol {
    // Scenario (constant across a run, varied across tests).
    chunks: u8,
    spurious: bool,
    cancel: bool,
    ckpt: bool,
    bug: Bug,
    plan: Vec<Option<(u8, ModelFault)>>,
    // Dynamic protocol state.
    budget: u8,
    cancel_fired: bool,
    fired: Vec<bool>,
    token: Tok,
    threads: Vec<Th>,
    executed: Vec<u8>,
    mutated: Vec<bool>,
    torn: Vec<bool>,
    live: Vec<u8>,
    base: u8,
    quarantined: Vec<bool>,
    cause: Option<(u8, u8)>,
    /// Chunks already covered by a published checkpoint (the sink
    /// no-ops on re-delivery of a covered commit).
    ckpt_done: Vec<bool>,
    // Violation trackers (set in apply, reported by invariant).
    was_poisoned: bool,
    max_pos: u8,
    moved_back: bool,
    cause_overwritten: bool,
    double_exec: bool,
    claimed_torn: bool,
    /// The installed (first-cause-wins) poison cause is `Cancelled`.
    cancelled_poison: bool,
    /// A checkpoint capture observed an uncommitted write (a chunk
    /// beyond the captured prefix mutated, or a torn chunk).
    ckpt_dirty: bool,
}

impl Protocol {
    /// A faithful protocol over `nthreads` threads, `chunks` chunks and a
    /// retry `budget`, with no scripted faults.
    pub fn new(nthreads: usize, chunks: u8, budget: u8) -> Self {
        Protocol {
            chunks,
            spurious: false,
            cancel: false,
            ckpt: false,
            bug: Bug::None,
            plan: vec![None; nthreads],
            budget,
            cancel_fired: false,
            fired: vec![false; nthreads],
            token: Tok::Granted(0),
            threads: vec![Th::Idle { cursor: 0 }; nthreads],
            executed: vec![0; chunks as usize],
            mutated: vec![false; chunks as usize],
            torn: vec![false; chunks as usize],
            live: (0..nthreads as u8).collect(),
            base: 0,
            quarantined: vec![false; nthreads],
            cause: None,
            ckpt_done: vec![false; chunks as usize],
            was_poisoned: false,
            max_pos: 0,
            moved_back: false,
            cause_overwritten: false,
            double_exec: false,
            claimed_torn: false,
            cancelled_poison: false,
            ckpt_dirty: false,
        }
    }

    /// Script thread `t` to inject `fault` at `chunk` (once).
    pub fn with_fault(mut self, t: usize, chunk: u8, fault: ModelFault) -> Self {
        self.plan[t] = Some((chunk, fault));
        self
    }

    /// Let detectors fire spuriously against healthy owners of a granted
    /// chunk — the watchdog false-positive a slow-but-alive worker causes.
    pub fn with_spurious_detection(mut self) -> Self {
        self.spurious = true;
        self
    }

    /// Seed a protocol bug the checker must catch.
    pub fn with_bug(mut self, bug: Bug) -> Self {
        self.bug = bug;
        self
    }

    /// Let the governor fire the run's cancel flag at an arbitrary point
    /// in the schedule (covers user cancels, deadlines and budget
    /// refusals — all three raise the same flag).
    pub fn with_cancellation(mut self) -> Self {
        self.cancel = true;
        self
    }

    /// Checkpoint every committed chunk: the executor's commit path
    /// captures the arena before the advance CAS (claim still held).
    /// Modeling every commit as due over-approximates every real policy
    /// (`EveryChunks(n)` / `EveryMillis(t)` capture at a subset of these
    /// points).
    pub fn with_checkpointing(mut self) -> Self {
        self.ckpt = true;
        self
    }

    /// The capture check: a checkpoint covering chunks `..=chunk` must
    /// never read a later chunk's mutation or any torn chunk — either
    /// would persist an uncommitted write.
    fn capture(&mut self, chunk: u8) {
        let dirty = self
            .mutated
            .iter()
            .enumerate()
            .any(|(c, &m)| m && c as u8 > chunk)
            || self.torn.iter().any(|&t| t);
        if dirty {
            self.ckpt_dirty = true;
        }
        self.ckpt_done[chunk as usize] = true;
    }

    /// `Roster::owner_of`, modeled.
    fn owner_of(&self, chunk: u8) -> Option<u8> {
        if self.live.is_empty() || chunk < self.base {
            return None;
        }
        let l = self.live.len() as u8;
        Some(self.live[((chunk - self.base) % l) as usize])
    }

    /// `Roster::next_owned`: the runtime's own ownership rule.
    fn next_owned(&self, t: u8, from: u8) -> Option<u8> {
        let idx = self.live.iter().position(|&x| x == t)?;
        let (len, base) = (self.live.len() as u64, u64::from(self.base));
        Some(owned_from(idx as u64, len, base, u64::from(from)) as u8)
    }

    /// Move the token, tracking monotonicity for the invariant.
    fn set_token(&mut self, tok: Tok) {
        if let Some(p) = tok.position() {
            if p < self.max_pos {
                self.moved_back = true;
            }
            self.max_pos = self.max_pos.max(p);
        }
        self.token = tok;
    }

    /// `Token::poison_with`, modeled (a CAS: first cause wins) — except
    /// under [`Bug::LastCauseWins`], which overwrites like a plain store.
    /// Returns `true` when this call installed the cause (won the CAS).
    fn poison(&mut self, by: u8, chunk: u8) -> bool {
        if self.token == Tok::Poisoned {
            if self.bug == Bug::LastCauseWins {
                self.cause = Some((by, chunk));
                self.cause_overwritten = true;
            }
            return false;
        }
        self.token = Tok::Poisoned;
        self.was_poisoned = true;
        self.cause = Some((by, chunk));
        true
    }

    /// Does thread `i` have an unfired body fault scripted at `chunk`?
    fn body_fault_pending(&self, i: usize, chunk: u8) -> bool {
        matches!(self.plan[i], Some((c, f)) if c == chunk && f != ModelFault::PanicHelper)
            && !self.fired[i]
    }
}

impl Model for Protocol {
    type Action = Step;

    fn actions(&self) -> Vec<Step> {
        let mut acts = Vec::new();
        for (i, th) in self.threads.iter().enumerate() {
            match *th {
                Th::Idle { .. } => acts.push(Step::Seek(i)),
                Th::Waiting { chunk, cursor } => {
                    if self.token == Tok::Granted(chunk) {
                        acts.push(Step::Claim(i));
                    }
                    // The `wait_to_claim` cancel check: a waiter on a
                    // real chunk proves the run is incomplete, so it may
                    // poison with the Cancelled cause.
                    if self.cancel_fired {
                        acts.push(Step::ObserveCancel(i));
                    }
                    // Re-seek whenever poisoned, quarantined, or a
                    // supersession/remap means seeking again would land
                    // on a different chunk (possibly an *earlier* one we
                    // now own) — mirroring `wait_to_claim`'s poison,
                    // quarantine, supersession and epoch checks.
                    let reseek_differs = match self.token.position() {
                        None => true,
                        Some(p) => self.next_owned(i as u8, cursor.max(p)) != Some(chunk),
                    };
                    if reseek_differs || self.quarantined[i] {
                        acts.push(Step::Observe(i));
                    }
                    // The watchdog: a waiter may blame the thread holding
                    // things up, whenever the real timer could have fired.
                    match self.token {
                        Tok::Claimed(c) => {
                            for (s, sth) in self.threads.iter().enumerate() {
                                if s != i && matches!(sth, Th::Stalled { chunk } if *chunk == c) {
                                    acts.push(Step::DetectStall {
                                        detector: i,
                                        suspect: s,
                                    });
                                }
                            }
                        }
                        Tok::Granted(c) if self.spurious => {
                            if let Some(s) = self.owner_of(c) {
                                if s as usize != i && !self.quarantined[s as usize] {
                                    acts.push(Step::DetectStall {
                                        detector: i,
                                        suspect: s as usize,
                                    });
                                }
                            }
                        }
                        _ => {}
                    }
                }
                Th::Executing { chunk } => {
                    if self.body_fault_pending(i, chunk) {
                        acts.push(Step::Fault(i));
                    } else {
                        acts.push(Step::Execute(i));
                    }
                }
                Th::Stalled { .. } => acts.push(Step::Wake(i)),
                Th::Releasing { chunk } => {
                    if self.ckpt
                        && !self.ckpt_done[chunk as usize]
                        && self.bug != Bug::CaptureAfterHandoff
                    {
                        // Faithful order: the commit path captures the
                        // checkpoint before the advance CAS, claim still
                        // held — the advance only becomes available once
                        // the capture has happened.
                        acts.push(Step::CkptCapture(i));
                    } else {
                        acts.push(Step::Advance(i));
                    }
                    // Post-body cancel check: the executor may notice the
                    // flag before advancing (the Advance action models it
                    // missing the racing store). Both kernel kinds are
                    // explored: journaled chunks roll back, unjournalable
                    // chunks commit whole. The runner's single cancel
                    // check precedes the commit and capture, so once a
                    // checkpoint covered this chunk the abort window is
                    // closed.
                    if self.cancel_fired && !self.ckpt_done[chunk as usize] {
                        acts.push(Step::CancelAbort(i));
                        acts.push(Step::CancelCommit(i));
                    }
                }
                Th::Capturing { .. } => acts.push(Step::CkptCapture(i)),
                Th::Recovering { .. } => acts.push(Step::Recover(i)),
                Th::RollingBack { .. } | Th::CancelRollingBack { .. } => {
                    acts.push(Step::Rollback(i))
                }
                Th::HandingBack { .. } => acts.push(Step::HandBack(i)),
                Th::Poisoning { .. } => acts.push(Step::Poison(i)),
                Th::Done => {}
            }
        }
        if self.cancel && !self.cancel_fired {
            acts.push(Step::CancelAt);
        }
        acts
    }

    fn apply(&self, step: &Step) -> Self {
        let mut s = self.clone();
        match *step {
            Step::Seek(i) => {
                let Th::Idle { cursor } = s.threads[i] else {
                    unreachable!("Seek from non-Idle")
                };
                if s.quarantined[i] {
                    s.threads[i] = Th::Done;
                    return s;
                }
                let Some(pos) = s.token.position() else {
                    s.threads[i] = Th::Done;
                    return s;
                };
                let cursor = cursor.max(pos);
                match s.next_owned(i as u8, cursor) {
                    Some(j) if j < s.chunks => {
                        if let Some((fc, ModelFault::PanicHelper)) = s.plan[i] {
                            if fc == j && !s.fired[i] {
                                s.fired[i] = true;
                                s.threads[i] = Th::Recovering {
                                    chunk: j,
                                    claimed: false,
                                    fail_stop: true,
                                };
                                return s;
                            }
                        }
                        s.threads[i] = Th::Waiting { chunk: j, cursor };
                    }
                    _ => {
                        // Drained: leave the roster before exiting so a
                        // later remap can never orphan a chunk on an
                        // already-exited worker (mirrors the runner's
                        // drain-exit removal).
                        if s.live.len() > 1 && s.live.contains(&(i as u8)) {
                            s.live.retain(|&x| x != i as u8);
                            s.base = s.base.max(pos);
                        }
                        s.threads[i] = Th::Done;
                    }
                }
            }
            Step::Observe(i) => {
                let Th::Waiting { cursor, .. } = s.threads[i] else {
                    unreachable!("Observe from non-Waiting")
                };
                if s.token == Tok::Poisoned || s.quarantined[i] {
                    s.threads[i] = Th::Done;
                } else {
                    // Re-seek from the *cursor*, not the waited chunk: a
                    // remap may have handed us an earlier granted chunk.
                    s.threads[i] = Th::Idle { cursor };
                }
            }
            Step::Claim(i) => {
                let Th::Waiting { chunk, .. } = s.threads[i] else {
                    unreachable!("Claim from non-Waiting")
                };
                if s.torn[chunk as usize] {
                    // Re-claiming a chunk whose partial writes were never
                    // rolled back: the retry would read torn state.
                    s.claimed_torn = true;
                }
                if s.bug != Bug::SkipClaim {
                    s.set_token(Tok::Claimed(chunk));
                }
                s.threads[i] = Th::Executing { chunk };
            }
            Step::Execute(i) | Step::Wake(i) => {
                let (Th::Executing { chunk } | Th::Stalled { chunk }) = s.threads[i] else {
                    unreachable!("Execute/Wake from non-body state")
                };
                if s.mutated[chunk as usize] {
                    s.double_exec = true;
                }
                s.executed[chunk as usize] += 1;
                s.mutated[chunk as usize] = true;
                s.threads[i] = Th::Releasing { chunk };
            }
            Step::Fault(i) => {
                let Th::Executing { chunk } = s.threads[i] else {
                    unreachable!("Fault from non-Executing")
                };
                let (_, kind) = s.plan[i].expect("fault action requires a plan");
                s.fired[i] = true;
                s.threads[i] = match kind {
                    ModelFault::PanicFailStop => Th::Recovering {
                        chunk,
                        claimed: true,
                        fail_stop: true,
                    },
                    ModelFault::PanicMidBody => {
                        s.mutated[chunk as usize] = true;
                        s.torn[chunk as usize] = true;
                        Th::Recovering {
                            chunk,
                            claimed: true,
                            fail_stop: false,
                        }
                    }
                    ModelFault::PanicMidBodyJournaled => {
                        s.mutated[chunk as usize] = true;
                        s.torn[chunk as usize] = true;
                        if s.bug == Bug::UnclaimBeforeRollback {
                            // Seeded bug: climb the ladder (and unclaim)
                            // with the journal still unapplied — the
                            // rollback lands too late.
                            Th::Recovering {
                                chunk,
                                claimed: true,
                                fail_stop: true,
                            }
                        } else {
                            Th::RollingBack {
                                chunk,
                                recovered: false,
                            }
                        }
                    }
                    ModelFault::Stall => Th::Stalled { chunk },
                    ModelFault::PanicHelper => unreachable!("helper faults fire at Seek"),
                };
            }
            Step::Advance(i) => {
                let Th::Releasing { chunk } = s.threads[i] else {
                    unreachable!("Advance from non-Releasing")
                };
                match s.token {
                    Tok::Claimed(c) if c == chunk => {
                        s.set_token(Tok::Granted(chunk + 1));
                        s.threads[i] = if s.bug == Bug::CaptureAfterHandoff
                            && s.ckpt
                            && !s.ckpt_done[chunk as usize]
                        {
                            // Seeded bug: the token is already handed off
                            // but the capture has not happened yet — the
                            // successor may mutate chunk+1 before we read.
                            Th::Capturing { chunk }
                        } else {
                            Th::Idle { cursor: chunk + 1 }
                        };
                    }
                    Tok::Poisoned if s.bug == Bug::ResurrectToken => {
                        // Plain store instead of the CAS: resurrection.
                        s.token = Tok::Granted(chunk + 1);
                        s.threads[i] = Th::Idle { cursor: chunk + 1 };
                    }
                    _ => {
                        // CAS refused (poisoned, or — under SkipClaim —
                        // never claimed): late completion, drain.
                        s.threads[i] = Th::Done;
                    }
                }
            }
            Step::CkptCapture(i) => match s.threads[i] {
                Th::Releasing { chunk } => {
                    // Faithful order: claim still held, so no successor
                    // can have started chunk+1 — the capture reads only
                    // committed prefix state. `ckpt_done` now gates the
                    // Releasing arm over to Advance.
                    s.capture(chunk);
                }
                Th::Capturing { chunk } => {
                    // Seeded-bug tail: capture after the handoff, racing
                    // the successor's execution of chunk+1.
                    s.capture(chunk);
                    s.threads[i] = Th::Idle { cursor: chunk + 1 };
                }
                _ => unreachable!("CkptCapture from non-capturing state"),
            },
            Step::Recover(i) => {
                let Th::Recovering {
                    chunk,
                    claimed,
                    fail_stop,
                } = s.threads[i]
                else {
                    unreachable!("Recover from non-Recovering")
                };
                if (claimed && !fail_stop) || s.budget == 0 {
                    // Unretryable chunk or dry budget: fall through.
                    s.threads[i] = Th::Poisoning {
                        chunk,
                        cancelled: false,
                    };
                    return s;
                }
                if s.live.contains(&(i as u8)) {
                    if s.live.len() == 1 {
                        // Last live worker: no survivor to retry on.
                        s.threads[i] = Th::Poisoning {
                            chunk,
                            cancelled: false,
                        };
                        return s;
                    }
                    let Some(anchor) = s.token.position() else {
                        // Poisoned while we recovered: just report.
                        s.threads[i] = Th::Poisoning {
                            chunk,
                            cancelled: false,
                        };
                        return s;
                    };
                    s.budget -= 1;
                    s.live.retain(|&x| x != i as u8);
                    s.base = s.base.max(anchor);
                    s.quarantined[i] = true;
                }
                // (If we were not live, a detector already quarantined and
                // remapped us — just hand the chunk back.)
                s.threads[i] = if claimed {
                    Th::HandingBack {
                        chunk,
                        // Only the seeded UnclaimBeforeRollback path can
                        // reach here with the chunk still torn: the
                        // faithful order rolled back before recovering.
                        rollback_after: s.torn[chunk as usize],
                    }
                } else {
                    Th::Done
                };
            }
            Step::Rollback(i) => match s.threads[i] {
                Th::RollingBack { chunk, recovered } => {
                    // Bitwise restore: the chunk's write-set is pristine
                    // again — legally re-executable, no longer torn.
                    s.torn[chunk as usize] = false;
                    s.mutated[chunk as usize] = false;
                    s.threads[i] = if recovered {
                        // Seeded-bug tail: the ladder already ran.
                        Th::Done
                    } else {
                        // Faithful order: rollback first (claim still
                        // held), then climb the ladder as if the kernel
                        // were fail-stop — the chunk is pristine.
                        Th::Recovering {
                            chunk,
                            claimed: true,
                            fail_stop: true,
                        }
                    };
                }
                Th::CancelRollingBack { chunk, unclaimed } => {
                    // Cancellation abort: the completed body is undone
                    // bitwise, so the chunk reverts to unexecuted and the
                    // sequential resume point is its first iteration.
                    s.torn[chunk as usize] = false;
                    s.mutated[chunk as usize] = false;
                    s.executed[chunk as usize] -= 1;
                    s.threads[i] = if unclaimed {
                        // Seeded-bug tail: the claim was already handed
                        // back; nothing left but to drain.
                        Th::Done
                    } else {
                        Th::Poisoning {
                            chunk,
                            cancelled: true,
                        }
                    };
                }
                _ => unreachable!("Rollback from non-rollback state"),
            },
            Step::HandBack(i) => {
                let Th::HandingBack {
                    chunk,
                    rollback_after,
                } = s.threads[i]
                else {
                    unreachable!("HandBack from non-HandingBack")
                };
                if s.token == Tok::Claimed(chunk) {
                    // The unclaim CAS: a survivor will re-claim.
                    s.set_token(Tok::Granted(chunk));
                    s.threads[i] = if rollback_after {
                        // Seeded-bug ordering: the journal is applied
                        // only now, after the unclaim already published
                        // the chunk to the survivors.
                        Th::RollingBack {
                            chunk,
                            recovered: true,
                        }
                    } else {
                        Th::Done
                    };
                } else {
                    // Poisoned while recovering: the fall-through poison
                    // call is a no-op CAS, modeled for the cause check.
                    s.threads[i] = Th::Poisoning {
                        chunk,
                        cancelled: false,
                    };
                }
            }
            Step::Poison(i) => {
                let Th::Poisoning { chunk, cancelled } = s.threads[i] else {
                    unreachable!("Poison from non-Poisoning")
                };
                if s.poison(i as u8, chunk) && cancelled {
                    s.cancelled_poison = true;
                }
                s.threads[i] = Th::Done;
            }
            Step::CancelAt => {
                s.cancel_fired = true;
            }
            Step::ObserveCancel(i) => {
                let Th::Waiting { chunk, .. } = s.threads[i] else {
                    unreachable!("ObserveCancel from non-Waiting")
                };
                s.threads[i] = Th::Poisoning {
                    chunk,
                    cancelled: true,
                };
            }
            Step::CancelAbort(i) => {
                let Th::Releasing { chunk } = s.threads[i] else {
                    unreachable!("CancelAbort from non-Releasing")
                };
                // Journaled chunk: undo the completed body. Until the
                // rollback lands the chunk's memory is torn; the faithful
                // order keeps the claim for the whole window.
                s.torn[chunk as usize] = true;
                if s.bug == Bug::UnclaimBeforeCancelRollback && s.token == Tok::Claimed(chunk) {
                    // Seeded bug: hand the claim back first, re-publishing
                    // the torn chunk to the survivors.
                    s.set_token(Tok::Granted(chunk));
                    s.threads[i] = Th::CancelRollingBack {
                        chunk,
                        unclaimed: true,
                    };
                } else {
                    s.threads[i] = Th::CancelRollingBack {
                        chunk,
                        unclaimed: false,
                    };
                }
            }
            Step::CancelCommit(i) => {
                let Th::Releasing { chunk } = s.threads[i] else {
                    unreachable!("CancelCommit from non-Releasing")
                };
                // Unjournalable chunk: it commits whole (stays executed)
                // and the worker poisons without advancing — the resume
                // point is the next chunk.
                s.threads[i] = Th::Poisoning {
                    chunk,
                    cancelled: true,
                };
            }
            Step::DetectStall { suspect, .. } => match s.token {
                Tok::Claimed(c) => {
                    // A stuck executor may still write: unretryable.
                    s.poison(suspect as u8, c);
                }
                Tok::Granted(c) => {
                    if !s.quarantined[suspect] {
                        if s.budget == 0 || s.live.len() <= 1 {
                            s.poison(suspect as u8, c);
                        } else if s.live.contains(&(suspect as u8)) {
                            s.quarantined[suspect] = true;
                            s.budget -= 1;
                            s.live.retain(|&x| x != suspect as u8);
                            s.base = s.base.max(c);
                        }
                    }
                }
                Tok::Poisoned => {}
            },
        }
        s
    }

    fn invariant(&self) -> Result<(), String> {
        let executors = self
            .threads
            .iter()
            .filter(|t| matches!(t, Th::Executing { .. } | Th::Stalled { .. }))
            .count();
        if executors > 1 {
            return Err(format!("{executors} simultaneous executors"));
        }
        if self.double_exec {
            return Err("a chunk was executed again after mutation".into());
        }
        if self.claimed_torn {
            return Err("a torn chunk was re-claimed before its rollback".into());
        }
        if self.was_poisoned && self.token != Tok::Poisoned {
            return Err("a poisoned token was resurrected".into());
        }
        if self.moved_back {
            return Err("the token moved backward (lost hand-off)".into());
        }
        if self.cause_overwritten {
            return Err("the first poison cause was overwritten".into());
        }
        if self.ckpt_dirty {
            return Err("a checkpoint observed an uncommitted write".into());
        }
        Ok(())
    }

    fn is_accepting(&self) -> bool {
        self.threads.iter().all(|t| matches!(t, Th::Done))
    }

    fn final_check(&self) -> Result<(), String> {
        if self.cancelled_poison {
            // The run's terminal cause is Cancelled: the resume guarantee
            // requires a bitwise-clean committed prefix — no torn chunk,
            // no chunk executed twice, and no gap a sequential resume
            // from `committed_iters` would silently skip.
            if let Some(c) = self.torn.iter().position(|&t| t) {
                return Err(format!("cancelled run left chunk {c} torn"));
            }
            if let Some(c) = self.executed.iter().position(|&n| n > 1) {
                return Err(format!("cancelled run committed chunk {c} twice"));
            }
            let mut gap = false;
            for (c, &n) in self.executed.iter().enumerate() {
                if n == 0 {
                    gap = true;
                } else if gap {
                    return Err(format!(
                        "cancelled run committed chunk {c} after an uncommitted gap"
                    ));
                }
            }
            return Ok(());
        }
        if self.was_poisoned {
            // Fell through the ladder; salvage takes over outside the
            // model. The invariants already guaranteed no corruption.
            return Ok(());
        }
        // Exactly one terminal outcome: with neither a cancelled nor a
        // faulted poison the run must have completed cleanly — even when
        // the cancel flag fired but arrived too late to be observed.
        if self.token != Tok::Granted(self.chunks) {
            return Err(format!(
                "clean run ended with the token at {:?}, not Granted({})",
                self.token, self.chunks
            ));
        }
        for (c, &n) in self.executed.iter().enumerate() {
            if n != 1 {
                return Err(format!("chunk {c} executed {n} times"));
            }
        }
        if let Some(c) = self.torn.iter().position(|&t| t) {
            return Err(format!(
                "clean run accepted with chunk {c} still torn (rollback never ran)"
            ));
        }
        Ok(())
    }
}

/// Exhaustively explore `scenario`, panicking if the state space exceeds
/// `max_states` (a truncated exploration must never read as a pass).
pub fn verify(scenario: Protocol, max_states: usize) -> Exploration<Step> {
    let result = explore(scenario, max_states);
    assert!(
        !result.truncated,
        "exploration truncated at {} states — raise max_states",
        result.states
    );
    result
}

// ---------------------------------------------------------------------------
// DOACROSS post/wait model
// ---------------------------------------------------------------------------

/// A deliberately seeded bug in the DOACROSS post/wait protocol, for
/// negative tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DaBug {
    /// The faithful protocol: execute the chunk, then publish the
    /// frontier.
    #[default]
    None,
    /// Publish the chunk's frontier as soon as its gate opens, *before*
    /// executing it: a gated peer observes `posts[w] = end`, reads the
    /// chunk's output, and finds stale memory — post must
    /// happen-before wait-satisfied.
    PostBeforeExec,
    /// Gate with window `lag + 1` instead of `lag` — the "wait for
    /// `lag - 1` commits" off-by-one. One predecessor fewer is demanded,
    /// so where a chunk is shorter than the lag a schedule exists in
    /// which iteration `j` runs while `j - lag` is still unexecuted.
    WaitTooShort,
    /// After a cancel, walk the stage's uncommitted chunks in descending
    /// order through the fill loop: it meets the uncommitted suffix
    /// first, stops there, and reports a prefix with its holes still
    /// unfilled.
    FillDescending,
    /// Gate a pipelined consumer's chunk on its producer's iteration
    /// `end − 2` instead of its last, `end − 1`: with one-iteration chunks
    /// a consumer iteration runs before the producer iteration it reads.
    ConsumerGateShort,
    /// Report a cancelled pair's prefix inside the producer even after
    /// the consumer committed a chunk, which the resume then runs again.
    PrefixInProducer,
}

/// One atomic step of the DOACROSS model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DaStep {
    /// Execute the next iteration of the worker's current chunk (the
    /// chunk's gate is open, or was when its first iteration ran).
    Exec {
        /// Acting worker.
        worker: u8,
    },
    /// Publish the worker's committed frontier (the `Release` store).
    Post {
        /// Acting worker.
        worker: u8,
    },
    /// Fire the run's cancel token (once, [`DoAcrossModel::with_cancel`]).
    Cancel,
    /// A worker at a chunk boundary or gate observes the cancel and
    /// leaves the stage.
    Stop {
        /// Acting worker.
        worker: u8,
    },
    /// A pipelined consumer worker claims the next chunk from the cursor.
    Claim {
        /// Acting worker.
        worker: u8,
    },
    /// A pipelined consumer worker whose gate is open executes and
    /// commits its claimed chunk.
    Consume {
        /// Acting worker.
        worker: u8,
    },
    /// A pipelined consumer worker observes the cancel at a chunk
    /// boundary or gate and leaves, abandoning a claimed chunk.
    Leave {
        /// Acting worker.
        worker: u8,
    },
}

/// Explicit-state model of the planned runtime's DOACROSS post/wait
/// protocol ([`crate::sched`]): round-robin chunk ownership, in-order
/// execution within each worker, one gate per chunk, and a padded
/// per-worker committed frontier published once per chunk. The gate is
/// the runtime's own: `sched::chunk_gate_dep` picks the dependence
/// iteration and `sched::gate_open` checks it against **every** worker's
/// frontier (checking one counter would re-introduce the off-by-a-chunk
/// bug).
///
/// A chunk's iterations are separate atomic actions, and so is its
/// post, so the model explores every interleaving of concurrent chunks
/// at iteration granularity — including the window between a chunk's
/// last iteration and its post, exactly where [`DaBug::PostBeforeExec`]
/// breaks. The gate's multi-counter read is modeled as one atomic
/// predicate: `posts` counters are monotone and the gate only tests
/// `≥` thresholds, so a torn non-atomic read can delay admission but
/// never falsely grant it — the abstraction over-approximates nothing.
///
/// Invariants, checked in every reachable state:
/// 1. **Post happens-before wait-satisfied** — `posts[w] = f` implies
///    every `w`-owned iteration below `f` has executed;
/// 2. **Lag safety** — no iteration `j` executes while some iteration
///    `≤ j − lag` is still unexecuted (no worker reads an iteration
///    before its lag window is committed);
/// 3. **At-most-once execution**, with exactly-once on acceptance.
///
/// With [`DoAcrossModel::with_cancel`] a `Cancel` step may fire at any
/// point. A worker mid-chunk finishes its chunk and posts it; a worker at
/// a chunk boundary or gate may `Stop`, or still start a chunk whose gate
/// is open (its last poll raced the cancel). At quiescence the model
/// completes the stage as the runtime's degraded path does, through the
/// runtime's own functions: `sched::uncommitted` reads the frontiers and
/// splits off the holes, which run in ascending order until the first
/// chunk of the uncommitted suffix, the resume point. Then:
///
/// 4. **Exact prefix after a cancel** — every iteration below the resume
///    point ran exactly once and none above it, and every filled
///    iteration found its lag window executed.
///
/// [`DoAcrossModel::pipelined`] adds the two-stage shape of a pipelined
/// pair: the DOACROSS stage above is the producer, with worker 0 its one
/// owner, and a DOALL consumer over the same iterations claims its chunks
/// in order from a cursor, each gated through `sched::gate_open` with one
/// owner on the producer's frontier at `sched::consumer_gate_dep`. Worker
/// 0 joins the consumer once its producer share is done. Then:
///
/// 5. **Pair lag safety** — no consumer iteration runs before every
///    producer iteration at or below it, and none runs twice;
/// 6. **The pair's cancel rule** — the degraded path runs as the
///    runtime's: `sched::uncommitted` for each stage, and
///    `sched::prefix_in_consumer` decides whether the producer runs to its
///    end and the prefix lies in the consumer, past its holes. Every
///    iteration of the fissioned pair below the prefix ran exactly once,
///    and none above it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DoAcrossModel {
    nthreads: u8,
    iters: u8,
    chunk: u8,
    lag: u8,
    bug: DaBug,
    /// Whether a `Cancel` step may fire, and whether it has.
    cancellable: bool,
    cancelled: bool,
    /// Workers that left the stage on the cancel.
    stopped: Vec<bool>,
    /// Published committed frontier per worker.
    posts: Vec<u8>,
    /// Times each iteration's body ran (ground truth).
    executed: Vec<u8>,
    /// Next iteration per worker; `u8::MAX` = exhausted.
    next: Vec<u8>,
    /// Whether the worker's current chunk has passed its gate.
    admitted: Vec<bool>,
    /// `Some(end)` once the current chunk has executed and awaits its
    /// post (faithful order only).
    pending: Vec<Option<u8>>,
    /// The pipelined consumer of the two-stage shape.
    consumer: Option<Consumer>,
}

/// A pipelined pair's DOALL consumer in [`DoAcrossModel`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Consumer {
    /// The next chunk to claim.
    cursor: u8,
    /// Per worker: the chunk it claimed and has not yet executed.
    held: Vec<Option<u8>>,
    /// Per worker: one past the chunk it abandoned (0: none), the
    /// runtime's DOALL slot.
    slots: Vec<u8>,
    /// Workers that left on the cancel.
    left: Vec<bool>,
    /// Times each consumer iteration's body ran.
    executed: Vec<u8>,
}

impl DoAcrossModel {
    /// A fresh model: `nthreads` workers over `iters` iterations in
    /// round-robin chunks of `chunk`, carried lag `lag`.
    pub fn new(nthreads: u8, iters: u8, chunk: u8, lag: u8) -> Self {
        assert!(nthreads >= 1 && chunk >= 1 && lag >= 1);
        let next = (0..nthreads)
            .map(|w| {
                let j = w as u64 * chunk as u64; // first owned chunk
                if j < iters as u64 {
                    j as u8
                } else {
                    u8::MAX
                }
            })
            .collect();
        DoAcrossModel {
            nthreads,
            iters,
            chunk,
            lag,
            bug: DaBug::None,
            posts: vec![0; nthreads as usize],
            executed: vec![0; iters as usize],
            next,
            admitted: vec![false; nthreads as usize],
            pending: vec![None; nthreads as usize],
            cancellable: false,
            cancelled: false,
            stopped: vec![false; nthreads as usize],
            consumer: None,
        }
    }

    /// The two-stage shape: a producer of carried lag `lag ≤ chunk` run by
    /// worker 0 alone, and a DOALL consumer over the same `iters` on
    /// `workers` workers behind its frontier.
    pub fn pipelined(workers: u8, iters: u8, chunk: u8, lag: u8) -> Self {
        assert!(workers >= 1 && lag <= chunk);
        let mut s = DoAcrossModel::new(1, iters, chunk, lag);
        s.consumer = Some(Consumer {
            cursor: 0,
            held: vec![None; workers as usize],
            slots: vec![0; workers as usize],
            left: vec![false; workers as usize],
            executed: vec![0; iters as usize],
        });
        s
    }

    /// Let a `Cancel` step fire at any point of the run.
    pub fn with_cancel(mut self) -> Self {
        self.cancellable = true;
        self
    }

    /// Seed a protocol bug (negative tests).
    pub fn with_bug(mut self, bug: DaBug) -> Self {
        self.bug = bug;
        self
    }

    /// The chunk holding iteration `j`.
    fn range_of(&self, j: u8) -> std::ops::Range<u64> {
        let c = self.chunk as u64;
        crate::sched::chunk_range(j as u64 / c, c, self.iters as u64)
    }

    /// The first iteration of `w`'s next owned chunk after the one that
    /// ends at `end`, or `u8::MAX`.
    fn next_chunk_start(&self, end: u64) -> u8 {
        let j = end + (self.nthreads as u64 - 1) * self.chunk as u64;
        if j < self.iters as u64 {
            j as u8
        } else {
            u8::MAX
        }
    }

    /// The gate of the chunk holding `j`, read from `posts` only: the
    /// runtime's own gate functions.
    fn gate(&self, j: u8) -> bool {
        let window = match self.bug {
            DaBug::WaitTooShort => self.lag as u64 + 1,
            _ => self.lag as u64,
        };
        let (c, n, iters) = (self.chunk as u64, self.nthreads as u64, self.iters as u64);
        crate::sched::chunk_gate_dep(&self.range_of(j), window).is_none_or(|d| {
            crate::sched::gate_open(d, c, iters, n, |w| self.posts[w as usize] as u64)
        })
    }

    /// Whether worker `w` ran its producer share to the end (a worker
    /// that owns no producer chunk has none). A worker that stopped on the
    /// cancel stopped short of it, and never joins the consumer.
    fn produced(&self, w: usize) -> bool {
        w >= self.next.len() || (self.next[w] == u8::MAX && self.pending[w].is_none())
    }

    /// The consumer gate of chunk `k`, on the producer's frontier.
    fn consumer_gate(&self, k: u8) -> bool {
        let (c, iters) = (self.chunk as u64, self.iters as u64);
        let range = crate::sched::chunk_range(k as u64, c, iters);
        let d = match self.bug {
            DaBug::ConsumerGateShort => range.end.checked_sub(2),
            _ => Some(crate::sched::consumer_gate_dep(&range)),
        };
        d.is_none_or(|d| crate::sched::gate_open(d, c, iters, 1, |_| self.posts[0] as u64))
    }

    /// The consumer actions of worker `w`, which joins once it ran its
    /// producer share to the end.
    fn consumer_actions(&self, cs: &Consumer, w: u8, acts: &mut Vec<DaStep>) {
        let i = w as usize;
        let m = (self.iters as u64).div_ceil(self.chunk as u64) as u8;
        if cs.left[i] || !self.produced(i) || (cs.held[i].is_none() && cs.cursor >= m) {
            return;
        }
        if self.cancelled {
            acts.push(DaStep::Leave { worker: w });
        }
        match cs.held[i] {
            None => acts.push(DaStep::Claim { worker: w }),
            Some(k) if self.consumer_gate(k) => acts.push(DaStep::Consume { worker: w }),
            Some(_) => {}
        }
    }
}

impl Model for DoAcrossModel {
    type Action = DaStep;

    fn actions(&self) -> Vec<DaStep> {
        let mut acts = Vec::new();
        if self.cancellable && !self.cancelled {
            acts.push(DaStep::Cancel);
        }
        for w in 0..self.nthreads {
            let (i, j) = (w as usize, self.next[w as usize]);
            if self.stopped[i] || (j == u8::MAX && self.pending[i].is_none()) {
                continue;
            }
            if self.pending[i].is_some() {
                acts.push(DaStep::Post { worker: w });
            } else if self.admitted[i] {
                acts.push(DaStep::Exec { worker: w });
            } else {
                // At a chunk boundary or gate: the worker may observe the
                // cancel here, or its last poll raced it.
                if self.cancelled {
                    acts.push(DaStep::Stop { worker: w });
                }
                if self.gate(j) {
                    acts.push(match self.bug {
                        DaBug::PostBeforeExec => DaStep::Post { worker: w },
                        _ => DaStep::Exec { worker: w },
                    });
                }
            }
        }
        if let Some(cs) = &self.consumer {
            for w in 0..cs.held.len() as u8 {
                self.consumer_actions(cs, w, &mut acts);
            }
        }
        acts
    }

    fn apply(&self, step: &DaStep) -> Self {
        let mut s = self.clone();
        match *step {
            DaStep::Exec { worker } => {
                let i = worker as usize;
                let j = s.next[i];
                s.executed[j as usize] += 1;
                s.admitted[i] = true;
                let end = s.range_of(j).end;
                if (j as u64) + 1 < end {
                    s.next[i] = j + 1;
                } else if s.bug == DaBug::PostBeforeExec {
                    // Already posted at admission: move on.
                    s.next[i] = s.next_chunk_start(end);
                    s.admitted[i] = false;
                } else {
                    s.pending[i] = Some(end as u8);
                }
            }
            DaStep::Post { worker } => {
                let i = worker as usize;
                match s.pending[i].take() {
                    // Faithful order: the chunk has executed.
                    Some(end) => {
                        s.posts[i] = end;
                        s.next[i] = s.next_chunk_start(end as u64);
                        s.admitted[i] = false;
                    }
                    // Inverted order: post the chunk as its gate opens.
                    None => {
                        s.posts[i] = s.range_of(s.next[i]).end as u8;
                        s.admitted[i] = true;
                    }
                }
            }
            DaStep::Cancel => s.cancelled = true,
            DaStep::Stop { worker } => s.stopped[worker as usize] = true,
            DaStep::Claim { worker } => {
                let cs = s.consumer.as_mut().expect("a consumer step");
                cs.held[worker as usize] = Some(cs.cursor);
                cs.cursor += 1;
            }
            DaStep::Consume { worker } => {
                let (c, iters) = (s.chunk as u64, s.iters as u64);
                let cs = s.consumer.as_mut().expect("a consumer step");
                let k = cs.held[worker as usize].take().expect("a claimed chunk");
                for j in crate::sched::chunk_range(k as u64, c, iters) {
                    cs.executed[j as usize] += 1;
                }
            }
            DaStep::Leave { worker } => {
                let cs = s.consumer.as_mut().expect("a consumer step");
                let i = worker as usize;
                cs.left[i] = true;
                if let Some(k) = cs.held[i].take() {
                    cs.slots[i] = k + 1;
                }
            }
        }
        s
    }

    fn invariant(&self) -> Result<(), String> {
        // 1. Post happens-before wait-satisfied: a published frontier
        //    only covers executed iterations.
        for w in 0..self.nthreads {
            let f = self.posts[w as usize];
            for j in 0..f {
                let owned = (j as u64 / self.chunk as u64) % self.nthreads as u64 == w as u64;
                if owned && self.executed[j as usize] == 0 {
                    return Err(format!(
                        "worker {w} posted frontier {f} before executing iteration {j}"
                    ));
                }
            }
        }
        // 2. Lag safety: an executed iteration proves its whole lag
        //    window executed first.
        for j in 0..self.iters {
            if self.executed[j as usize] == 0 || (j as u64) < self.lag as u64 {
                continue;
            }
            let d = j - self.lag;
            for i in 0..=d {
                if self.executed[i as usize] == 0 {
                    return Err(format!(
                        "iteration {j} executed before its lag-{} dependence {i}",
                        self.lag
                    ));
                }
            }
        }
        // 3. At most once.
        for (j, &n) in self.executed.iter().enumerate() {
            if n > 1 {
                return Err(format!("iteration {j} executed {n} times"));
            }
        }
        // 5. Pair lag safety: a consumer iteration proves every producer
        //    iteration at or below it executed first.
        if let Some(cs) = &self.consumer {
            for (j, &n) in cs.executed.iter().enumerate() {
                if n > 1 {
                    return Err(format!("consumer iteration {j} executed {n} times"));
                }
                if let Some(i) = (0..=j).find(|&i| n > 0 && self.executed[i] == 0) {
                    return Err(format!(
                        "consumer iteration {j} executed before producer iteration {i}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn is_accepting(&self) -> bool {
        let m = (self.iters as u64).div_ceil(self.chunk as u64) as u8;
        (0..self.nthreads as usize).all(|i| self.stopped[i] || self.produced(i))
            && self.consumer.as_ref().is_none_or(|cs| {
                (0..cs.held.len()).all(|i| {
                    cs.left[i]
                        || self.stopped.get(i).copied().unwrap_or(false)
                        || (cs.held[i].is_none() && cs.cursor >= m)
                })
            })
    }

    fn final_check(&self) -> Result<(), String> {
        let (c, lag) = (self.chunk as u64, self.lag as usize);
        let plan = cascade_core::ChunkPlan::by_iterations(self.iters as u64, c);
        let mut executed = self.executed.clone();
        let mut consumed = self.consumer.as_ref().map(|cs| cs.executed.clone());
        // The committed prefix per stage, each the whole stage unless the
        // cancel stops inside it.
        let (mut resume, mut consumer_resume) = (self.iters as u64, self.iters as u64);
        if self.cancelled {
            // The degraded path: fill the holes, stop at the suffix.
            let n = self.nthreads as u64;
            let p = crate::sched::uncommitted(&plan, true, n, 0, |w| self.posts[w as usize] as u64);
            let cp = self.consumer.as_ref().map(|cs| {
                let n = cs.slots.len() as u64;
                crate::sched::uncommitted(&plan, false, n, cs.cursor as u64, |w| {
                    cs.slots[w as usize] as u64
                })
            });
            // A pair reports its prefix in the consumer once it committed
            // a chunk: the producer then runs to its end.
            let through = cp.as_ref().is_some_and(|cp| {
                self.bug != DaBug::PrefixInProducer
                    && crate::sched::prefix_in_consumer(cp, plan.num_chunks())
            });
            let mut order: Vec<(usize, u64)> = p.chunks.into_iter().enumerate().collect();
            if self.bug == DaBug::FillDescending {
                order.reverse();
            }
            for (i, chunk) in order {
                if i >= p.holes && !through {
                    resume = plan.range(chunk).start;
                    break;
                }
                for j in plan.range(chunk).map(|j| j as usize) {
                    if let Some(d) = (0..(j + 1).saturating_sub(lag)).find(|&d| executed[d] == 0) {
                        return Err(format!(
                            "filled iteration {j} before its lag-{lag} dependence {d}"
                        ));
                    }
                    executed[j] += 1;
                }
            }
            match (cp, consumed.as_mut()) {
                (Some(cp), Some(consumed)) if through => {
                    for (i, &chunk) in cp.chunks.iter().enumerate() {
                        if i >= cp.holes {
                            consumer_resume = plan.range(chunk).start;
                            break;
                        }
                        for j in plan.range(chunk).map(|j| j as usize) {
                            consumed[j] += 1;
                        }
                    }
                }
                _ => consumer_resume = 0,
            }
        }
        let stages = [(&executed, resume, "iteration")];
        let pair = consumed
            .as_ref()
            .map(|c| (c, consumer_resume, "consumer iteration"));
        for (runs, prefix, what) in stages.into_iter().chain(pair) {
            for (j, &n) in runs.iter().enumerate() {
                if n != u8::from((j as u64) < prefix) {
                    return Err(format!(
                        "{what} {j} executed {n} times against a committed prefix of {prefix}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Exhaustively explore a DOACROSS scenario, panicking on truncation
/// (a truncated exploration must never read as a pass).
pub fn verify_doacross(scenario: DoAcrossModel, max_states: usize) -> Exploration<DaStep> {
    let result = explore(scenario, max_states);
    assert!(
        !result.truncated,
        "exploration truncated at {} states — raise max_states",
        result.states
    );
    result
}

// ---------------------------------------------------------------------------
// Verified-execution (checksummed handoffs + blame) model
// ---------------------------------------------------------------------------

/// The single scripted corruption fault of a [`VerifyModel`] scenario.
/// At most one fires per run — the blame-attribution invariant is proved
/// under the same single-fault assumption the runner's tiebreak
/// reasoning rests on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VFault {
    /// The executor of `chunk` computes wrong bytes. Its published
    /// digest covers them (an executor digests what it actually wrote),
    /// so the tiebreak *plus* the digest match convict it — correctly.
    WrongBytes {
        /// The chunk whose body miscomputes.
        chunk: u8,
    },
    /// The chunk's committed bytes flip *after* the executor's
    /// commit-time digest capture, while the handoff packet is still
    /// outstanding. The digest mismatch proves the executor innocent:
    /// the faithful protocol detects and recovers without blame.
    PostCommitFlip {
        /// The chunk whose committed bytes flip in place.
        chunk: u8,
    },
    /// The verifier's first private replay of `chunk` is itself wrong (a
    /// transient on the verifier's side). The tiebreak's second replay
    /// disagrees with the first, so the faithful protocol blames nobody
    /// and lets the committed bytes stand.
    ReplayGlitch {
        /// The chunk whose first replay glitches.
        chunk: u8,
    },
}

impl VFault {
    /// The chunk this fault is scripted at.
    fn chunk(self) -> u8 {
        match self {
            VFault::WrongBytes { chunk }
            | VFault::PostCommitFlip { chunk }
            | VFault::ReplayGlitch { chunk } => chunk,
        }
    }
}

/// A deliberately seeded verified-execution protocol bug, for negative
/// tests: the checker must catch each of these.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum VBug {
    /// The faithful protocol.
    #[default]
    None,
    /// The claimant executes its own chunk *before* settling the verify
    /// window: the body consumes bytes of a chunk it depends on that
    /// nobody has checked yet, breaking invariant 1.
    VerifyAfterHandoff,
    /// Blame the executor on a lone replay mismatch — no second replay,
    /// no digest guard. A verifier-side glitch or a post-commit flip
    /// then convicts an innocent worker.
    BlameWithoutTiebreak,
    /// The claimant settles the window ignoring dependence: it executes
    /// past a pending packet its chunk depends on (only the window's
    /// bound still makes it audit), so the body consumes bytes nobody
    /// has checked yet.
    DeferDependent,
    /// The claimant defers a digest-only audit, which cannot repair:
    /// when it detects a flip after a later chunk committed, the chunk
    /// can no longer be rolled back under a clean prefix.
    DeferUnrepairable,
}

/// What a chunk's committed bytes look like, abstractly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum VData {
    /// Never executed.
    Fresh,
    /// Executed correctly (or repaired to the verified bytes).
    Good,
    /// The executor committed miscomputed bytes.
    Wrong,
    /// Flipped in place after the executor's digest capture.
    Flipped,
    /// Restored to its pre-image by the fail path (and poisoned).
    RolledBack,
}

/// Modeled worker control state (the verify-relevant slice of the
/// runner's worker loop).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum VTh {
    /// About to compute its next owned chunk.
    Idle { cursor: u8 },
    /// In the helper phase for its owned `chunk`: it may audit deferred
    /// packets other workers executed, until the token reaches `chunk`.
    Helping { chunk: u8 },
    /// Polling the token for its owned chunk.
    Waiting { chunk: u8 },
    /// Won the claim; settling the verify window before the body
    /// (`late`: the seeded [`VBug::VerifyAfterHandoff`] settles after it).
    Settling { chunk: u8, late: bool },
    /// Auditing the window's packet of chunk `of`, taken as the claimant
    /// of `chunk` or (`helper`) in the helper phase for it.
    Auditing {
        chunk: u8,
        of: u8,
        helper: bool,
        late: bool,
    },
    /// Inside the chunk body.
    Executing { chunk: u8 },
    /// Body done; about to publish the handoff packet and advance.
    Releasing { chunk: u8 },
    /// Drained.
    Done,
}

/// One atomic step of the verified-execution model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VStep {
    /// Compute the next owned chunk (or drain).
    Seek(usize),
    /// Take the oldest deferred packet another worker executed, in the
    /// helper phase.
    HelpTake(usize),
    /// End the helper phase and wait for the token.
    EndHelp(usize),
    /// Notice poisoning while waiting.
    Observe(usize),
    /// The claim CAS; the faithful claimant then settles the window
    /// before executing.
    Claim(usize),
    /// One round of the claimant's settle: take the first packet it must
    /// audit (one it depends on, or the oldest past the window's bound),
    /// or, with none left, defer the rest, publish the checkpoint up to
    /// the verified watermark and go on.
    Settle(usize),
    /// Audit a taken packet: digest compare, replay, tiebreak, blame,
    /// repair-or-fail — the auditor's `verify_committed` — and retire it.
    Audit(usize),
    /// Run the chunk body.
    Execute(usize),
    /// Publish the handoff packet (digest + pre-image) into the window
    /// and advance the token — the checksummed handoff.
    Advance(usize),
    /// The scripted post-commit flip lands (only while the victim
    /// chunk's packet is in the window — the span the protocol claims
    /// detection over).
    Flip,
    /// The end barrier's leader audits the window's oldest packet after
    /// the last handoff, or the supervisor after a poison (quiescent:
    /// every worker has drained).
    Drain,
}

/// One packet of the verify window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct VPacket {
    chunk: u8,
    executor: u8,
    /// A claimant executed past it: helpers may audit it.
    deferred: bool,
    /// Its audit is running.
    taken: bool,
}

/// Explicit-state model of the verified-execution protocol
/// (`crate::verify`'s verify window, `verify_committed` / `convict` /
/// `fail_rollback` under an armed `VerifyPolicy`): every commit publishes
/// a packet (digest + pre-image) into the window with the token handoff.
/// The claimant of chunk `j` settles the window before its body: it
/// audits every packet `j` depends on, waiting for one another worker is
/// auditing, and the oldest ones past the bound of `nthreads` packets. A
/// packet `j` is independent of may stay pending past the claim, when
/// the run repairs in place; a helper phase of any other worker then
/// audits it beside later executions. A mismatch is confirmed by the
/// sequential tiebreak (two agreeing private replays), blame
/// additionally requires the published digest to match the committed
/// bytes, and the fail path rolls the corrupted chunk back to its
/// pre-image before poisoning. A digest-only audit
/// ([`VerifyModel::digest_only_where`]) has no replay: it detects only a
/// post-commit flip, blames nobody and always fails, so its packet is
/// never deferred. A checkpoint due at a claim
/// ([`VerifyModel::checkpoint_every`]) makes the claimant audit the whole
/// window first and publishes only when it is empty; the end barrier,
/// or the supervisor after a poison, drains the window.
///
/// Ownership is a fixed round-robin with no roster dynamics: quarantine
/// remaps, stalls and panics are [`Protocol`]'s concern — this model
/// isolates the three verification claims so their state space stays
/// exhaustively explorable. Which pairs of chunks are independent is a
/// scenario parameter ([`VerifyModel::independent_where`]).
///
/// 1. **No chunk that depends on chunk `c` executes, and no checkpoint
///    covers `c`, before `c`'s audit completes** — in no reachable state
///    is a body running (or run, unreleased) while a packet it depends
///    on is in the window, nor a checkpoint published past the lowest
///    packet in it; the window never holds more than `nthreads + 1`;
/// 2. **A corrupted chunk is never part of the committed prefix** — in
///    every poisoned state the blamed chunk is rolled back to its
///    pre-image and every chunk before the resume point is bitwise
///    good, so the typed error's `committed_iters` is trustworthy, with
///    audits running beside later executions and digest-only audits,
///    which cannot repair, among them;
/// 3. **Blame never convicts an innocent worker** (single-fault
///    assumption) — a conviction implies the convicted executor really
///    computed the wrong bytes, whichever worker audits and when.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VerifyModel {
    // Scenario (constant across a run, varied across tests).
    nthreads: u8,
    chunks: u8,
    recover: bool,
    bug: VBug,
    fault: Option<VFault>,
    /// `indep[c * chunks + j]`: chunk `j > c` may execute while `c`'s
    /// audit is pending.
    indep: Vec<bool>,
    /// `replays[c]`: chunk `c`'s audit replays it; otherwise it only
    /// compares the committed bytes with the executor's digest.
    replays: Vec<bool>,
    /// A checkpoint is due every this many chunks (`EveryChunks`); 0
    /// when the run has no sink.
    ckpt_every: u8,
    // Dynamic state.
    fault_fired: bool,
    token: Tok,
    threads: Vec<VTh>,
    data: Vec<VData>,
    executed: Vec<u8>,
    /// The verify window, ascending by chunk.
    window: Vec<VPacket>,
    /// Chunks the published checkpoint covers (a prefix).
    ckpt: u8,
    /// The chunk a corruption poison named (the typed error's blame).
    poisoned_chunk: Option<u8>,
    /// A worker that did not corrupt anything was blamed.
    blamed_innocent: bool,
}

impl VerifyModel {
    /// A faithful verified run over `nthreads` workers and `chunks`
    /// chunks with recovery on (convictions repair in place), every
    /// chunk depending on every earlier one.
    pub fn new(nthreads: u8, chunks: u8) -> Self {
        assert!(nthreads >= 1 && chunks >= 1);
        VerifyModel {
            nthreads,
            chunks,
            recover: true,
            bug: VBug::None,
            fault: None,
            indep: vec![false; usize::from(chunks) * usize::from(chunks)],
            replays: vec![true; usize::from(chunks)],
            ckpt_every: 0,
            fault_fired: false,
            token: Tok::Granted(0),
            threads: vec![VTh::Idle { cursor: 0 }; nthreads as usize],
            data: vec![VData::Fresh; chunks as usize],
            executed: vec![0; chunks as usize],
            window: Vec::new(),
            ckpt: 0,
            poisoned_chunk: None,
            blamed_innocent: false,
        }
    }

    /// Script the run's single corruption fault.
    pub fn with_fault(mut self, fault: VFault) -> Self {
        assert!(fault.chunk() < self.chunks);
        self.fault = Some(fault);
        self
    }

    /// Disable recovery: a confirmed corruption rolls back and poisons
    /// instead of repairing in place (the fail-fast tolerance), and no
    /// audit is deferred.
    pub fn without_recovery(mut self) -> Self {
        self.recover = false;
        self
    }

    /// Seed a protocol bug the checker must catch.
    pub fn with_bug(mut self, bug: VBug) -> Self {
        self.bug = bug;
        self
    }

    /// Declare chunk `j` independent of an earlier chunk `c` wherever
    /// `indep(c, j)` holds ([`crate::RealKernel::independent`]).
    pub fn independent_where(mut self, indep: impl Fn(u8, u8) -> bool) -> Self {
        let m = self.chunks;
        for c in 0..m {
            for j in c + 1..m {
                self.indep[usize::from(c) * usize::from(m) + usize::from(j)] = indep(c, j);
            }
        }
        self
    }

    /// Audit chunk `c` by digest alone wherever `digest_only(c)` holds
    /// (`VerifyPolicy::Checksum`, or the unsampled chunks of
    /// `VerifyPolicy::Sampled`).
    pub fn digest_only_where(mut self, digest_only: impl Fn(u8) -> bool) -> Self {
        for c in 0..self.chunks {
            self.replays[usize::from(c)] = !digest_only(c);
        }
        self
    }

    /// Give the run a checkpoint sink that is due every `n` chunks.
    pub fn checkpoint_every(mut self, n: u8) -> Self {
        assert!(n >= 1);
        self.ckpt_every = n;
        self
    }

    /// Whether a checkpoint is due at the claim of chunk `j`.
    fn ckpt_due(&self, j: u8) -> bool {
        self.ckpt_every > 0 && j.saturating_sub(self.ckpt) >= self.ckpt_every
    }

    /// Whether chunk `j` must wait for the audit of an earlier chunk `c`.
    fn depends(&self, c: u8, j: u8) -> bool {
        !self.indep[usize::from(c) * usize::from(self.chunks) + usize::from(j)]
    }

    /// Fixed round-robin ownership: the smallest `j >= from` owned by `t`.
    fn next_owned(&self, t: u8, from: u8) -> u8 {
        owned_from(u64::from(t), u64::from(self.nthreads), 0, u64::from(from)) as u8
    }

    /// The window index the claimant of `j` must audit next, if any, by
    /// the runtime's own rule ([`crate::verify::audit_due`]): every packet
    /// when a checkpoint is due; a packet whose audit cannot repair in
    /// place (fail-fast, or digest-only); a packet `j` depends on; or the
    /// oldest untaken one past the bound. The seeded
    /// [`VBug::DeferUnrepairable`] passes every audit as repairing, and
    /// [`VBug::DeferDependent`] every chunk as independent.
    fn due(&self, j: u8) -> Option<usize> {
        let over = self.window.len() > usize::from(self.nthreads);
        let ckpt = self.ckpt_due(j);
        self.window.iter().position(|p| {
            let replays = self.replays[usize::from(p.chunk)];
            let repairs = self.recover && (replays || self.bug == VBug::DeferUnrepairable);
            let independent = || !self.depends(p.chunk, j) || self.bug == VBug::DeferDependent;
            crate::verify::audit_due(ckpt, repairs, over, p.taken, independent)
        })
    }

    /// The auditor's `verify_committed` of the window's packet of chunk
    /// `c`, compressed to one atomic decision (the interleavings that
    /// matter — audit vs. downstream claims, executions and the flip —
    /// are between steps, not inside the comparison), then its retirement
    /// from the window. Returns `true` when the run poisoned.
    fn run_verify(&mut self, c: u8) -> bool {
        let at = self
            .window
            .iter()
            .position(|p| p.chunk == c)
            .expect("verify requires a packet");
        self.window.remove(at);
        let ci = c as usize;
        if !self.replays[ci] {
            // Digest-only: the committed bytes against the executor's
            // digest. Only a post-commit flip shows, and with no replay
            // there is no tiebreak, no blame and nothing to install.
            return self.data[ci] == VData::Flipped && self.resolve(ci, false);
        }
        // First private replay: wrong only under a pending glitch.
        let glitch = matches!(self.fault, Some(VFault::ReplayGlitch { chunk }) if chunk == c)
            && !self.fault_fired;
        if glitch {
            self.fault_fired = true;
        }
        // The replay recomputes the chunk from its pre-image: correct
        // bytes unless the glitch fires, so it matches the committed
        // bytes iff they are good.
        let r1_matches = !glitch && self.data[ci] == VData::Good;
        // The executor digested what it wrote, so the published digest
        // matches the committed bytes unless they flipped afterwards.
        let digest_matches = self.data[ci] != VData::Flipped;
        if self.bug == VBug::BlameWithoutTiebreak {
            if r1_matches {
                return false;
            }
            // Seeded bug: lone mismatch, no second replay, no digest
            // guard — the executor is convicted outright.
            if self.data[ci] != VData::Wrong {
                self.blamed_innocent = true;
            }
            return self.resolve(ci, self.recover);
        }
        if r1_matches {
            return false;
        }
        // Sequential tiebreak: the second replay (transients do not
        // repeat) — if it disagrees with the first, the fault is the
        // verifier's own and the committed bytes stand, unblamed.
        if glitch {
            return false;
        }
        // Two agreeing replays against the committed bytes: corruption
        // confirmed. Blame only if the digest proves the executor
        // computed them; a post-commit flip convicts nobody.
        if digest_matches && self.data[ci] != VData::Wrong {
            self.blamed_innocent = true;
        }
        self.resolve(ci, self.recover)
    }

    /// Repair in place (`repair`: recovery armed and verified replay
    /// bytes to install) or roll back and poison.
    fn resolve(&mut self, ci: usize, repair: bool) -> bool {
        if repair {
            // Install the verified replay bytes: bitwise what a clean
            // execution would have left.
            self.data[ci] = VData::Good;
            return false;
        }
        // Fail path: pre-image rollback first, then poison — the
        // committed prefix of the typed error stays clean. Once a later
        // chunk has committed, the runner cannot roll back under a
        // prefix (`fail_rollback` marks the run unsound and reports the
        // chunk's end), and the chunk stays corrupted in place.
        let later =
            matches!(self.token, Tok::Granted(p) | Tok::Claimed(p) if usize::from(p) > ci + 1);
        if !later {
            self.data[ci] = VData::RolledBack;
        }
        self.token = Tok::Poisoned;
        // The error with the shorter clean prefix is reported.
        let pc = self.poisoned_chunk.map_or(ci as u8, |pc| pc.min(ci as u8));
        self.poisoned_chunk = Some(pc);
        true
    }
}

impl Model for VerifyModel {
    type Action = VStep;

    fn actions(&self) -> Vec<VStep> {
        let mut acts = Vec::new();
        for (i, th) in self.threads.iter().enumerate() {
            match *th {
                VTh::Idle { .. } => acts.push(VStep::Seek(i)),
                VTh::Helping { chunk } => {
                    let reached = match self.token {
                        Tok::Granted(p) | Tok::Claimed(p) => p >= chunk,
                        Tok::Poisoned => true,
                    };
                    let other = |p: &VPacket| p.deferred && !p.taken && p.executor != i as u8;
                    if !reached && self.window.iter().any(other) {
                        acts.push(VStep::HelpTake(i));
                    }
                    acts.push(VStep::EndHelp(i));
                }
                VTh::Waiting { chunk } => {
                    if self.token == Tok::Granted(chunk) {
                        acts.push(VStep::Claim(i));
                    }
                    if self.token == Tok::Poisoned {
                        acts.push(VStep::Observe(i));
                    }
                }
                // Blocked while another worker audits the packet due.
                VTh::Settling { chunk, .. } => {
                    if self.due(chunk).is_none_or(|d| !self.window[d].taken) {
                        acts.push(VStep::Settle(i));
                    }
                }
                VTh::Auditing { .. } => acts.push(VStep::Audit(i)),
                VTh::Executing { .. } => acts.push(VStep::Execute(i)),
                VTh::Releasing { .. } => acts.push(VStep::Advance(i)),
                VTh::Done => {}
            }
        }
        if let Some(VFault::PostCommitFlip { chunk }) = self.fault {
            // The flip may land at any point while the victim's packet
            // is in the window — the span the protocol claims detection
            // over (later flips are the arena scrubber's concern).
            if !self.fault_fired && self.window.iter().any(|p| p.chunk == chunk) {
                acts.push(VStep::Flip);
            }
        }
        let quiescent = self.threads.iter().all(|t| *t == VTh::Done);
        let ended = matches!(self.token, Tok::Poisoned) || self.token == Tok::Granted(self.chunks);
        if ended && quiescent && !self.window.is_empty() {
            acts.push(VStep::Drain);
        }
        acts
    }

    fn apply(&self, step: &VStep) -> Self {
        let mut s = self.clone();
        match *step {
            VStep::Seek(i) => {
                let VTh::Idle { cursor } = s.threads[i] else {
                    unreachable!("Seek from non-Idle")
                };
                if s.token == Tok::Poisoned {
                    s.threads[i] = VTh::Done;
                    return s;
                }
                let j = s.next_owned(i as u8, cursor);
                s.threads[i] = if j < s.chunks {
                    VTh::Helping { chunk: j }
                } else {
                    VTh::Done
                };
            }
            VStep::HelpTake(i) => {
                let VTh::Helping { chunk } = s.threads[i] else {
                    unreachable!("HelpTake from non-Helping")
                };
                let p = s
                    .window
                    .iter_mut()
                    .find(|p| p.deferred && !p.taken && p.executor != i as u8)
                    .expect("enabled only with a deferred packet");
                p.taken = true;
                let of = p.chunk;
                s.threads[i] = VTh::Auditing {
                    chunk,
                    of,
                    helper: true,
                    late: false,
                };
            }
            VStep::EndHelp(i) => {
                let VTh::Helping { chunk } = s.threads[i] else {
                    unreachable!("EndHelp from non-Helping")
                };
                s.threads[i] = VTh::Waiting { chunk };
            }
            VStep::Observe(i) => {
                s.threads[i] = VTh::Done;
            }
            VStep::Claim(i) => {
                let VTh::Waiting { chunk } = s.threads[i] else {
                    unreachable!("Claim from non-Waiting")
                };
                s.token = Tok::Claimed(chunk);
                s.threads[i] = if s.bug == VBug::VerifyAfterHandoff {
                    // Seeded bug: the body runs first, the window is
                    // settled only afterwards.
                    VTh::Executing { chunk }
                } else {
                    VTh::Settling { chunk, late: false }
                };
            }
            VStep::Settle(i) => {
                let VTh::Settling { chunk, late } = s.threads[i] else {
                    unreachable!("Settle from non-Settling")
                };
                match s.due(chunk) {
                    Some(d) => {
                        s.window[d].taken = true;
                        s.threads[i] = VTh::Auditing {
                            chunk,
                            of: s.window[d].chunk,
                            helper: false,
                            late,
                        };
                    }
                    None => {
                        for p in &mut s.window {
                            p.deferred = true;
                        }
                        // Publish the prefix below `chunk` when it is due
                        // and every chunk in it is audited.
                        if s.window.is_empty() && s.ckpt_due(chunk) {
                            s.ckpt = chunk;
                        }
                        s.threads[i] = if late {
                            VTh::Releasing { chunk }
                        } else {
                            VTh::Executing { chunk }
                        };
                    }
                }
            }
            VStep::Audit(i) => {
                let VTh::Auditing {
                    chunk,
                    of,
                    helper,
                    late,
                } = s.threads[i]
                else {
                    unreachable!("Audit from non-Auditing")
                };
                let failed = s.run_verify(of);
                s.threads[i] = if failed {
                    VTh::Done
                } else if helper {
                    VTh::Helping { chunk }
                } else {
                    VTh::Settling { chunk, late }
                };
            }
            VStep::Execute(i) => {
                let VTh::Executing { chunk } = s.threads[i] else {
                    unreachable!("Execute from non-Executing")
                };
                s.executed[chunk as usize] += 1;
                let wrong = matches!(s.fault, Some(VFault::WrongBytes { chunk: fc }) if fc == chunk)
                    && !s.fault_fired;
                if wrong {
                    s.fault_fired = true;
                }
                s.data[chunk as usize] = if wrong { VData::Wrong } else { VData::Good };
                s.threads[i] = if s.bug == VBug::VerifyAfterHandoff {
                    // The deferred settle lands now, after the body
                    // already consumed unaudited bytes.
                    VTh::Settling { chunk, late: true }
                } else {
                    VTh::Releasing { chunk }
                };
            }
            VStep::Advance(i) => {
                let VTh::Releasing { chunk } = s.threads[i] else {
                    unreachable!("Advance from non-Releasing")
                };
                if s.token == Tok::Claimed(chunk) {
                    // The checksummed handoff: digest + pre-image packet
                    // published, then the advance CAS — program order
                    // within one worker, so modeled as one step.
                    s.window.push(VPacket {
                        chunk,
                        executor: i as u8,
                        deferred: false,
                        taken: false,
                    });
                    s.token = Tok::Granted(chunk + 1);
                    s.threads[i] = VTh::Idle { cursor: chunk + 1 };
                } else {
                    s.threads[i] = VTh::Done;
                }
            }
            VStep::Flip => {
                let Some(VFault::PostCommitFlip { chunk }) = s.fault else {
                    unreachable!("Flip without a scripted flip")
                };
                s.fault_fired = true;
                s.data[chunk as usize] = VData::Flipped;
            }
            VStep::Drain => {
                // The end barrier's leader, or the supervisor after a
                // poison; quiescent by construction.
                let c = s.window[0].chunk;
                s.run_verify(c);
            }
        }
        s
    }

    fn invariant(&self) -> Result<(), String> {
        // 3. Blame never convicts an innocent worker (single fault).
        if self.blamed_innocent {
            return Err("an innocent worker was blamed for corruption".into());
        }
        // 1. No chunk that depends on chunk c executes before c's audit
        //    completes ...
        for th in &self.threads {
            let j = match *th {
                VTh::Executing { chunk } | VTh::Releasing { chunk } => chunk,
                VTh::Settling { chunk, late: true }
                | VTh::Auditing {
                    chunk, late: true, ..
                } => chunk,
                _ => continue,
            };
            if let Some(p) = self.window.iter().find(|p| self.depends(p.chunk, j)) {
                return Err(format!(
                    "chunk {j} executed before chunk {}, which it depends on, was audited",
                    p.chunk
                ));
            }
        }
        //    ... and no checkpoint covers c before then.
        if let Some(p) = self.window.iter().find(|p| p.chunk < self.ckpt) {
            return Err(format!(
                "checkpoint of {} chunks covers unaudited chunk {}",
                self.ckpt, p.chunk
            ));
        }
        if self.window.len() > usize::from(self.nthreads) + 1 {
            return Err(format!("{} packets pending", self.window.len()));
        }
        // 2. A corrupted chunk is never part of the committed prefix.
        if let Some(pc) = self.poisoned_chunk {
            if self.data[pc as usize] != VData::RolledBack {
                return Err(format!("poisoned with chunk {pc} still corrupted in place"));
            }
            for c in 0..pc {
                if matches!(self.data[c as usize], VData::Wrong | VData::Flipped) {
                    return Err(format!(
                        "corrupted chunk {c} inside the committed prefix of the typed error"
                    ));
                }
            }
        }
        for (c, &n) in self.executed.iter().enumerate() {
            if n > 1 {
                return Err(format!("chunk {c} executed {n} times"));
            }
        }
        Ok(())
    }

    fn is_accepting(&self) -> bool {
        self.threads.iter().all(|t| matches!(t, VTh::Done)) && self.window.is_empty()
    }

    fn final_check(&self) -> Result<(), String> {
        if self.token == Tok::Poisoned {
            // Fail path: the per-state invariants already guaranteed the
            // rolled-back chunk and the clean prefix.
            return Ok(());
        }
        if self.token != Tok::Granted(self.chunks) {
            return Err(format!(
                "clean run ended with the token at {:?}, not Granted({})",
                self.token, self.chunks
            ));
        }
        for (c, &n) in self.executed.iter().enumerate() {
            if n != 1 {
                return Err(format!("chunk {c} executed {n} times"));
            }
        }
        // Online detection, never after the run: an accepted run has no
        // corrupted chunk left in place.
        if let Some(c) = self
            .data
            .iter()
            .position(|d| matches!(d, VData::Wrong | VData::Flipped))
        {
            return Err(format!("run accepted with chunk {c} still corrupted"));
        }
        Ok(())
    }
}

/// Exhaustively explore a verified-execution scenario, panicking on
/// truncation (a truncated exploration must never read as a pass).
pub fn verify_verification(scenario: VerifyModel, max_states: usize) -> Exploration<VStep> {
    let result = explore(scenario, max_states);
    assert!(
        !result.truncated,
        "exploration truncated at {} states — raise max_states",
        result.states
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_verified(scenario: Protocol, label: &str) {
        let result = verify(scenario, 2_000_000);
        if let Some(v) = &result.violation {
            panic!(
                "[{label}] {} — counterexample schedule ({} steps): {:?}",
                v.message,
                v.trace.len(),
                v.trace
            );
        }
        assert!(result.states > 0);
    }

    #[test]
    fn fault_free_protocol_verifies_for_3_and_4_threads() {
        for n in [3usize, 4] {
            assert_verified(Protocol::new(n, 5, 2), "fault-free");
        }
    }

    #[test]
    fn fail_stop_panic_recovers_under_every_schedule() {
        // Every interleaving must end clean (all chunks exactly once,
        // token at the end) or poisoned with the invariants intact —
        // never corrupted, never deadlocked.
        for faulty_thread in 0..3 {
            for chunk in 0..4 {
                assert_verified(
                    Protocol::new(3, 4, 2).with_fault(
                        faulty_thread,
                        chunk,
                        ModelFault::PanicFailStop,
                    ),
                    "fail-stop panic",
                );
            }
        }
    }

    #[test]
    fn helper_panic_recovers_under_every_schedule() {
        for chunk in 0..4 {
            assert_verified(
                Protocol::new(3, 4, 2).with_fault(1, chunk, ModelFault::PanicHelper),
                "helper panic",
            );
        }
    }

    #[test]
    fn mid_body_panic_never_reexecutes_a_mutated_chunk() {
        for chunk in 0..4 {
            assert_verified(
                Protocol::new(3, 4, 2).with_fault(2, chunk, ModelFault::PanicMidBody),
                "mid-body panic",
            );
        }
    }

    #[test]
    fn journaled_mid_body_panic_recovers_under_every_schedule() {
        // A mid-body panic on a journalable kernel rolls the chunk back
        // while the claim is still held, then retries like a fail-stop
        // fault. Every schedule must end clean (all chunks exactly once)
        // or poisoned with the invariants intact — in particular, the
        // torn window must never be observable to a re-claimer.
        for faulty_thread in 0..3 {
            for chunk in 0..4 {
                assert_verified(
                    Protocol::new(3, 4, 2).with_fault(
                        faulty_thread,
                        chunk,
                        ModelFault::PanicMidBodyJournaled,
                    ),
                    "journaled mid-body panic",
                );
            }
        }
    }

    #[test]
    fn journaled_panic_with_dry_budget_rolls_back_before_poisoning() {
        // No retry budget: the ladder falls through to poison, but the
        // rollback already ran (faithful order), so the poisoned state
        // carries no torn chunk — salvage can re-run it soundly.
        assert_verified(
            Protocol::new(3, 4, 0).with_fault(1, 1, ModelFault::PanicMidBodyJournaled),
            "journaled panic, dry budget",
        );
    }

    #[test]
    fn journaled_panic_plus_spurious_detection_verifies() {
        assert_verified(
            Protocol::new(3, 3, 2).with_spurious_detection().with_fault(
                0,
                1,
                ModelFault::PanicMidBodyJournaled,
            ),
            "journaled panic + spurious detection",
        );
    }

    #[test]
    fn stalled_executor_is_poisoned_never_double_executed() {
        // Thread 1 owns chunk 1: the stall fires while holding the claim.
        assert_verified(
            Protocol::new(3, 4, 2).with_fault(1, 1, ModelFault::Stall),
            "stall",
        );
    }

    #[test]
    fn spurious_watchdog_quarantine_races_are_benign() {
        // A healthy owner can be quarantined by a false-positive watchdog
        // and still race the new owner for the claim: the claim CAS must
        // arbitrate every such schedule.
        assert_verified(
            Protocol::new(3, 4, 2).with_spurious_detection(),
            "spurious detection",
        );
    }

    #[test]
    fn spurious_detection_plus_real_fault_verifies() {
        assert_verified(
            Protocol::new(3, 3, 2).with_spurious_detection().with_fault(
                0,
                1,
                ModelFault::PanicFailStop,
            ),
            "spurious + panic",
        );
    }

    #[test]
    fn two_faults_exhaust_the_ladder_cleanly() {
        assert_verified(
            Protocol::new(3, 5, 1)
                .with_fault(0, 1, ModelFault::PanicFailStop)
                .with_fault(2, 3, ModelFault::PanicFailStop),
            "two faults, budget 1",
        );
    }

    #[test]
    fn seeded_skip_claim_bug_is_caught() {
        // Without the claim CAS the protocol either wedges (the advance
        // CAS never matches) or double-executes under remap races; both
        // must surface.
        let quiet = explore(Protocol::new(3, 3, 2).with_bug(Bug::SkipClaim), 2_000_000);
        let v = quiet.violation.expect("SkipClaim must be caught");
        assert!(
            v.message.contains("deadlock") || v.message.contains("executor"),
            "unexpected message: {}",
            v.message
        );

        let racy = explore(
            Protocol::new(3, 3, 2)
                .with_bug(Bug::SkipClaim)
                .with_spurious_detection(),
            2_000_000,
        );
        assert!(
            racy.violation.is_some(),
            "SkipClaim under remap races must be caught"
        );
    }

    #[test]
    fn seeded_resurrect_token_bug_is_caught() {
        // Thread 2 owns chunk 2 under the initial round-robin, so the
        // stall actually fires; the detector poisons, the stalled thread
        // wakes, and the buggy plain-store release resurrects the token.
        let result = explore(
            Protocol::new(3, 4, 2)
                .with_bug(Bug::ResurrectToken)
                .with_fault(2, 2, ModelFault::Stall),
            2_000_000,
        );
        let v = result.violation.expect("ResurrectToken must be caught");
        assert!(v.message.contains("resurrected"), "{}", v.message);
    }

    #[test]
    fn seeded_unclaim_before_rollback_bug_is_caught() {
        // The buggy ordering unclaims the chunk (re-publishing it to the
        // survivors) before applying the undo journal: some schedule
        // lets a survivor claim the chunk while it is still torn.
        let result = explore(
            Protocol::new(3, 4, 2)
                .with_bug(Bug::UnclaimBeforeRollback)
                .with_fault(1, 1, ModelFault::PanicMidBodyJournaled),
            2_000_000,
        );
        let v = result
            .violation
            .expect("UnclaimBeforeRollback must be caught");
        assert!(v.message.contains("torn"), "{}", v.message);
    }

    #[test]
    fn cancellation_is_clean_at_every_point() {
        // The governor may fire the cancel at any schedule position:
        // every interleaving must end with a bitwise-clean committed
        // prefix (no torn chunk, no double-commit, no gap) or a clean
        // completion when the cancel lands too late — never both.
        for n in [2usize, 3] {
            assert_verified(Protocol::new(n, 4, 2).with_cancellation(), "cancellation");
        }
    }

    #[test]
    fn cancellation_racing_a_fail_stop_panic_verifies() {
        // Cancel and fault poisons race: whichever cause wins first, the
        // terminal state must satisfy its own invariant — cancelled
        // prefix-clean, or faulted with the usual guarantees.
        for chunk in 0..3 {
            assert_verified(
                Protocol::new(3, 3, 2).with_cancellation().with_fault(
                    1,
                    chunk,
                    ModelFault::PanicFailStop,
                ),
                "cancellation + fail-stop panic",
            );
        }
    }

    #[test]
    fn cancellation_racing_a_journaled_rollback_verifies() {
        // The cancel abort and the fault rollback both restore chunks
        // under their claims; no interleaving of the two may expose torn
        // state or double-commit a chunk.
        assert_verified(
            Protocol::new(3, 3, 2).with_cancellation().with_fault(
                0,
                1,
                ModelFault::PanicMidBodyJournaled,
            ),
            "cancellation + journaled panic",
        );
    }

    #[test]
    fn cancellation_under_spurious_detection_verifies() {
        // Remap races while a cancel abort is rolling back are exactly
        // where the claim-held-through-rollback ordering earns its keep.
        assert_verified(
            Protocol::new(3, 3, 2)
                .with_cancellation()
                .with_spurious_detection(),
            "cancellation + spurious detection",
        );
    }

    #[test]
    fn seeded_unclaim_before_cancel_rollback_bug_is_caught() {
        // The buggy abort hands the claim back before undoing the
        // cancelled chunk: a spurious quarantine of the aborting worker
        // remaps its chunk to a survivor, which re-claims it while the
        // rollback is still pending.
        let result = explore(
            Protocol::new(3, 4, 2)
                .with_cancellation()
                .with_spurious_detection()
                .with_bug(Bug::UnclaimBeforeCancelRollback),
            4_000_000,
        );
        let v = result
            .violation
            .expect("UnclaimBeforeCancelRollback must be caught");
        assert!(v.message.contains("torn"), "{}", v.message);
    }

    #[test]
    fn seeded_last_cause_wins_bug_is_caught() {
        // Two helper panics with a dry budget: both threads reach the
        // poison CAS; the second must lose, and a plain store does not.
        let result = explore(
            Protocol::new(3, 4, 0)
                .with_bug(Bug::LastCauseWins)
                .with_fault(0, 0, ModelFault::PanicHelper)
                .with_fault(1, 1, ModelFault::PanicHelper),
            2_000_000,
        );
        let v = result.violation.expect("LastCauseWins must be caught");
        assert!(v.message.contains("cause"), "{}", v.message);
    }

    #[test]
    fn checkpointing_verifies_fault_free() {
        // Invariant 8: every capture runs with the claim still held, so
        // no schedule lets a checkpoint observe a successor's write or a
        // torn chunk.
        for n in [2usize, 3] {
            assert_verified(Protocol::new(n, 4, 2).with_checkpointing(), "checkpointing");
        }
    }

    #[test]
    fn checkpointing_racing_cancellation_verifies() {
        // The cancel check precedes the commit and capture: a chunk is
        // either aborted pre-capture or captured post-commit — no
        // interleaving may checkpoint a chunk the abort then unwinds.
        assert_verified(
            Protocol::new(3, 3, 2)
                .with_cancellation()
                .with_checkpointing(),
            "checkpointing + cancellation",
        );
    }

    #[test]
    fn checkpointing_racing_a_journaled_rollback_verifies() {
        // The rollback happens under the faulted claim, before any
        // commit: no capture may persist the torn window.
        for chunk in 0..3 {
            assert_verified(
                Protocol::new(3, 3, 2).with_checkpointing().with_fault(
                    1,
                    chunk,
                    ModelFault::PanicMidBodyJournaled,
                ),
                "checkpointing + journaled panic",
            );
        }
    }

    fn assert_doacross_verified(scenario: DoAcrossModel, label: &str) {
        let result = verify_doacross(scenario, 2_000_000);
        if let Some(v) = &result.violation {
            panic!(
                "[{label}] {} — counterexample schedule ({} steps): {:?}",
                v.message,
                v.trace.len(),
                v.trace
            );
        }
        assert!(result.states > 0);
    }

    #[test]
    fn doacross_protocol_verifies_across_shapes() {
        // (workers, iters, chunk, lag) — chunk boundaries and lag
        // windows deliberately misaligned, including the case where a
        // gate's dependence sits two chunks back (the off-by-a-chunk
        // family a single-counter gate would miss).
        // Chunks shorter than the lag overlap, so their gates are the
        // ones that wait for a chunk other than the previous one.
        for (n, iters, c, lag) in [
            (2, 6, 2, 2),
            (3, 9, 2, 2),
            (2, 8, 3, 3),
            (2, 7, 2, 4),
            (2, 9, 2, 3),
            (3, 8, 1, 2),
        ] {
            assert_doacross_verified(
                DoAcrossModel::new(n, iters, c, lag),
                &format!("doacross n={n} iters={iters} c={c} lag={lag}"),
            );
        }
    }

    #[test]
    fn seeded_post_before_exec_bug_is_caught() {
        let result = verify_doacross(
            DoAcrossModel::new(2, 6, 2, 2).with_bug(DaBug::PostBeforeExec),
            2_000_000,
        );
        let v = result
            .violation
            .expect("publishing the frontier before executing must be caught");
        assert!(
            v.message.contains("before executing"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn seeded_wait_too_short_bug_is_caught() {
        // window = lag + 1 is the "wait for lag - 1 commits" off-by-one:
        // with chunks shorter than the lag, some schedule runs an
        // iteration while its lag-distance dependence is still
        // unexecuted (chunk [4, 6) waits for chunk 0 but not chunk 1).
        let result = verify_doacross(
            DoAcrossModel::new(2, 6, 2, 3).with_bug(DaBug::WaitTooShort),
            2_000_000,
        );
        let v = result
            .violation
            .expect("the shortened gate window must be caught");
        assert!(
            v.message.contains("dependence"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn cancelled_doacross_stages_keep_an_exact_prefix_across_shapes() {
        // Chunks at least as long as the lag run one after another and
        // leave no hole; shorter ones overlap and can leave holes below a
        // committed chunk, which the fill must complete.
        for (n, iters, c, lag) in [
            (2, 6, 2, 2),
            (3, 7, 1, 3),
            (2, 7, 1, 3),
            (2, 8, 2, 3),
            (3, 6, 1, 2),
        ] {
            assert_doacross_verified(
                DoAcrossModel::new(n, iters, c, lag).with_cancel(),
                &format!("cancelled doacross n={n} iters={iters} c={c} lag={lag}"),
            );
        }
    }

    #[test]
    fn seeded_fill_descending_bug_is_caught() {
        // Lag 3 over one-iteration chunks on 3 workers: chunks 0..3 need
        // no gate, so chunk 2 can commit while chunks 0 and 1 never start
        // — two holes under an uncommitted suffix. Walking the uncommitted
        // chunks downward meets the suffix first and stops there.
        let result = verify_doacross(
            DoAcrossModel::new(3, 6, 1, 3)
                .with_cancel()
                .with_bug(DaBug::FillDescending),
            2_000_000,
        );
        let v = result
            .violation
            .expect("a descending fill must leave the holes unfilled");
        assert!(
            v.message.contains("committed prefix"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn pipelined_pairs_verify_across_shapes() {
        // (workers, iters, chunk, lag): a lag-1 producer (a `Sequential`
        // residue) and DOACROSS producers whose lag fits a chunk, with
        // one or two consumer workers beside worker 0, and a ragged last
        // chunk.
        for (n, iters, c, lag) in [
            (2, 6, 1, 1),
            (3, 5, 1, 1),
            (2, 7, 2, 2),
            (3, 6, 2, 1),
            (2, 8, 3, 2),
        ] {
            for cancel in [false, true] {
                let m = DoAcrossModel::pipelined(n, iters, c, lag);
                assert_doacross_verified(
                    if cancel { m.with_cancel() } else { m },
                    &format!("pair n={n} iters={iters} c={c} lag={lag} cancel={cancel}"),
                );
            }
        }
    }

    #[test]
    fn seeded_consumer_gate_short_bug_is_caught() {
        // One-iteration chunks: gating consumer chunk [s, s + 1) on
        // producer iteration s − 1 lets it run beside producer iteration s.
        let result = verify_doacross(
            DoAcrossModel::pipelined(2, 5, 1, 1).with_bug(DaBug::ConsumerGateShort),
            2_000_000,
        );
        let v = result
            .violation
            .expect("a consumer gate one iteration short must be caught");
        assert!(
            v.message.contains("before producer iteration"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn seeded_prefix_in_producer_bug_is_caught() {
        // A cancel after the consumer committed a chunk, reported inside
        // the producer: the resume would run that chunk a second time.
        let result = verify_doacross(
            DoAcrossModel::pipelined(2, 5, 1, 1)
                .with_cancel()
                .with_bug(DaBug::PrefixInProducer),
            2_000_000,
        );
        let v = result
            .violation
            .expect("a pair's prefix inside the producer must be caught");
        assert!(
            v.message.contains("consumer iteration") && v.message.contains("committed prefix"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn seeded_capture_after_handoff_bug_is_caught() {
        // The buggy ordering hands the token off first and captures
        // second: some schedule lets the successor mutate chunk+1 before
        // the capture reads, persisting an uncommitted write.
        let result = explore(
            Protocol::new(3, 3, 2)
                .with_checkpointing()
                .with_bug(Bug::CaptureAfterHandoff),
            2_000_000,
        );
        let v = result
            .violation
            .expect("CaptureAfterHandoff must be caught");
        assert!(v.message.contains("uncommitted"), "{}", v.message);
    }

    fn assert_verify_verified(scenario: VerifyModel, label: &str) {
        let result = verify_verification(scenario, 2_000_000);
        if let Some(v) = &result.violation {
            panic!(
                "[{label}] {} — counterexample schedule ({} steps): {:?}",
                v.message,
                v.trace.len(),
                v.trace
            );
        }
        assert!(result.states > 0);
    }

    #[test]
    fn verified_execution_protocol_verifies_fault_free() {
        for n in [2u8, 3] {
            assert_verify_verified(VerifyModel::new(n, 4), &format!("verify fault-free n={n}"));
        }
    }

    /// A named independence of chunks ([`VerifyModel::independent_where`]).
    type Independence = (&'static str, fn(u8, u8) -> bool);

    /// Independence of chunks: none (every chunk depends on every
    /// earlier one), all, and a mix where a chunk depends only on the
    /// one two before it.
    fn independence() -> [Independence; 3] {
        [
            ("dependent", |_, _| false),
            ("independent", |_, _| true),
            ("mixed", |c, j| j != c + 2),
        ]
    }

    #[test]
    fn deferred_audits_keep_the_three_invariants_under_every_fault() {
        // Audits run beside later executions wherever the chunks are
        // independent: every schedule still audits each chunk before a
        // dependent one executes and before a checkpoint covers it, and
        // detects, repairs and blames as when every audit ran first.
        let faults = [
            None,
            Some(VFault::WrongBytes { chunk: 0 }),
            Some(VFault::WrongBytes { chunk: 3 }),
            Some(VFault::PostCommitFlip { chunk: 1 }),
            Some(VFault::ReplayGlitch { chunk: 2 }),
        ];
        for (name, indep) in independence() {
            for fault in faults {
                for n in [2u8, 3] {
                    let mut m = VerifyModel::new(n, 4).independent_where(indep);
                    if let Some(f) = fault {
                        m = m.with_fault(f);
                    }
                    assert_verify_verified(m, &format!("{name} n={n} {fault:?}"));
                }
            }
        }
    }

    #[test]
    fn digest_only_audits_are_never_deferred_and_keep_a_clean_prefix() {
        // A digest-only audit cannot repair, so even a repairing run
        // audits it before the next chunk executes: a flip it detects is
        // rolled back under a clean prefix. Every chunk digest-only
        // (`Checksum`) and every other one (`Sampled(2)`).
        type DigestOnly = (&'static str, fn(u8) -> bool);
        let policies: [DigestOnly; 2] = [("checksum", |_| true), ("sampled", |c| c % 2 == 1)];
        for (name, indep) in [independence()[1], independence()[2]] {
            for (policy, digest_only) in policies {
                for chunk in 0..4 {
                    let m = VerifyModel::new(2, 4)
                        .independent_where(indep)
                        .digest_only_where(digest_only)
                        .with_fault(VFault::PostCommitFlip { chunk });
                    assert_verify_verified(m, &format!("{name} {policy} flip chunk={chunk}"));
                }
            }
        }
        assert_verify_verified(
            VerifyModel::new(3, 4)
                .independent_where(|_, _| true)
                .digest_only_where(|c| c % 2 == 1)
                .with_fault(VFault::PostCommitFlip { chunk: 1 }),
            "independent sampled n=3",
        );
    }

    #[test]
    fn seeded_defer_unrepairable_bug_is_caught() {
        // Deferring a digest-only audit past an independent chunk: the
        // flip is found after the later chunk committed, too late to
        // roll back under a clean prefix.
        let result = verify_verification(
            VerifyModel::new(2, 4)
                .independent_where(|_, _| true)
                .digest_only_where(|_| true)
                .with_fault(VFault::PostCommitFlip { chunk: 0 })
                .with_bug(VBug::DeferUnrepairable),
            2_000_000,
        );
        let v = result
            .violation
            .expect("deferring a digest-only audit must be caught");
        assert!(
            v.message.contains("still corrupted in place"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn a_due_checkpoint_covers_only_audited_chunks() {
        // A checkpoint due at a claim makes the claimant audit the whole
        // window first: every other claim under `EveryChunks(2)`, every
        // claim under `EveryChunks(1)`.
        let faults = [
            None,
            Some(VFault::WrongBytes { chunk: 1 }),
            Some(VFault::PostCommitFlip { chunk: 2 }),
        ];
        for (name, indep) in independence() {
            for every in [1u8, 2] {
                for fault in faults {
                    let mut m = VerifyModel::new(2, 4)
                        .independent_where(indep)
                        .checkpoint_every(every);
                    if let Some(f) = fault {
                        m = m.with_fault(f);
                    }
                    assert_verify_verified(m, &format!("{name} every={every} {fault:?}"));
                }
            }
        }
    }

    #[test]
    fn fail_fast_defers_nothing_and_keeps_a_clean_prefix() {
        for (name, indep) in independence() {
            for chunk in 0..4 {
                assert_verify_verified(
                    VerifyModel::new(2, 4)
                        .independent_where(indep)
                        .with_fault(VFault::WrongBytes { chunk })
                        .without_recovery(),
                    &format!("{name} fail-fast chunk={chunk}"),
                );
            }
        }
    }

    #[test]
    fn seeded_defer_dependent_bug_is_caught() {
        // Executing past a pending packet the chunk depends on: caught
        // with no fault scripted, wherever a dependence exists.
        for (name, indep) in [independence()[0], independence()[2]] {
            let result = verify_verification(
                VerifyModel::new(2, 4)
                    .independent_where(indep)
                    .with_bug(VBug::DeferDependent),
                2_000_000,
            );
            let v = result
                .violation
                .unwrap_or_else(|| panic!("{name}: deferring a dependent audit must be caught"));
            assert!(
                v.message.contains("which it depends on, was audited"),
                "{name}: unexpected violation: {}",
                v.message
            );
        }
    }

    #[test]
    fn wrong_bytes_are_detected_and_repaired_under_every_schedule() {
        // A miscomputing executor at any chunk: every interleaving must
        // convict it (digest matches the wrong bytes it digested itself)
        // and repair in place to the verified replay bytes.
        for chunk in 0..4 {
            assert_verify_verified(
                VerifyModel::new(2, 4).with_fault(VFault::WrongBytes { chunk }),
                &format!("wrong-bytes repair chunk={chunk}"),
            );
        }
        assert_verify_verified(
            VerifyModel::new(3, 4).with_fault(VFault::WrongBytes { chunk: 2 }),
            "wrong-bytes repair n=3",
        );
    }

    #[test]
    fn wrong_bytes_without_recovery_poison_with_a_clean_prefix() {
        // Fail-fast tolerance: the corrupted chunk must be rolled back
        // before the poison publishes, and every chunk before it must
        // still be good — invariant 2 holds in every poisoned state.
        for chunk in 0..4 {
            assert_verify_verified(
                VerifyModel::new(2, 4)
                    .with_fault(VFault::WrongBytes { chunk })
                    .without_recovery(),
                &format!("wrong-bytes fail-fast chunk={chunk}"),
            );
        }
    }

    #[test]
    fn post_commit_flip_never_blames_the_innocent_executor() {
        // The flip lands after the executor's digest capture, so the
        // digest guard must exonerate it in every schedule — detection
        // and recovery (or rollback) with no conviction.
        for chunk in 0..4 {
            for recover in [true, false] {
                let mut m = VerifyModel::new(2, 4).with_fault(VFault::PostCommitFlip { chunk });
                if !recover {
                    m = m.without_recovery();
                }
                assert_verify_verified(m, &format!("post-commit flip chunk={chunk}"));
            }
        }
    }

    #[test]
    fn replay_glitch_indicts_the_verifier_not_the_executor() {
        // A transient on the verifier's side: the tiebreak's second
        // replay disagrees with the first, so the committed bytes stand
        // and nobody is blamed — under every schedule.
        for chunk in 0..4 {
            assert_verify_verified(
                VerifyModel::new(2, 4).with_fault(VFault::ReplayGlitch { chunk }),
                &format!("replay glitch chunk={chunk}"),
            );
        }
    }

    #[test]
    fn seeded_verify_after_handoff_bug_is_caught() {
        // Settling the window only after the body breaks invariant 1
        // when the chunk depends on a pending packet, even with no
        // fault scripted — the ordering violation is structural.
        let result = verify_verification(
            VerifyModel::new(2, 3).with_bug(VBug::VerifyAfterHandoff),
            2_000_000,
        );
        let v = result
            .violation
            .expect("executing before a packet it depends on is audited must be caught");
        assert!(
            v.message.contains("which it depends on, was audited"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn seeded_blame_without_tiebreak_bug_is_caught() {
        // Convicting on a lone replay mismatch blames the executor for
        // faults that are not its own: a verifier-side glitch and a
        // post-commit flip each produce an innocent conviction.
        for fault in [
            VFault::ReplayGlitch { chunk: 1 },
            VFault::PostCommitFlip { chunk: 1 },
        ] {
            let result = verify_verification(
                VerifyModel::new(2, 3)
                    .with_fault(fault)
                    .with_bug(VBug::BlameWithoutTiebreak),
                2_000_000,
            );
            let v = result
                .violation
                .unwrap_or_else(|| panic!("blame without tiebreak must be caught ({fault:?})"));
            assert!(
                v.message.contains("innocent"),
                "unexpected violation: {}",
                v.message
            );
        }
    }
}
