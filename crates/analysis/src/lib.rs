//! # cascade-analyze — helper-safety dependence/effect analysis
//!
//! The cascaded-execution helper phases (paper §2.1) are only sound for
//! operands the concurrent execution phase cannot be writing: the
//! restructuring helper *reads values* into a sequential buffer, and a
//! value packed while the executor is still producing it would silently
//! diverge from the sequential run. This crate replaces the runtime's
//! former ad-hoc `assert!` judgments with a real static analysis over
//! [`LoopSpec`] / [`Workload`]:
//!
//! * a per-[`StreamRef`] byte-interval **footprint** as a function of the
//!   iteration range — exact for [`Pattern::Affine`], bounded by the
//!   installed index contents for [`Pattern::Indirect`];
//! * **loop-carried read/write overlap** detection, with the minimum flow
//!   (write-then-read) iteration gap — the *lag*;
//! * a per-operand **helper-safety lattice** verdict ([`Verdict`]):
//!   `Packable` ⊐ `Prefetchable` ⊐ `HorizonSafe { lag }` ⊐ `Unsafe`;
//! * lint-style [`Diagnostic`]s (stable codes, documented in
//!   `docs/ANALYSIS.md`) instead of panics.
//!
//! ## The horizon rule
//!
//! For a carried read with lag `L` (every aliasing write at iteration `j`
//! precedes the read at `i` by `i − j ≥ L`), a helper may touch iteration
//! `i` iff `i < committed + L`, where `committed` is the first iteration
//! of the lowest chunk the token has not yet granted past. Every aliasing
//! write for such an `i` lies at `j ≤ i − L < committed`, is therefore
//! already executed, and is visible through the token's Release/Acquire
//! pair — so the packed value is bitwise the value the sequential run
//! would read. Writes at `j ≥ i` can never race the helper either: they
//! belong to chunks at or above the one the helper itself is waiting for.
//! The runtime enforces the rule through
//! `cascade_rt::RealKernel::helper_horizon`.
//!
//! ## Static + dynamic synergy
//!
//! Verdicts are falsifiable: [`oracle`] replays the exact reference
//! stream (through [`cascade_trace::Resolver`] semantics — reads before
//! writes within an iteration) and reports any observation contradicting
//! a `Packable`/`HorizonSafe` claim or escaping a reported footprint.
//! A proptest over randomized specs keeps the two in agreement.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use cascade_trace::diag::{DiagCode, Diagnostic, Severity};
use cascade_trace::{ArrayId, LoopSpec, Mode, Pattern, StreamRef, Workload};

pub mod oracle;
pub mod plan;

/// Why an operand is unsafe for any helper participation (and usually for
/// real-thread cascading of the whole loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeReason {
    /// The ref gathers/scatters through an index array that the same loop
    /// writes: helpers (and the analysis itself) cannot trust the index
    /// contents.
    WrittenIndexArray,
    /// The ref is indirect but its index array has no installed contents.
    MissingIndexContents,
    /// The operand aliases a write stream whose addresses the analysis
    /// cannot resolve (the write itself is unsafe), so no lag bound
    /// exists.
    OpaqueWrite,
}

impl fmt::Display for UnsafeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnsafeReason::WrittenIndexArray => "index array written by the same loop",
            UnsafeReason::MissingIndexContents => "index array has no installed contents",
            UnsafeReason::OpaqueWrite => "aliases an unresolvable write stream",
        })
    }
}

/// The helper-safety lattice: what a waiting thread may do with an
/// operand while another thread executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Read-only and never written by the loop: helpers may read the
    /// value at any iteration (restructure it into the sequential
    /// buffer), arbitrarily far ahead.
    Packable,
    /// Address-predictable but value-carrying (a write or scatter
    /// target): helpers may compute the address — prefetch the line, pack
    /// the scatter index — but never the value.
    Prefetchable,
    /// A carried read whose aliasing writes all precede it by at least
    /// `lag` iterations: helpers may pack/prefetch iteration `i` only
    /// while `i < committed + lag` (the horizon rule), and the loop is
    /// still safe to *execute* cascaded.
    HorizonSafe {
        /// Minimum write→read iteration gap over all aliasing pairs.
        lag: u64,
    },
    /// No helper may touch the operand; the loop cannot run under the
    /// real-thread interpreter.
    Unsafe {
        /// Why the operand is disqualified.
        reason: UnsafeReason,
    },
}

impl Verdict {
    /// Stable lower-case class name for reports and golden tests.
    pub fn class(&self) -> &'static str {
        match self {
            Verdict::Packable => "packable",
            Verdict::Prefetchable => "prefetchable",
            Verdict::HorizonSafe { .. } => "horizon_safe",
            Verdict::Unsafe { .. } => "unsafe",
        }
    }

    /// The lag when horizon-safe, else `None`.
    pub fn lag(&self) -> Option<u64> {
        match self {
            Verdict::HorizonSafe { lag } => Some(*lag),
            _ => None,
        }
    }

    /// Is this the bottom of the lattice?
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::HorizonSafe { lag } => write!(f, "horizon_safe(lag={lag})"),
            Verdict::Unsafe { reason } => write!(f, "unsafe({reason})"),
            other => f.write_str(other.class()),
        }
    }
}

/// A byte/element interval touched by one stream over an iteration range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// First byte touched (inclusive).
    pub lo: u64,
    /// One past the last byte touched (exclusive).
    pub hi: u64,
    /// First element index touched (inclusive).
    pub elem_lo: u64,
    /// One past the last element index touched (exclusive).
    pub elem_hi: u64,
    /// `true` when the interval hull is derived in closed form from an
    /// affine pattern; `false` when it is bounded by scanning the
    /// installed index contents.
    pub exact: bool,
}

impl Footprint {
    /// Does the byte interval `[addr, addr + bytes)` fall inside this
    /// footprint?
    pub fn contains(&self, addr: u64, bytes: u32) -> bool {
        addr >= self.lo && addr + bytes as u64 <= self.hi
    }

    /// Do two footprints overlap as byte intervals?
    pub fn overlaps(&self, other: &Footprint) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }
}

/// The footprint of stream `r` over the iteration range, as a function of
/// that range: exact interval hull for affine patterns, index-bounded
/// hull for indirect ones. Returns `None` when the range is empty, an
/// element index resolves negative, or the index contents needed to bound
/// an indirect stream are missing/too short (those cases carry their own
/// error diagnostics).
pub fn ref_footprint(w: &Workload, r: &StreamRef, range: Range<u64>) -> Option<Footprint> {
    let (elem_lo, elem_hi_incl) = elem_hull(w, &r.pattern, range)?;
    let def = w.space.array(r.array);
    Some(Footprint {
        lo: def.base + elem_lo * def.elem as u64,
        hi: def.base + elem_hi_incl * def.elem as u64 + r.bytes as u64,
        elem_lo,
        elem_hi: elem_hi_incl + 1,
        exact: r.pattern.is_affine(),
    })
}

/// Whether a chunk transaction (undo journal + bitwise rollback) can be
/// materialized for a loop: every write-mode stream's footprint over an
/// arbitrary chunk range must be resolvable — in affine closed form, or
/// bounded by installed index contents. The runtime uses this to decide
/// whether a faulted chunk can be rolled back and re-executed, or must
/// keep the conservative fail-stop gate (see `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Journalability {
    /// Every write stream's footprint is resolvable: [`write_set`]
    /// bounds the undo journal of any non-empty in-bounds chunk range.
    Journalable,
    /// Some write stream's footprint cannot be bounded; the chunk's
    /// write-set is unknowable and rollback is impossible.
    Unjournalable {
        /// The first offending write stream.
        ref_name: &'static str,
        /// Why its footprint cannot be bounded.
        reason: UnsafeReason,
    },
}

impl fmt::Display for Journalability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Journalability::Journalable => f.write_str("journalable"),
            Journalability::Unjournalable { ref_name, reason } => {
                write!(f, "unjournalable({ref_name}: {reason})")
            }
        }
    }
}

/// The undo-journal bound of one chunk: the footprint of every
/// write-mode stream of `spec` over `range`, in spec order. This is the
/// exact set of byte intervals `execute(range)` may mutate — affine
/// closed form where available, index-store-bounded for indirect
/// writes — so snapshotting these intervals before the chunk body and
/// restoring them after a fault yields bitwise-identical array state.
///
/// Returns `None` when the range is empty or any write footprint is
/// unresolvable (the loop is [`Journalability::Unjournalable`]); a loop
/// with no writes journals as `Some(vec![])` (an empty journal).
pub fn write_set(w: &Workload, spec: &LoopSpec, range: Range<u64>) -> Option<Vec<Footprint>> {
    if range.is_empty() {
        return None;
    }
    spec.refs
        .iter()
        .filter(|r| r.mode.writes())
        .map(|r| ref_footprint(w, r, range.clone()))
        .collect()
}

/// The footprint of the *index-array* reads of an indirect stream over
/// the iteration range (`None` for affine streams or empty ranges).
pub fn index_footprint(w: &Workload, r: &StreamRef, range: Range<u64>) -> Option<Footprint> {
    let Pattern::Indirect {
        index,
        ibase,
        istride,
    } = r.pattern
    else {
        return None;
    };
    if range.is_empty() {
        return None;
    }
    let first = ibase + istride * range.start as i64;
    let last = ibase + istride * (range.end - 1) as i64;
    let (lo, hi) = (first.min(last), first.max(last));
    if lo < 0 {
        return None;
    }
    let def = w.space.array(index);
    Some(Footprint {
        lo: def.base + lo as u64 * def.elem as u64,
        hi: def.base + hi as u64 * def.elem as u64 + cascade_trace::INDEX_BYTES as u64,
        elem_lo: lo as u64,
        elem_hi: hi as u64 + 1,
        exact: true,
    })
}

/// Inclusive element-index hull `(min, max)` of `pattern` over `range`.
fn elem_hull(w: &Workload, pattern: &Pattern, range: Range<u64>) -> Option<(u64, u64)> {
    if range.is_empty() {
        return None;
    }
    match *pattern {
        Pattern::Affine { base, stride } => {
            let first = base + stride * range.start as i64;
            let last = base + stride * (range.end - 1) as i64;
            let (lo, hi) = (first.min(last), first.max(last));
            (lo >= 0).then_some((lo as u64, hi as u64))
        }
        Pattern::Indirect {
            index,
            ibase,
            istride,
        } => {
            let table = w.index.table(index)?;
            // Index positions `ibase + istride·i` are affine in `i`, so the
            // two ends bound every position in between: check those in
            // closed form, then fold the entries they span.
            let pos = |i: u64| ibase.checked_add(istride.checked_mul(i as i64)?);
            let (first, last) = (pos(range.start)?, pos(range.end - 1)?);
            let (lo, hi) = (first.min(last), first.max(last));
            if lo < 0 || hi >= table.len() as i64 {
                return None;
            }
            let span = table[lo as usize..=hi as usize].iter();
            let hull = |(lo, hi): (u32, u32), &e: &u32| (lo.min(e), hi.max(e));
            let (lo, hi) = match istride.unsigned_abs() {
                // Every entry of the span, in a plain slice fold.
                0 | 1 => span.fold((u32::MAX, 0), hull),
                step => span.step_by(step as usize).fold((u32::MAX, 0), hull),
            };
            Some((lo as u64, hi as u64))
        }
    }
}

/// The analysis result for one operand.
#[derive(Debug, Clone)]
pub struct RefReport {
    /// Operand name (from [`StreamRef::name`]).
    pub name: &'static str,
    /// The referenced array.
    pub array: ArrayId,
    /// Read/write mode.
    pub mode: Mode,
    /// Lattice verdict.
    pub verdict: Verdict,
    /// Data footprint over the full iteration range, when computable.
    pub footprint: Option<Footprint>,
    /// Index-array footprint for indirect streams, when computable.
    pub index_footprint: Option<Footprint>,
}

/// The analysis result for one loop.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Loop name.
    pub loop_name: String,
    /// Iteration count.
    pub iters: u64,
    /// Per-operand reports, in spec order.
    pub refs: Vec<RefReport>,
    /// All findings about this loop (validation + analysis).
    pub diagnostics: Vec<Diagnostic>,
}

impl LoopReport {
    /// Can the real-thread interpreter run this loop? True when no
    /// operand is `Unsafe` and no error-severity diagnostic fired.
    pub fn rt_ok(&self) -> bool {
        self.refs.iter().all(|r| !r.verdict.is_unsafe())
            && !self.diagnostics.iter().any(|d| d.is_error())
    }

    /// The helper horizon of the loop: the minimum lag over all
    /// `HorizonSafe` operands, or `None` when helpers are unrestricted.
    pub fn helper_lag(&self) -> Option<u64> {
        self.refs.iter().filter_map(|r| r.verdict.lag()).min()
    }

    /// The report for operand `name`, if present.
    pub fn find_ref(&self, name: &str) -> Option<&RefReport> {
        self.refs.iter().find(|r| r.name == name)
    }

    /// Can a chunk of this loop be journaled and rolled back? The undo
    /// journal is bounded by [`write_set`]: it exists exactly when every
    /// write-mode operand's footprint is resolvable, i.e. no write
    /// operand bottomed out at [`Verdict::Unsafe`]. Loops the
    /// real-thread interpreter accepts ([`LoopReport::rt_ok`]) are
    /// always journalable; the distinction matters for hand-written
    /// kernels and for reporting.
    pub fn journalability(&self) -> Journalability {
        for r in self.refs.iter().filter(|r| r.mode.writes()) {
            if let Verdict::Unsafe { reason } = r.verdict {
                return Journalability::Unjournalable {
                    ref_name: r.name,
                    reason,
                };
            }
        }
        Journalability::Journalable
    }

    /// The distinct diagnostic codes that fired, in first-seen order.
    pub fn codes(&self) -> Vec<DiagCode> {
        let mut out = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }
}

/// The analysis result for a whole workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-loop reports, in workload order.
    pub loops: Vec<LoopReport>,
    /// Workload-level findings (e.g. an empty loop list).
    pub diagnostics: Vec<Diagnostic>,
}

impl WorkloadReport {
    /// Can the real-thread interpreter run every loop?
    pub fn rt_ok(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.is_error()) && self.loops.iter().all(|l| l.rt_ok())
    }

    /// Every error-severity finding, workload-level first.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .chain(self.loops.iter().flat_map(|l| l.diagnostics.iter()))
            .filter(|d| d.is_error())
            .collect()
    }

    /// Turn the report into a hard error when anything disqualifies the
    /// workload from real-thread execution.
    pub fn require_rt(self) -> Result<WorkloadReport, AnalysisError> {
        if self.rt_ok() {
            Ok(self)
        } else {
            let diagnostics = self.errors().into_iter().cloned().collect();
            Err(AnalysisError { diagnostics })
        }
    }
}

/// The typed rejection carried by `SpecProgram::new` and friends: every
/// error-severity diagnostic the analyzer produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    /// The disqualifying findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisError {
    /// Build from an explicit diagnostic list (used by consumers that add
    /// their own findings, e.g. the arena-size check).
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        AnalysisError { diagnostics }
    }

    /// Do any of the findings carry the given code?
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "helper-safety analysis rejected the workload ({} finding{}):",
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" }
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalysisError {}

/// Analyze one loop of a workload. Never panics: every finding — from
/// malformed specs to helper races — lands in the report's diagnostics.
pub fn analyze_loop(w: &Workload, spec: &LoopSpec) -> LoopReport {
    let mut diags = spec.try_validate();
    check_widths(spec, &mut diags);

    // Which arrays does this loop write (as data)?
    let written: Vec<ArrayId> = spec
        .refs
        .iter()
        .filter(|r| r.mode.writes())
        .map(|r| r.array)
        .collect();
    let writes_array = |id: ArrayId| written.contains(&id);

    // An indirect stream is resolvable when its index array has installed
    // contents, covers every position the loop reads, and is not written
    // by the loop itself.
    let index_status = |r: &StreamRef| -> Result<(), UnsafeReason> {
        let Pattern::Indirect { index, .. } = r.pattern else {
            return Ok(());
        };
        if writes_array(index) {
            return Err(UnsafeReason::WrittenIndexArray);
        }
        if !w.index.contains(index) {
            return Err(UnsafeReason::MissingIndexContents);
        }
        Ok(())
    };

    let mut refs = Vec::with_capacity(spec.refs.len());
    for r in &spec.refs {
        let footprint = ref_footprint(w, r, 0..spec.iters);
        let index_fp = index_footprint(w, r, 0..spec.iters);
        let verdict = classify(w, spec, r, &index_status, &mut diags);
        if footprint.is_none() && !unresolved_index(&verdict) {
            diags.push(Diagnostic::ref_level(
                DiagCode::OutOfBounds,
                Severity::Error,
                &spec.name,
                r.name,
                format!(
                    "{}: {} resolves outside its array over 0..{}",
                    spec.name, r.name, spec.iters
                ),
            ));
        }
        if let Some(fp) = &footprint {
            check_footprint_bounds(w, spec, r, r.array, fp, &mut diags);
        }
        if let (Some(ifp), Pattern::Indirect { index, .. }) = (&index_fp, r.pattern) {
            check_footprint_bounds(w, spec, r, index, ifp, &mut diags);
        }
        refs.push(RefReport {
            name: r.name,
            array: r.array,
            mode: r.mode,
            verdict,
            footprint,
            index_footprint: index_fp,
        });
    }

    LoopReport {
        loop_name: spec.name.clone(),
        iters: spec.iters,
        refs,
        diagnostics: diags,
    }
}

/// Analyze every loop of a workload. Never panics.
pub fn analyze_workload(w: &Workload) -> WorkloadReport {
    let mut diagnostics = Vec::new();
    if w.loops.is_empty() {
        diagnostics.push(Diagnostic::loop_level(
            DiagCode::NoLoops,
            Severity::Error,
            "",
            "workload has no loops",
        ));
    }
    WorkloadReport {
        loops: w.loops.iter().map(|l| analyze_loop(w, l)).collect(),
        diagnostics,
    }
}

/// The overflow direction of the out-of-bounds check: a computed
/// footprint is valid interval arithmetic, but the stream must also stay
/// inside the array it names — past-the-end accesses would read or write
/// neighboring arrays (silently invalidating per-array verdicts) or run
/// off the arena entirely, and `AddressSpace::addr` only debug-asserts
/// bounds. Negative / unresolvable indices surface as a `None` footprint
/// and are diagnosed separately.
fn check_footprint_bounds(
    w: &Workload,
    spec: &LoopSpec,
    r: &StreamRef,
    array: ArrayId,
    fp: &Footprint,
    diags: &mut Vec<Diagnostic>,
) {
    let def = w.space.array(array);
    let end = def.base + def.len * def.elem as u64;
    if fp.elem_hi > def.len || fp.hi > end {
        diags.push(Diagnostic::ref_level(
            DiagCode::OutOfBounds,
            Severity::Error,
            &spec.name,
            r.name,
            format!(
                "{}: {} runs past the end of {}: touches element {} / byte offset {} \
                 of a {}-element array ({} bytes)",
                spec.name,
                r.name,
                def.name,
                fp.elem_hi - 1,
                fp.hi - def.base,
                def.len,
                end - def.base,
            ),
        ));
    }
}

/// An unresolvable indirect stream already carries an `Unsafe`
/// diagnostic; don't pile an out-of-bounds error on top.
fn unresolved_index(v: &Verdict) -> bool {
    matches!(
        v,
        Verdict::Unsafe {
            reason: UnsafeReason::MissingIndexContents | UnsafeReason::WrittenIndexArray
        }
    )
}

/// The real-thread interpreter moves 4- or 8-byte elements and requires
/// one uniform width per loop; violations are error diagnostics (they do
/// not affect the dependence verdicts).
fn check_widths(spec: &LoopSpec, diags: &mut Vec<Diagnostic>) {
    let mut first: Option<u32> = None;
    for r in &spec.refs {
        if r.bytes != 4 && r.bytes != 8 {
            diags.push(Diagnostic::ref_level(
                DiagCode::UnsupportedWidth,
                Severity::Error,
                &spec.name,
                r.name,
                format!(
                    "{}: {} is {} bytes wide; the interpreter supports 4- or 8-byte operands",
                    spec.name, r.name, r.bytes
                ),
            ));
            continue;
        }
        match first {
            None => first = Some(r.bytes),
            Some(wd) if wd != r.bytes => {
                diags.push(Diagnostic::ref_level(
                    DiagCode::MixedWidth,
                    Severity::Error,
                    &spec.name,
                    r.name,
                    format!(
                        "{}: interpreter requires uniform operand width ({} vs {} bytes)",
                        spec.name, wd, r.bytes
                    ),
                ));
            }
            Some(_) => {}
        }
    }
}

/// Classify one operand into the lattice, appending its diagnostics.
fn classify(
    w: &Workload,
    spec: &LoopSpec,
    r: &StreamRef,
    index_status: &dyn Fn(&StreamRef) -> Result<(), UnsafeReason>,
    diags: &mut Vec<Diagnostic>,
) -> Verdict {
    if let Err(reason) = index_status(r) {
        let code = match reason {
            UnsafeReason::WrittenIndexArray => DiagCode::WrittenIndexArray,
            _ => DiagCode::MissingIndexContents,
        };
        diags.push(Diagnostic::ref_level(
            code,
            Severity::Error,
            &spec.name,
            r.name,
            format!("{}: {}: {}", spec.name, r.name, reason),
        ));
        return Verdict::Unsafe { reason };
    }

    if r.mode.writes() {
        // Value production stays in the execution phase; helpers may only
        // compute the address (prefetch / pack the scatter index).
        return Verdict::Prefetchable;
    }

    // A pure read. Safe at any distance unless the loop also writes the
    // array with a flow (write-then-read) dependence.
    let writers: Vec<&StreamRef> = spec
        .refs
        .iter()
        .filter(|o| o.mode.writes() && o.array == r.array)
        .collect();
    if writers.is_empty() {
        return Verdict::Packable;
    }
    if writers.iter().any(|o| index_status(o).is_err()) {
        let reason = UnsafeReason::OpaqueWrite;
        diags.push(Diagnostic::ref_level(
            DiagCode::CarriedRead,
            Severity::Error,
            &spec.name,
            r.name,
            format!("{}: {}: {}", spec.name, r.name, reason),
        ));
        return Verdict::Unsafe { reason };
    }

    match min_flow_lag(w, spec, r, &writers) {
        Some(lag) => {
            diags.push(Diagnostic::ref_level(
                DiagCode::CarriedRead,
                Severity::Info,
                &spec.name,
                r.name,
                format!(
                    "{}: {} reads elements the loop wrote {lag}+ iterations earlier; \
                     helpers must stay behind committed+{lag}",
                    spec.name, r.name
                ),
            ));
            Verdict::HorizonSafe { lag }
        }
        None => {
            diags.push(Diagnostic::ref_level(
                DiagCode::BenignOverlap,
                Severity::Info,
                &spec.name,
                r.name,
                format!(
                    "{}: {} shares an array with a write stream but carries no \
                     flow dependence (disjoint or anti-only); packable",
                    spec.name, r.name
                ),
            ));
            Verdict::Packable
        }
    }
}

/// Minimum flow lag `min(i - j)` over all pairs where write iteration `j`
/// and read iteration `i > j` touch the same element; `None` when no such
/// pair exists. Writers whose full-range footprint never meets the
/// read's are disjoint at every distance and are dropped before any
/// per-iteration reasoning; the survivors go through a closed form for
/// all-affine pairs and an exact forward replay (index-store-bounded)
/// otherwise.
fn min_flow_lag(
    w: &Workload,
    spec: &LoopSpec,
    read: &StreamRef,
    writers: &[&StreamRef],
) -> Option<u64> {
    let n = spec.iters;
    let read_fp = ref_footprint(w, read, 0..n);
    let writers: Vec<&StreamRef> = writers
        .iter()
        .copied()
        .filter(|o| match (&read_fp, ref_footprint(w, o, 0..n)) {
            (Some(rf), Some(of)) => rf.overlaps(&of),
            // An unresolvable hull proves nothing — keep the writer.
            _ => true,
        })
        .collect();
    if writers.is_empty() {
        return None;
    }
    if read.pattern.is_affine() && writers.iter().all(|o| o.pattern.is_affine()) {
        let Pattern::Affine {
            base: rb,
            stride: rs,
        } = read.pattern
        else {
            unreachable!()
        };
        return writers
            .iter()
            .filter_map(|o| {
                let Pattern::Affine {
                    base: wb,
                    stride: ws,
                } = o.pattern
                else {
                    unreachable!()
                };
                affine_flow_lag(rb, rs, wb, ws, n)
            })
            .min();
    }
    scan_flow_lag(w, read, &writers, n)
}

/// Closed-form (or single-scan) minimum flow lag between an affine read
/// `rb + rs·i` and an affine write `wb + ws·j` over `0 ≤ j < i < n`.
/// (Also the carried-gap core of the [`plan`] dependence edges, with
/// the roles src=write, dst=read.)
pub(crate) fn affine_flow_lag(rb: i64, rs: i64, wb: i64, ws: i64, n: u64) -> Option<u64> {
    if n < 2 {
        return None;
    }
    if rs == ws {
        if rs == 0 {
            return (rb == wb).then_some(1);
        }
        // rb + rs·i = wb + rs·j  ⇔  rs·(i − j) = wb − rb.
        let diff = wb - rb;
        if diff % rs != 0 {
            return None;
        }
        let d = diff / rs;
        return (d >= 1 && (d as u64) < n).then_some(d as u64);
    }
    // Unequal strides: scan write iterations and solve for the read.
    let mut best: Option<u64> = None;
    for j in 0..n {
        let target = wb + ws * j as i64 - rb; // rs·i must equal this
        let i = if rs == 0 {
            // The read always touches rb; every i > j aliases.
            (target == 0).then_some(j + 1)
        } else if target % rs == 0 && target / rs >= 0 {
            Some((target / rs) as u64)
        } else {
            None
        };
        if let Some(i) = i {
            if i > j && i < n {
                let lag = i - j;
                if best.is_none_or(|b| lag < b) {
                    best = Some(lag);
                }
                if best == Some(1) {
                    break;
                }
            }
        }
    }
    best
}

/// Exact forward replay: walk iterations in order, record writes after
/// the reads of the same iteration (the interpreter's read-before-write
/// body order), and report the minimum observed write→read gap.
fn scan_flow_lag(w: &Workload, read: &StreamRef, writers: &[&StreamRef], n: u64) -> Option<u64> {
    let elem = |p: &Pattern, i: u64| -> Option<u64> {
        match *p {
            Pattern::Affine { base, stride } => {
                let e = base + stride * i as i64;
                (e >= 0).then_some(e as u64)
            }
            Pattern::Indirect {
                index,
                ibase,
                istride,
            } => {
                let pos = ibase + istride * i as i64;
                let len = w.index.len_of(index)? as i64;
                (pos >= 0 && pos < len).then(|| w.index.get(index, pos as u64) as u64)
            }
        }
    };
    let mut last_write: HashMap<u64, u64> = HashMap::new();
    let mut best: Option<u64> = None;
    for i in 0..n {
        if let Some(e) = elem(&read.pattern, i) {
            if let Some(&j) = last_write.get(&e) {
                let lag = i - j;
                if best.is_none_or(|b| lag < b) {
                    best = Some(lag);
                }
                if best == Some(1) {
                    return best;
                }
            }
        }
        for o in writers {
            if let Some(e) = elem(&o.pattern, i) {
                last_write.insert(e, i);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_trace::{AddressSpace, IndexStore};

    fn rd(name: &'static str, array: ArrayId, pattern: Pattern) -> StreamRef {
        StreamRef {
            name,
            array,
            pattern,
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        }
    }

    fn wr(name: &'static str, array: ArrayId, pattern: Pattern) -> StreamRef {
        StreamRef {
            name,
            array,
            pattern,
            mode: Mode::Write,
            bytes: 8,
            hoistable: false,
        }
    }

    fn workload(refs: Vec<StreamRef>, space: AddressSpace, index: IndexStore) -> Workload {
        Workload {
            space,
            index,
            loops: vec![LoopSpec {
                name: "l".into(),
                iters: 64,
                refs,
                compute: 1.0,
                hoistable_compute: 0.0,
                hoist_result_bytes: 0,
            }],
        }
    }

    #[test]
    fn pure_read_is_packable() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let b = s.alloc("b", 8, 64);
        let w = workload(
            vec![
                rd("a(i)", a, Pattern::Affine { base: 0, stride: 1 }),
                wr("b(i)", b, Pattern::Affine { base: 0, stride: 1 }),
            ],
            s,
            IndexStore::new(),
        );
        let rep = analyze_workload(&w);
        assert!(rep.rt_ok());
        let l = &rep.loops[0];
        assert_eq!(l.find_ref("a(i)").unwrap().verdict, Verdict::Packable);
        assert_eq!(l.find_ref("b(i)").unwrap().verdict, Verdict::Prefetchable);
        assert_eq!(l.helper_lag(), None);
    }

    #[test]
    fn recurrence_read_is_horizon_safe_with_lag_one() {
        let mut s = AddressSpace::new();
        let y = s.alloc("y", 8, 65);
        let w = workload(
            vec![
                rd("y(i-1)", y, Pattern::Affine { base: 0, stride: 1 }),
                wr("y(i)", y, Pattern::Affine { base: 1, stride: 1 }),
            ],
            s,
            IndexStore::new(),
        );
        let rep = analyze_workload(&w);
        assert!(rep.rt_ok());
        let l = &rep.loops[0];
        assert_eq!(
            l.find_ref("y(i-1)").unwrap().verdict,
            Verdict::HorizonSafe { lag: 1 }
        );
        assert_eq!(l.helper_lag(), Some(1));
        assert!(l.codes().contains(&DiagCode::CarriedRead));
    }

    #[test]
    fn wider_recurrence_gets_its_exact_lag() {
        let mut s = AddressSpace::new();
        let y = s.alloc("y", 8, 80);
        let w = workload(
            vec![
                rd("y(i)", y, Pattern::Affine { base: 0, stride: 1 }),
                wr("y(i+5)", y, Pattern::Affine { base: 5, stride: 1 }),
            ],
            s,
            IndexStore::new(),
        );
        let l = &analyze_workload(&w).loops[0];
        assert_eq!(
            l.find_ref("y(i)").unwrap().verdict,
            Verdict::HorizonSafe { lag: 5 }
        );
    }

    #[test]
    fn disjoint_halves_are_benign_overlap() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 128);
        let w = workload(
            vec![
                rd("a(i)", a, Pattern::Affine { base: 0, stride: 1 }),
                wr(
                    "a(64+i)",
                    a,
                    Pattern::Affine {
                        base: 64,
                        stride: 1,
                    },
                ),
            ],
            s,
            IndexStore::new(),
        );
        let l = &analyze_workload(&w).loops[0];
        assert_eq!(l.find_ref("a(i)").unwrap().verdict, Verdict::Packable);
        assert!(l.codes().contains(&DiagCode::BenignOverlap));
        assert!(l.rt_ok());
    }

    #[test]
    fn anti_dependence_only_is_packable() {
        // Read a(i+1), write a(i): the write at j aliases the read at
        // i = j − 1 < j — anti, never flow.
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 65);
        let w = workload(
            vec![
                rd("a(i+1)", a, Pattern::Affine { base: 1, stride: 1 }),
                wr("a(i)", a, Pattern::Affine { base: 0, stride: 1 }),
            ],
            s,
            IndexStore::new(),
        );
        let l = &analyze_workload(&w).loops[0];
        assert_eq!(l.find_ref("a(i+1)").unwrap().verdict, Verdict::Packable);
    }

    #[test]
    fn write_set_bounds_affine_chunks_in_closed_form() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let b = s.alloc("b", 8, 64);
        let w = workload(
            vec![
                rd("a(i)", a, Pattern::Affine { base: 0, stride: 1 }),
                wr("b(i)", b, Pattern::Affine { base: 0, stride: 1 }),
            ],
            s,
            IndexStore::new(),
        );
        assert_eq!(
            analyze_workload(&w).loops[0].journalability(),
            Journalability::Journalable
        );
        let set = write_set(&w, &w.loops[0], 8..16).expect("journalable chunk");
        assert_eq!(set.len(), 1, "reads contribute nothing to the journal");
        let fp = set[0];
        assert!(fp.exact, "affine writes bound in closed form");
        assert_eq!((fp.elem_lo, fp.elem_hi), (8, 16));
        assert_eq!(fp.hi - fp.lo, 8 * 8, "eight f64 elements");
        assert!(
            write_set(&w, &w.loops[0], 3..3).is_none(),
            "an empty range has no journal"
        );
    }

    #[test]
    fn indirect_write_set_is_index_store_bounded() {
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let contents: Vec<u32> = (0..64u32).map(|i| (i * 13) % 32).collect();
        let mut index = IndexStore::new();
        index.set(ij, contents.clone());
        let scatter = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Modify,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(vec![scatter], s, index);
        assert_eq!(
            analyze_workload(&w).loops[0].journalability(),
            Journalability::Journalable
        );
        let range = 4..9u64;
        let set = write_set(&w, &w.loops[0], range.clone()).expect("index contents installed");
        assert_eq!(set.len(), 1);
        let fp = set[0];
        assert!(!fp.exact, "indirect hulls are scanned, not closed-form");
        let touched: Vec<u64> = range.map(|i| contents[i as usize] as u64).collect();
        assert_eq!(fp.elem_lo, *touched.iter().min().unwrap());
        assert_eq!(fp.elem_hi, *touched.iter().max().unwrap() + 1);
        let base = w.space.array(x).base;
        for &e in &touched {
            assert!(
                fp.contains(base + e * 8, 8),
                "every scattered element lies inside the journal bound"
            );
        }
    }

    /// The per-element scan `elem_hull`'s indirect arm replaced: one
    /// checked lookup per iteration. Kept as the reference the closed-form
    /// end checks and the slice fold must agree with.
    fn indirect_hull_reference(w: &Workload, p: &Pattern, range: Range<u64>) -> Option<(u64, u64)> {
        let Pattern::Indirect {
            index,
            ibase,
            istride,
        } = *p
        else {
            unreachable!("the reference covers indirect patterns only")
        };
        if range.is_empty() {
            return None;
        }
        let len = w.index.len_of(index)? as i64;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for i in range {
            let p = ibase + istride * i as i64;
            if p < 0 || p >= len {
                return None;
            }
            let e = w.index.get(index, p as u64) as u64;
            lo = lo.min(e);
            hi = hi.max(e);
        }
        Some((lo, hi))
    }

    #[test]
    fn indirect_hull_matches_the_per_element_scan() {
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 1024);
        let ij = s.alloc("ij", 4, 200);
        let mut index = IndexStore::new();
        index.set(ij, (0..200u32).map(|i| (i * 7919 + 13) % 1024).collect());
        let ranges = [0..1, 0..10, 3..17, 10..30, 24..25, 40..66, 0..200, 7..7];
        let (mut bounded, mut refused) = (0, 0);
        for istride in [-3i64, -1, 0, 1, 8] {
            for ibase in [-4i64, 0, 5, 37, 199, 250] {
                let pattern = Pattern::Indirect {
                    index: ij,
                    ibase,
                    istride,
                };
                let scatter = StreamRef {
                    mode: Mode::Modify,
                    ..wr("x(ij(i))", x, pattern)
                };
                let w = workload(vec![scatter], s.clone(), index.clone());
                let bare = workload(w.loops[0].refs.clone(), s.clone(), IndexStore::new());
                for range in ranges.clone() {
                    let want = indirect_hull_reference(&w, &pattern, range.clone());
                    let case = format!("istride {istride}, ibase {ibase}, range {range:?}");
                    assert_eq!(elem_hull(&w, &pattern, range.clone()), want, "{case}");
                    let set = write_set(&w, &w.loops[0], range.clone());
                    let elems = set.map(|fps| (fps[0].elem_lo, fps[0].elem_hi - 1));
                    assert_eq!(elems, want, "write_set, {case}");
                    match want {
                        Some(_) => bounded += 1,
                        None => refused += 1,
                    }
                    // No table installed: never bounded, by either.
                    assert_eq!(elem_hull(&bare, &pattern, range.clone()), None, "{case}");
                    assert_eq!(indirect_hull_reference(&bare, &pattern, range), None);
                }
            }
        }
        // Both outcomes occur: ends inside the table, and either end
        // (first or last position) outside it.
        assert!(
            bounded > 40 && refused > 40,
            "{bounded} bounded, {refused} refused"
        );
        let ends = |ibase, istride, range: Range<u64>| {
            let pattern = Pattern::Indirect {
                index: ij,
                ibase,
                istride,
            };
            let w = workload(vec![wr("x(ij(i))", x, pattern)], s.clone(), index.clone());
            elem_hull(&w, &pattern, range)
        };
        assert!(ends(0, 1, 0..200).is_some(), "the whole table");
        assert_eq!(ends(0, 1, 0..201), None, "last position one past the end");
        assert_eq!(ends(-1, 1, 0..10), None, "first position negative");
        assert_eq!(ends(199, -1, 0..201), None, "descending past position 0");
        assert_eq!(
            ends(10, 8, 0..25),
            None,
            "strided last position past the end"
        );
        assert!(ends(10, 8, 0..24).is_some(), "strided, last position 194");
    }

    #[test]
    fn unresolvable_write_footprints_are_unjournalable() {
        // A scatter *write* whose index array has no installed contents:
        // the write-set is unknowable, so no undo journal can exist.
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let scatter = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Write,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(vec![scatter], s, IndexStore::new());
        assert_eq!(
            analyze_workload(&w).loops[0].journalability(),
            Journalability::Unjournalable {
                ref_name: "x(ij(i))",
                reason: UnsafeReason::MissingIndexContents
            }
        );
        assert!(write_set(&w, &w.loops[0], 0..8).is_none());
    }

    #[test]
    fn unsafe_reads_do_not_block_journaling() {
        // The gather reads through an index array the loop itself
        // writes — unsafe for helpers — but the only *write* is affine,
        // so the chunk write-set is still exactly bounded.
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let mut index = IndexStore::new();
        index.set(ij, (0..64).collect());
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(
            vec![
                gather,
                wr("ij(i)", ij, Pattern::Affine { base: 0, stride: 1 }),
            ],
            s,
            index,
        );
        let l = &analyze_workload(&w).loops[0];
        assert!(!l.rt_ok(), "helpers must not touch this loop");
        assert_eq!(l.journalability(), Journalability::Journalable);
        assert_eq!(
            write_set(&w, &w.loops[0], 0..16).map(|s| s.len()),
            Some(1),
            "the affine index-array write is the whole journal"
        );
    }

    #[test]
    fn written_index_array_is_unsafe() {
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let mut index = IndexStore::new();
        index.set(ij, (0..64).collect());
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(
            vec![
                gather,
                wr("ij(i)", ij, Pattern::Affine { base: 0, stride: 1 }),
            ],
            s,
            index,
        );
        let l = &analyze_workload(&w).loops[0];
        assert_eq!(
            l.find_ref("x(ij(i))").unwrap().verdict,
            Verdict::Unsafe {
                reason: UnsafeReason::WrittenIndexArray
            }
        );
        assert!(!l.rt_ok());
        assert!(l.codes().contains(&DiagCode::WrittenIndexArray));
    }

    #[test]
    fn missing_index_contents_are_unsafe() {
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(vec![gather], s, IndexStore::new());
        let l = &analyze_workload(&w).loops[0];
        assert!(matches!(
            l.find_ref("x(ij(i))").unwrap().verdict,
            Verdict::Unsafe {
                reason: UnsafeReason::MissingIndexContents
            }
        ));
    }

    #[test]
    fn indirect_flow_lag_is_found_by_replay() {
        // Gather x(ij(i)) with ij = [0, 0, 1, ...]: iteration 1 reads
        // x(0), written at iteration 0 by x(i) → lag 1.
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let mut index = IndexStore::new();
        let mut vals: Vec<u32> = (0..64).collect();
        vals[1] = 0;
        index.set(ij, vals);
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(
            vec![
                gather,
                wr("x(i)", x, Pattern::Affine { base: 0, stride: 1 }),
            ],
            s,
            index,
        );
        let l = &analyze_workload(&w).loops[0];
        assert_eq!(
            l.find_ref("x(ij(i))").unwrap().verdict,
            Verdict::HorizonSafe { lag: 1 }
        );
    }

    #[test]
    fn self_alias_same_iteration_is_not_flow() {
        // Read x(ij(i)) with identity ij while writing x(i): every alias
        // is within one iteration (read-before-write) — packable.
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let mut index = IndexStore::new();
        index.set(ij, (0..64).collect());
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(
            vec![
                gather,
                wr("x(i)", x, Pattern::Affine { base: 0, stride: 1 }),
            ],
            s,
            index,
        );
        let l = &analyze_workload(&w).loops[0];
        assert_eq!(l.find_ref("x(ij(i))").unwrap().verdict, Verdict::Packable);
    }

    #[test]
    fn footprints_are_exact_for_affine() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 100);
        let base = s.array(a).base;
        let w = workload(
            vec![rd("a(i)", a, Pattern::Affine { base: 2, stride: 3 })],
            s,
            IndexStore::new(),
        );
        // iters = 64 → elements 2, 5, ..., 2 + 3·63 = 191 — out of bounds
        // for len 100, so the report flags it.
        let l = &analyze_workload(&w).loops[0];
        let fp = l.find_ref("a(i)").unwrap().footprint.unwrap();
        assert!(fp.exact);
        assert_eq!(fp.elem_lo, 2);
        assert_eq!(fp.elem_hi, 192);
        assert_eq!(fp.lo, base + 16);
        assert_eq!(fp.hi, base + 191 * 8 + 8);
        assert!(!l.rt_ok());
        assert!(l.codes().contains(&DiagCode::OutOfBounds));
        // The partial-range footprint is a function of the range.
        let fp8 = ref_footprint(&w, &w.loops[0].refs[0], 0..8).unwrap();
        assert_eq!(fp8.elem_hi, 2 + 3 * 7 + 1);
    }

    #[test]
    fn affine_overshoot_is_out_of_bounds() {
        // Exactly in-bounds passes; one element past the end is an AN008
        // error even though the footprint itself computes fine.
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let w = workload(
            vec![rd("a(i)", a, Pattern::Affine { base: 0, stride: 1 })],
            s,
            IndexStore::new(),
        );
        let l = &analyze_workload(&w).loops[0];
        assert!(l.rt_ok(), "{:?}", l.diagnostics);

        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 63);
        let w = workload(
            vec![rd("a(i)", a, Pattern::Affine { base: 0, stride: 1 })],
            s,
            IndexStore::new(),
        );
        let l = &analyze_workload(&w).loops[0];
        assert!(!l.rt_ok());
        assert!(l.codes().contains(&DiagCode::OutOfBounds));
        // The footprint is still reported — the diagnostic carries the
        // rejection, not a poisoned report.
        assert!(l.find_ref("a(i)").unwrap().footprint.is_some());
    }

    #[test]
    fn index_values_past_array_end_are_out_of_bounds() {
        // The index contents resolve, but point one element past the end
        // of the data array: the gather's footprint overshoots → AN008.
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let mut index = IndexStore::new();
        let mut vals: Vec<u32> = (0..64).collect();
        vals[17] = 64; // x has elements 0..=63
        index.set(ij, vals);
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(vec![gather], s, index);
        let l = &analyze_workload(&w).loops[0];
        assert!(!l.rt_ok());
        assert!(l.codes().contains(&DiagCode::OutOfBounds));
    }

    #[test]
    fn index_positions_past_index_array_end_are_out_of_bounds() {
        // The *index-array* reads themselves overshoot: istride walks past
        // the installed contents' backing array.
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 256);
        let ij = s.alloc("ij", 4, 32);
        let mut index = IndexStore::new();
        // Contents longer than the declared array: positions resolve, but
        // the declared ij array only owns 32 elements.
        index.set(ij, (0..64).collect());
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(vec![gather], s, index);
        let l = &analyze_workload(&w).loops[0];
        assert!(!l.rt_ok());
        assert!(l.codes().contains(&DiagCode::OutOfBounds));
    }

    #[test]
    fn disjoint_footprints_short_circuit_indirect_lag_scan() {
        // Gather confined to the low half, write confined to the high
        // half: the hulls are disjoint, so min_flow_lag drops the writer
        // without replaying the index contents — packable, benign.
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 128);
        let ij = s.alloc("ij", 4, 64);
        let mut index = IndexStore::new();
        index.set(ij, (0..64).collect());
        let gather = StreamRef {
            name: "a(ij(i))",
            array: a,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(
            vec![
                gather,
                wr(
                    "a(64+i)",
                    a,
                    Pattern::Affine {
                        base: 64,
                        stride: 1,
                    },
                ),
            ],
            s,
            index,
        );
        let l = &analyze_workload(&w).loops[0];
        assert_eq!(l.find_ref("a(ij(i))").unwrap().verdict, Verdict::Packable);
        assert!(l.codes().contains(&DiagCode::BenignOverlap));
        assert!(l.rt_ok());
    }

    #[test]
    fn mixed_width_is_an_error_diagnostic_not_a_verdict() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let b = s.alloc("b", 4, 64);
        let mut narrow = rd("b(i)", b, Pattern::Affine { base: 0, stride: 1 });
        narrow.bytes = 4;
        let w = workload(
            vec![
                rd("a(i)", a, Pattern::Affine { base: 0, stride: 1 }),
                narrow,
            ],
            s,
            IndexStore::new(),
        );
        let l = &analyze_workload(&w).loops[0];
        assert!(!l.rt_ok());
        assert!(l.codes().contains(&DiagCode::MixedWidth));
        // Verdicts stay dependence-based.
        assert_eq!(l.find_ref("a(i)").unwrap().verdict, Verdict::Packable);
    }

    #[test]
    fn empty_workload_reports_no_loops() {
        let rep = analyze_workload(&Workload::default());
        assert!(!rep.rt_ok());
        assert_eq!(rep.errors()[0].code, DiagCode::NoLoops);
    }

    #[test]
    fn analysis_error_display_lists_findings() {
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let ij = s.alloc("ij", 4, 64);
        let gather = StreamRef {
            name: "x(ij(i))",
            array: x,
            pattern: Pattern::Indirect {
                index: ij,
                ibase: 0,
                istride: 1,
            },
            mode: Mode::Read,
            bytes: 8,
            hoistable: false,
        };
        let w = workload(vec![gather], s, IndexStore::new());
        let err = analyze_workload(&w).require_rt().unwrap_err();
        assert!(err.has_code(DiagCode::MissingIndexContents));
        let msg = format!("{err}");
        assert!(msg.contains("AN004"), "{msg}");
    }

    #[test]
    fn affine_closed_form_matches_scan() {
        // Cross-check the closed form against the generic replay on a
        // grid of small affine pairs.
        for rb in -2..3i64 {
            for rs in -2..3i64 {
                for wb in -2..3i64 {
                    for ws in -2..3i64 {
                        let n = 12u64;
                        let closed = affine_flow_lag(rb, rs, wb, ws, n);
                        // Brute force.
                        let mut brute: Option<u64> = None;
                        for j in 0..n {
                            for i in (j + 1)..n {
                                let re = rb + rs * i as i64;
                                let we = wb + ws * j as i64;
                                if re == we && re >= 0 {
                                    let lag = i - j;
                                    if brute.is_none_or(|b| lag < b) {
                                        brute = Some(lag);
                                    }
                                }
                            }
                        }
                        // The closed form ignores the re >= 0 feasibility
                        // cut only when strides are equal; accept either
                        // equal results or a closed-form alias at a
                        // negative element (never reachable in a valid
                        // spec, which the OutOfBounds check rejects).
                        if closed != brute {
                            let any_neg = rb.min(rb + rs * (n as i64 - 1)) < 0
                                || wb.min(wb + ws * (n as i64 - 1)) < 0;
                            assert!(
                                any_neg,
                                "closed {closed:?} vs brute {brute:?} for \
                                 rb={rb} rs={rs} wb={wb} ws={ws}"
                            );
                        }
                    }
                }
            }
        }
    }
}
